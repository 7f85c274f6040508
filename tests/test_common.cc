/**
 * @file
 * Unit tests for src/common: bit utilities, RNG determinism, the
 * circular queue, the strict number parsers, and the stats helpers.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/bitutil.hh"
#include "common/circular_queue.hh"
#include "common/parse_number.hh"
#include "common/random.hh"
#include "common/small_vec.hh"
#include "stats/stats.hh"
#include "stats/table.hh"

namespace ctcp {
namespace {

TEST(BitUtil, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
    EXPECT_FALSE(isPowerOfTwo((1ull << 40) + 1));
}

TEST(BitUtil, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1ull << 63), 63u);
}

TEST(BitUtil, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1023), 10u);
    EXPECT_EQ(ceilLog2(1024), 10u);
}

TEST(BitUtil, Bits)
{
    EXPECT_EQ(bits(0xff00, 8, 8), 0xffull);
    EXPECT_EQ(bits(0xabcd, 0, 4), 0xdull);
    EXPECT_EQ(bits(~0ull, 0, 64), ~0ull);
}

TEST(BitUtil, FoldAddress)
{
    // Folding is XOR of fixed-width chunks.
    EXPECT_EQ(foldAddress(0x1234, 16), 0x1234ull);
    EXPECT_EQ(foldAddress(0x0001'0001, 16), 0ull);
    EXPECT_EQ(foldAddress(0x0003'0001, 16), 2ull);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double v = r.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(CircularQueue, FifoOrder)
{
    CircularQueue<int> q(4);
    q.pushBack(1);
    q.pushBack(2);
    q.pushBack(3);
    EXPECT_EQ(q.front(), 1);
    q.popFront();
    EXPECT_EQ(q.front(), 2);
    q.pushBack(4);
    q.pushBack(5);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.back(), 5);
    EXPECT_EQ(q.at(0), 2);
    EXPECT_EQ(q.at(3), 5);
}

TEST(CircularQueue, WrapsAround)
{
    CircularQueue<int> q(3);
    for (int round = 0; round < 10; ++round) {
        q.pushBack(round);
        EXPECT_EQ(q.front(), round);
        q.popFront();
        EXPECT_TRUE(q.empty());
    }
}

TEST(CircularQueue, PopBackSquashes)
{
    CircularQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.pushBack(i);
    q.popBack(4);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.back(), 1);
}

TEST(SmallVec, StaysInlineUpToN)
{
    SmallVec<int, 4> v;
    EXPECT_TRUE(v.empty());
    for (int i = 0; i < 4; ++i)
        v.push_back(i);
    EXPECT_EQ(v.size(), 4u);
    EXPECT_TRUE(v.inlined());
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(v[static_cast<unsigned>(i)], i);
}

TEST(SmallVec, SpillsToHeapAndKeepsContents)
{
    SmallVec<int, 2> v;
    for (int i = 0; i < 9; ++i)
        v.push_back(i * 10);
    EXPECT_EQ(v.size(), 9u);
    EXPECT_FALSE(v.inlined());
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(v[static_cast<unsigned>(i)], i * 10);
}

TEST(SmallVec, ClearKeepsCapacityForReuse)
{
    SmallVec<int, 2> v;
    for (int i = 0; i < 8; ++i)
        v.push_back(i);
    const unsigned cap = v.capacity();
    EXPECT_GE(cap, 8u);
    v.clear();
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.capacity(), cap);   // no reallocation on refill
    for (int i = 0; i < 8; ++i)
        v.push_back(i + 100);
    EXPECT_EQ(v.capacity(), cap);
    EXPECT_EQ(v[7], 107);
}

TEST(SmallVec, CopyAndMovePreserveElements)
{
    SmallVec<int, 2> heap;
    for (int i = 0; i < 5; ++i)
        heap.push_back(i);

    SmallVec<int, 2> copy(heap);
    ASSERT_EQ(copy.size(), 5u);
    EXPECT_EQ(copy[4], 4);
    copy.push_back(99);
    EXPECT_EQ(heap.size(), 5u);   // copies are independent

    SmallVec<int, 2> moved(std::move(heap));
    ASSERT_EQ(moved.size(), 5u);
    EXPECT_EQ(moved[0], 0);
    EXPECT_TRUE(heap.empty());    // moved-from is reusable
    heap.push_back(7);
    EXPECT_EQ(heap[0], 7);

    SmallVec<int, 2> inline_src;
    inline_src.push_back(42);
    SmallVec<int, 2> inline_moved(std::move(inline_src));
    ASSERT_EQ(inline_moved.size(), 1u);
    EXPECT_EQ(inline_moved[0], 42);

    SmallVec<int, 2> assigned;
    assigned = inline_moved;
    ASSERT_EQ(assigned.size(), 1u);
    EXPECT_EQ(assigned[0], 42);
}

TEST(SmallVec, RangeForIteration)
{
    SmallVec<int, 3> v;
    for (int i = 1; i <= 6; ++i)
        v.push_back(i);
    int sum = 0;
    for (int x : v)
        sum += x;
    EXPECT_EQ(sum, 21);
}

TEST(Stats, Percent)
{
    EXPECT_DOUBLE_EQ(percent(1, 4), 25.0);
    EXPECT_DOUBLE_EQ(percent(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(percent(5, 5), 100.0);
}

TEST(Stats, HarmonicMean)
{
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, 1.0}), 1.0);
    EXPECT_NEAR(harmonicMean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
}

TEST(Stats, HistogramBuckets)
{
    Histogram h(4, 10);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(39);
    h.sample(40);    // overflow bucket
    h.sample(1000);  // overflow bucket
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.samples(), 6u);
}

TEST(Stats, HistogramMean)
{
    Histogram h(4, 10);
    h.sample(10, 3);
    h.sample(20, 1);
    EXPECT_DOUBLE_EQ(h.mean(), 12.5);
}

TEST(Table, RendersAligned)
{
    TextTable t({"bench", "value"});
    t.row("gzip").cell(1.5, 1);
    t.row("a-very-long-name").percentCell(33.333, 2);
    const std::string out = t.render();
    EXPECT_NE(out.find("gzip"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("33.33%"), std::string::npos);
    // Header separator line present.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Counter, Accumulates)
{
    Counter c;
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ParseNumber, DecimalAcceptsPlainDecimalsOnly)
{
    EXPECT_EQ(parseDecimal("2", "wait"), 2.0);
    EXPECT_EQ(parseDecimal("0.25", "wait"), 0.25);
    EXPECT_EQ(parseDecimal("1.", "wait"), 1.0);
    EXPECT_EQ(parseDecimal(".5", "wait"), 0.5);
    EXPECT_EQ(parseDecimal("007", "wait"), 7.0);
    // strtod would read each of these as a number.
    for (const std::string bad :
         {"", ".", "1x", "-1", "+1", " 1", "1 ", "1.2.3", "1e3", "1e999",
          "inf", "nan", "0x10", "1,5"}) {
        try {
            parseDecimal(bad, "deadline");
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("deadline"),
                      std::string::npos)
                << e.what();
        }
    }
    // Too large for a double: rejected, not read as infinity.
    EXPECT_THROW(parseDecimal("1" + std::string(400, '0'), "deadline"),
                 std::invalid_argument);
}

} // namespace
} // namespace ctcp
