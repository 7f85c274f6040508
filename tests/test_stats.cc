/**
 * @file
 * Statistics package tests: fixed-point formatting against printf,
 * StatDump's aligned rendering, and the IntervalRecorder time-series
 * maths and serialization.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.hh"
#include "stats/interval.hh"
#include "stats/stats.hh"

namespace ctcp {
namespace {

// ---------------------------------------------------------------------
// Fixed-point formatting (StatDump, interval CSVs)
// ---------------------------------------------------------------------

std::string
printfFixed(double value, int precision)
{
    std::vector<char> buf(512);
    std::snprintf(buf.data(), buf.size(), "%.*f", precision, value);
    return buf.data();
}

std::string
fixed(double value, int precision)
{
    std::string out = "x";
    appendFixed(out, value, precision);
    EXPECT_EQ(out.front(), 'x') << "appendFixed must append";
    return out.substr(1);
}

TEST(AppendFixed, MatchesPrintfOnSeededAndEdgeValues)
{
    // No golden pins statsText, so this is the fence for its bytes.
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.0, 0.5, 99.99995, 1e300, -1e300, 1e-300,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN()};
    // Exact halves at the last printed digit: odd multiples of 2^-5
    // end in a 5 at the fifth decimal, odd multiples of 2^-7 at the
    // seventh; both signs.
    for (int n = 1; n < 400; n += 2) {
        for (const double sign : {1.0, -1.0}) {
            values.push_back(sign * n / 32.0);
            values.push_back(sign * n / 128.0);
            values.push_back(sign * (1000.0 + n / 32.0));
        }
    }
    // Seeded: stats-sized percentages and ratios, and raw bit patterns
    // (every exponent, subnormals and NaN payloads included).
    Rng rng(0xf19edu);
    for (unsigned i = 0; i < 20000; ++i) {
        values.push_back(rng.uniform() * 100.0);
        values.push_back(static_cast<double>(rng.below(1000000)) /
                         static_cast<double>(1 + rng.below(100000)));
        values.push_back(std::bit_cast<double>(rng.next()));
    }
    for (const double v : values)
        for (const int precision : {4, 6})
            ASSERT_EQ(fixed(v, precision), printfFixed(v, precision))
                << "precision " << precision << ", bits 0x" << std::hex
                << std::bit_cast<std::uint64_t>(v);
}

TEST(StatDump, RendersAlignedLinesInEntryOrder)
{
    StatDump dump;
    dump.note("benchmark", "gzip");
    dump.scalar("cycles", std::uint64_t{18446744073709551615u});
    dump.scalar("ipc", 1.03125);
    dump.scalar("a.much.longer.stat.name", -0.0);
    dump.note("empty", "");
    EXPECT_EQ(dump.render(),
              "benchmark                gzip\n"
              "cycles                   18446744073709551615\n"
              "ipc                      1.0312\n"
              "a.much.longer.stat.name  -0.0000\n"
              "empty                    \n");
    EXPECT_EQ(StatDump().render(), "");
}

// ---------------------------------------------------------------------
// IntervalRecorder
// ---------------------------------------------------------------------

TEST(IntervalRecorderDeathTest, RejectsZeroInterval)
{
    EXPECT_DEATH(IntervalRecorder(0), "positive interval");
}

TEST(IntervalRecorder, ParseIntervalCyclesAcceptsPositiveCounts)
{
    EXPECT_EQ(parseIntervalCycles("1"), 1u);
    EXPECT_EQ(parseIntervalCycles("10000"), 10000u);
    EXPECT_EQ(parseIntervalCycles("1000000000000"),
              1'000'000'000'000u);
}

TEST(IntervalRecorder, ParseIntervalCyclesRejectsBadInput)
{
    // The --interval contract: zero, negatives, junk, trailing junk,
    // and absurd periods all fail with a usable message.
    EXPECT_THROW(parseIntervalCycles("0"), std::invalid_argument);
    EXPECT_THROW(parseIntervalCycles("-5"), std::invalid_argument);
    EXPECT_THROW(parseIntervalCycles(""), std::invalid_argument);
    EXPECT_THROW(parseIntervalCycles("cycles"), std::invalid_argument);
    EXPECT_THROW(parseIntervalCycles("100x"), std::invalid_argument);
    EXPECT_THROW(parseIntervalCycles("10.5"), std::invalid_argument);
    EXPECT_THROW(parseIntervalCycles("1000000000001"),
                 std::invalid_argument);
    try {
        parseIntervalCycles("-5");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("positive cycle count"),
                  std::string::npos);
    }
}

TEST(IntervalRecorder, TrailingPartialIntervalIsFlushed)
{
    // A run whose length is not a multiple of the period still records
    // its tail: the end-of-run sample() lands one final partial row.
    double retired = 0.0;
    IntervalRecorder rec(100);
    rec.addRate("ipc", [&] { return retired; });
    retired = 120.0;
    rec.sample(100);
    retired = 150.0;
    rec.sample(230);          // end of run, 30 cycles into interval 3
    const std::string csv = rec.toCsv();
    EXPECT_EQ(rec.rows(), 2u);
    EXPECT_NE(csv.find("\n230,"), std::string::npos) << csv;
}

TEST(IntervalRecorder, GaugeRateAndRatioMaths)
{
    double instructions = 0.0;
    double hits = 0.0;
    double lookups = 0.0;
    double occupancy = 0.0;
    IntervalRecorder rec(100);
    rec.addRate("ipc", [&] { return instructions; });
    rec.addRatio("hit_rate", [&] { return hits; }, [&] { return lookups; });
    rec.addGauge("occupancy", [&] { return occupancy; });

    instructions = 150;
    hits = 30;
    lookups = 40;
    occupancy = 7;
    rec.sample(100);

    instructions = 250;   // +100 over 100 cycles -> rate 1.0
    hits = 30;            // flat ratio -> 0
    lookups = 40;
    occupancy = 3;
    rec.sample(200);

    ASSERT_EQ(rec.rows(), 2u);
    const std::string csv = rec.toCsv();
    EXPECT_EQ(csv.rfind("cycle,ipc,hit_rate,occupancy\n", 0), 0u);
    EXPECT_NE(csv.find("\n100,1.500000,0.750000,7.000000\n"),
              std::string::npos);
    EXPECT_NE(csv.find("\n200,1.000000,0.000000,3.000000\n"),
              std::string::npos);
}

TEST(IntervalRecorder, DueEveryNCycles)
{
    IntervalRecorder rec(250);
    EXPECT_FALSE(rec.due(1));
    EXPECT_FALSE(rec.due(249));
    EXPECT_TRUE(rec.due(250));
    EXPECT_TRUE(rec.due(500));
    EXPECT_FALSE(rec.due(501));
}

TEST(IntervalRecorder, TrailingSampleNeverDoubleCounts)
{
    // End-of-run flushing re-samples the final cycle; when the run
    // length is an exact multiple of the interval that cycle was
    // already recorded and the duplicate must be dropped.
    double v = 0.0;
    IntervalRecorder rec(10);
    rec.addGauge("v", [&] { return v; });
    v = 1;
    rec.sample(10);
    v = 2;
    rec.sample(20);
    rec.sample(20);   // duplicate trailing sample
    EXPECT_EQ(rec.rows(), 2u);
    rec.sample(23);   // genuine trailing partial interval
    EXPECT_EQ(rec.rows(), 3u);
}

TEST(IntervalRecorder, JsonShape)
{
    double v = 0.0;
    IntervalRecorder rec(50);
    rec.addGauge("v", [&] { return v; });
    v = 4;
    rec.sample(50);
    const std::string json = rec.toJson();
    EXPECT_NE(json.find("\"interval\": 50"), std::string::npos);
    EXPECT_NE(json.find("\"columns\": [\"cycle\", \"v\"]"),
              std::string::npos);
    EXPECT_NE(json.find("[50, 4.000000]"), std::string::npos);
}

TEST(IntervalRecorder, WriteFileRejectsUnwritablePath)
{
    IntervalRecorder rec(10);
    rec.addGauge("v", [] { return 0.0; });
    rec.sample(10);
    EXPECT_THROW(rec.writeFile("/no-such-dir-ctcp/out.csv"),
                 std::runtime_error);
}

} // namespace
} // namespace ctcp
