/**
 * @file
 * Unit tests for the memory hierarchy: cache tag behaviour, MSHRs,
 * port scheduling, and the end-to-end data-memory latency model.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "config/sim_config.hh"
#include "mem/cache.hh"
#include "mem/dmem.hh"
#include "mem/mshr.hh"

namespace ctcp {
namespace {

TEST(Cache, HitAfterFill)
{
    SetAssocCache c(16, 2, 32);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x101f));   // same 32-byte line
    EXPECT_FALSE(c.access(0x1020));  // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    SetAssocCache c(1, 2, 32);   // one set, two ways
    c.access(0x000);
    c.access(0x100);
    EXPECT_TRUE(c.access(0x000));    // refresh LRU order
    c.access(0x200);                 // evicts 0x100
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_TRUE(c.probe(0x200));
}

TEST(Cache, ProbeDoesNotAllocate)
{
    SetAssocCache c(16, 2, 32);
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.access(0x40));   // still a miss (probe changed nothing)
}

TEST(Cache, AccessWithoutAllocate)
{
    SetAssocCache c(16, 2, 32);
    EXPECT_FALSE(c.access(0x40, false));
    EXPECT_FALSE(c.access(0x40));
    EXPECT_TRUE(c.access(0x40));
}

TEST(Cache, Invalidate)
{
    SetAssocCache c(16, 2, 32);
    c.access(0x80);
    c.invalidate(0x80);
    EXPECT_FALSE(c.probe(0x80));
}

TEST(Cache, SetsAreIndependent)
{
    SetAssocCache c(4, 1, 32);
    // Addresses mapping to different sets never conflict.
    c.access(0x00);
    c.access(0x20);
    c.access(0x40);
    c.access(0x60);
    EXPECT_TRUE(c.probe(0x00));
    EXPECT_TRUE(c.probe(0x60));
}

TEST(Mshr, MergeAndExpire)
{
    MshrFile m(2);
    m.allocate(0x10, 100);
    EXPECT_EQ(m.outstanding(0x10), 100u);
    EXPECT_EQ(m.outstanding(0x11), neverCycle);
    m.allocate(0x20, 50);
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.earliestReady(), 50u);
    m.expire(50);
    EXPECT_FALSE(m.full());
    EXPECT_EQ(m.outstanding(0x20), neverCycle);
    EXPECT_EQ(m.outstanding(0x10), 100u);
}

TEST(PortSchedule, SerializesBeyondWidth)
{
    PortSchedule ports(2);
    EXPECT_EQ(ports.reserve(10), 10u);
    EXPECT_EQ(ports.reserve(10), 10u);
    EXPECT_EQ(ports.reserve(10), 11u);   // third access spills
    EXPECT_EQ(ports.reserve(11), 11u);
    EXPECT_EQ(ports.reserve(11), 12u);
}

TEST(InOrderPortSchedule, SerializesBeyondWidth)
{
    InOrderPortSchedule ports(2);
    EXPECT_EQ(ports.reserve(10), 10u);
    EXPECT_EQ(ports.reserve(10), 10u);
    EXPECT_EQ(ports.reserve(10), 11u);   // third access spills
    EXPECT_EQ(ports.reserve(11), 11u);
    EXPECT_EQ(ports.reserve(11), 12u);
    EXPECT_EQ(ports.reserve(20), 20u);   // the backlog has drained
}

TEST(InOrderPortSchedule, MatchesPortScheduleOnSeededInOrderStreams)
{
    // PortSchedule searches its backlog for every candidate cycle; on
    // in-order requests the O(1) booking must return the same cycles.
    // Bursts of 1-6 requests at one cycle, then a gap of 0-300 cycles,
    // mostly short so that the backlog of full cycles builds up.
    for (unsigned ports : {1u, 2u, 4u, 1u << 20}) {
        Rng rng(0xb0500u + ports);
        InOrderPortSchedule fast(ports);
        PortSchedule slow(ports);
        Cycle now = 0;
        unsigned bookings = 0;
        while (bookings < 100000) {
            const unsigned burst =
                1 + static_cast<unsigned>(rng.below(6));
            for (unsigned i = 0; i < burst; ++i, ++bookings)
                ASSERT_EQ(fast.reserve(now), slow.reserve(now))
                    << "ports " << ports << ", booking " << bookings
                    << " at cycle " << now;
            now += rng.chance(3, 4) ? rng.below(3) : rng.below(301);
        }
    }
}

TEST(InOrderPortSchedule, OlderRequestTripsTheOrderAssertion)
{
    InOrderPortSchedule ports(2);
    ports.reserve(10);
    EXPECT_DEATH(ports.reserve(9), "out-of-order port request");
}

class DmemTest : public ::testing::Test
{
  protected:
    MemConfig cfg_;   // Table 7 defaults
    DataMemorySystem dmem_{cfg_};
};

TEST_F(DmemTest, ColdLoadMissesToMemory)
{
    auto r = dmem_.load(0x4000, 100);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_FALSE(r.l2Hit);
    EXPECT_FALSE(r.tlbHit);
    // TLB miss (30) + L1 (2) + L2 (8) + memory (65).
    EXPECT_EQ(r.ready, 100u + 30 + 2 + 8 + 65);
}

TEST_F(DmemTest, WarmLoadHitsL1)
{
    dmem_.load(0x4000, 100);
    auto r = dmem_.load(0x4000, 300);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_TRUE(r.tlbHit);
    EXPECT_EQ(r.ready, 300u + 1 + 2);   // TLB hit 1 + L1 2
}

TEST_F(DmemTest, SecondaryMissMerges)
{
    auto first = dmem_.load(0x8000, 100);
    auto second = dmem_.load(0x8008, 101);   // same 32-byte line
    // The tag is resident (allocate-on-miss) but the data arrives with
    // the outstanding fill: the second access completes no earlier.
    EXPECT_EQ(second.ready, first.ready);
    EXPECT_GE(dmem_.l1d().hits() + dmem_.l1d().misses(), 2u);
}

TEST_F(DmemTest, StoreToLoadForwarding)
{
    ASSERT_TRUE(dmem_.store(0x5000, 100));
    auto r = dmem_.load(0x5000, 101);
    EXPECT_TRUE(r.forwarded);
    EXPECT_EQ(dmem_.forwards(), 1u);
}

TEST_F(DmemTest, StoreBufferCapacity)
{
    // Fill the store buffer with slow-draining cold-miss stores.
    unsigned accepted = 0;
    for (unsigned i = 0; i < cfg_.storeBufferEntries + 8; ++i) {
        if (dmem_.store(0x9000 + i * 4096, 1))
            ++accepted;
    }
    EXPECT_EQ(accepted, cfg_.storeBufferEntries);
    EXPECT_TRUE(dmem_.storeBufferFull(1));
}

TEST_F(DmemTest, LoadQueueTracksInFlight)
{
    // Issue loads to distinct cold lines; entries stay until data
    // returns, so the queue eventually fills.
    unsigned issued = 0;
    for (unsigned i = 0; i < cfg_.loadQueueEntries; ++i) {
        EXPECT_FALSE(dmem_.loadQueueFull(1));
        dmem_.load(0x100000 + i * 4096, 1);
        ++issued;
    }
    EXPECT_TRUE(dmem_.loadQueueFull(1));
    // After everything completes the queue drains.
    EXPECT_FALSE(dmem_.loadQueueFull(1000000));
}

TEST_F(DmemTest, MshrLimitDelaysExtraMisses)
{
    // Issue more distinct-line misses at the same cycle than MSHRs.
    Cycle worst_within_limit = 0;
    for (unsigned i = 0; i < cfg_.mshrs; ++i) {
        auto r = dmem_.load(0x200000 + i * 4096, 10);
        worst_within_limit = std::max(worst_within_limit, r.ready);
    }
    auto r = dmem_.load(0x800000, 10);
    EXPECT_GT(r.ready, worst_within_limit);
}

TEST(InstMemory, MissThenHit)
{
    FrontEndConfig fe;
    MemConfig mc;
    DataMemorySystem dmem(mc);
    InstMemory imem(fe, dmem);
    EXPECT_GT(imem.fetchPenalty(0x40), 0u);
    EXPECT_EQ(imem.fetchPenalty(0x40), 0u);
}

TEST(InstMemory, SharesL2WithDataSide)
{
    FrontEndConfig fe;
    MemConfig mc;
    DataMemorySystem dmem(mc);
    InstMemory imem(fe, dmem);
    // First touch goes through the shared L2: L2 miss -> big penalty.
    const unsigned cold = imem.fetchPenalty(0x4000);
    EXPECT_EQ(cold, mc.l2ExtraLatency + mc.memLatency);
    imem.l1i();   // silence unused warnings in some configs
    // Evicting nothing, a different line in the same L2 set region:
    // after the data side touches the line, the I-side miss hits L2.
    dmem.load(0x8000, 1);
    SetAssocCache &l2 = dmem.sharedL2();
    EXPECT_TRUE(l2.probe(0x8000));
    const unsigned warm = imem.fetchPenalty(0x8000);
    EXPECT_EQ(warm, mc.l2ExtraLatency);
}

} // namespace
} // namespace ctcp
