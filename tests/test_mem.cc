/**
 * @file
 * Unit tests for the memory hierarchy: cache tag behaviour, MSHRs,
 * port scheduling, and the end-to-end data-memory latency model.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "backlog_port_schedule.hh"
#include "common/random.hh"
#include "config/sim_config.hh"
#include "eager_cache_reference.hh"
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

TEST(Cache, LazySetsMatchTheEagerCacheOnSeededStreams)
{
    // Addresses crowd a few sets (evictions, invalid ways at every
    // index) or spread over all of them; resets come rarely, so sets
    // are rebuilt after one.
    const std::pair<unsigned, unsigned> geometries[] = {
        {1, 1}, {1, 2}, {16, 2}, {256, 4}, {8192, 4}};
    for (const auto &[sets, assoc] : geometries) {
        SetAssocCache lazy(sets, assoc, 32);
        test::EagerSetAssocCache eager(sets, assoc, 32);
        Rng rng(0xcac4e0u + sets * 8 + assoc);
        const Addr span = static_cast<Addr>(sets) * 32 * (assoc + 2);
        for (unsigned op = 0; op < 200000; ++op) {
            const Addr addr = rng.chance(1, 2)
                ? rng.below(span)
                : rng.below(std::min<Addr>(span, 32 * 8 * (assoc + 2)));
            const unsigned kind = static_cast<unsigned>(rng.below(1000));
            if (kind < 600) {
                ASSERT_EQ(lazy.access(addr), eager.access(addr))
                    << sets << "x" << assoc << " op " << op;
            } else if (kind < 750) {
                ASSERT_EQ(lazy.access(addr, false), eager.access(addr, false))
                    << sets << "x" << assoc << " op " << op;
            } else if (kind < 900) {
                ASSERT_EQ(lazy.probe(addr), eager.probe(addr))
                    << sets << "x" << assoc << " op " << op;
            } else if (kind < 999) {
                lazy.invalidate(addr);
                eager.invalidate(addr);
            } else {
                lazy.reset();
                eager.reset();
            }
        }
        EXPECT_EQ(lazy.hits(), eager.hits()) << sets << "x" << assoc;
        EXPECT_EQ(lazy.misses(), eager.misses()) << sets << "x" << assoc;
        EXPECT_GT(lazy.hits(), 0u);
    }
}

TEST(Cache, OnlyAccessesInitialiseASet)
{
    SetAssocCache c(8192, 4, 64);   // the Table 7 L2
    EXPECT_EQ(c.touchedSets(), 0u);
    Rng rng(0x5e75u);
    std::set<unsigned> accessed;
    for (unsigned i = 0; i < 5000; ++i) {
        const Addr addr = rng.below(Addr{1} << 26);
        const unsigned set = static_cast<unsigned>(c.lineAddr(addr) & 8191);
        switch (rng.below(4)) {
          case 0:
            c.access(addr);
            accessed.insert(set);
            break;
          case 1:
            c.access(addr, false);
            accessed.insert(set);
            break;
          case 2:
            c.probe(addr);
            break;
          default:
            c.invalidate(addr);
            break;
        }
        ASSERT_EQ(c.touchedSets(), accessed.size()) << "op " << i;
    }
    EXPECT_LT(c.touchedSets(), 8192u);
    c.reset();
    EXPECT_EQ(c.touchedSets(), 0u);
    EXPECT_FALSE(c.probe(0));
    EXPECT_EQ(c.touchedSets(), 0u);
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
    EXPECT_EQ(ports.reserve(10, 10), 10u);
    EXPECT_EQ(ports.reserve(10, 10), 10u);
    EXPECT_EQ(ports.reserve(10, 10), 11u);   // third access spills
    EXPECT_EQ(ports.reserve(11, 11), 11u);
    EXPECT_EQ(ports.reserve(11, 11), 12u);
    EXPECT_EQ(ports.reserve(20, 20), 20u);   // the backlog has drained
}

TEST(PortSchedule, MatchesTheOldScheduleOnInOrderStreams)
{
    // In cycle order the old backlog loop forgets no live booking, so
    // the ring must return the cycles it returns. Bursts of 1-6
    // requests at one cycle, then a gap of 0-300 cycles, mostly short
    // so that the backlog of full cycles builds up.
    for (unsigned ports : {1u, 2u, 4u, 1u << 20}) {
        Rng rng(0xb0500u + ports);
        PortSchedule ring(ports);
        test::BacklogPortSchedule old(ports);
        Cycle now = 0;
        unsigned bookings = 0;
        while (bookings < 100000) {
            const unsigned burst =
                1 + static_cast<unsigned>(rng.below(6));
            for (unsigned i = 0; i < burst; ++i, ++bookings)
                ASSERT_EQ(ring.reserve(now, now), old.reserve(now))
                    << "ports " << ports << ", booking " << bookings
                    << " at cycle " << now;
            now += rng.chance(3, 4) ? rng.below(3) : rng.below(301);
        }
    }
}

/** Keeps every booking it ever made: the out-of-order reference. */
class NeverForgettingSchedule
{
  public:
    explicit NeverForgettingSchedule(unsigned ports) : ports_(ports) {}

    Cycle
    reserve(Cycle at)
    {
        Cycle slot = at;
        for (auto it = booked_.lower_bound(at);
             it != booked_.end() && it->first == slot &&
             it->second == ports_;
             ++it)
            ++slot;
        ++booked_[slot];
        return slot;
    }

  private:
    unsigned ports_;
    std::map<Cycle, unsigned> booked_;
};

TEST(PortSchedule, MatchesANeverForgettingScheduleOutOfOrder)
{
    // Streams shaped like the data cache's: a request asks for cycle
    // + 1..3, or one in eight for cycle + 30..32 (a D-TLB miss),
    // before the requests behind it ask for nearer cycles. Bursts of
    // 1..2 x ports every 1..3 cycles keep the offered load below
    // capacity, which keeps the map's search short.
    for (unsigned ports : {1u, 2u, 4u}) {
        Rng rng(0x0d0c0u + ports);
        PortSchedule ring(ports);
        NeverForgettingSchedule reference(ports);
        Cycle cycle = 0;
        unsigned bookings = 0;
        while (bookings < 100000) {
            const unsigned burst =
                1 + static_cast<unsigned>(rng.below(2 * ports));
            for (unsigned i = 0; i < burst; ++i, ++bookings) {
                const Cycle at = cycle +
                    (rng.chance(1, 8) ? 30 + rng.below(3)
                                      : 1 + rng.below(3));
                ASSERT_EQ(ring.reserve(cycle, at), reference.reserve(at))
                    << "ports " << ports << ", booking " << bookings
                    << " for cycle " << at << " at cycle " << cycle;
            }
            cycle += 1 + rng.below(3);
        }
    }
}

TEST(PortSchedule, OlderRequestTripsTheOrderAssertion)
{
    PortSchedule ports(2);
    ports.reserve(10, 12);
    EXPECT_DEATH(ports.reserve(9, 12), "port request");   // older cycle
    EXPECT_DEATH(ports.reserve(10, 9), "port request");   // before it
}

class DmemTest : public ::testing::Test
{
  protected:
    MemConfig cfg_;   // Table 7 defaults
    DataMemorySystem dmem_{cfg_};
};

TEST_F(DmemTest, ColdLoadMissesToMemory)
{
    auto r = dmem_.load(0x4000, 100, 100);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_FALSE(r.l2Hit);
    EXPECT_FALSE(r.tlbHit);
    // TLB miss (30) + L1 (2) + L2 (8) + memory (65).
    EXPECT_EQ(r.ready, 100u + 30 + 2 + 8 + 65);
}

TEST_F(DmemTest, WarmLoadHitsL1)
{
    dmem_.load(0x4000, 100, 100);
    auto r = dmem_.load(0x4000, 300, 300);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_TRUE(r.tlbHit);
    EXPECT_EQ(r.ready, 300u + 1 + 2);   // TLB hit 1 + L1 2
}

TEST_F(DmemTest, SecondaryMissMerges)
{
    auto first = dmem_.load(0x8000, 100, 100);
    auto second = dmem_.load(0x8008, 101, 101);   // same 32-byte line
    // The tag is resident (allocate-on-miss) but the data arrives with
    // the outstanding fill: the second access completes no earlier.
    EXPECT_EQ(second.ready, first.ready);
    EXPECT_GE(dmem_.l1d().hits() + dmem_.l1d().misses(), 2u);
}

TEST_F(DmemTest, StoreToLoadForwarding)
{
    ASSERT_TRUE(dmem_.store(0x5000, 100));
    auto r = dmem_.load(0x5000, 101, 101);
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
        dmem_.load(0x100000 + i * 4096, 1, 1);
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
        auto r = dmem_.load(0x200000 + i * 4096, 10, 10);
        worst_within_limit = std::max(worst_within_limit, r.ready);
    }
    auto r = dmem_.load(0x800000, 10, 10);
    EXPECT_GT(r.ready, worst_within_limit);
}

TEST(DataMemory, NeverBooksMoreThanItsPortsInOneCycle)
{
    MemConfig cfg;   // Table 7: 4 ports, D-TLB 1/30 cycles, L1 hit 2
    ASSERT_EQ(cfg.cachePorts, 4u);
    DataMemorySystem dmem(cfg);
    const Addr page_a = 0x40000;
    dmem.load(page_a, 100, 100);   // warms page A's TLB entry and line
    // Four loads at cycle 1000 take cycle 1001's four ports.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(dmem.load(page_a, 1000, 1000).ready, 1003u) << i;
    // A D-TLB miss books cycle 1030 before the next load asks for 1001.
    const auto cold = dmem.load(0x900000, 1000, 1000);
    EXPECT_FALSE(cold.tlbHit);
    EXPECT_EQ(cold.ready, 1030u + 2 + 8 + 65);
    // Cycle 1001 is still full: a fifth load waits for cycle 1002.
    EXPECT_EQ(dmem.load(page_a, 1000, 1000).ready, 1004u);
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
    dmem.load(0x8000, 1, 1);
    SetAssocCache &l2 = dmem.sharedL2();
    EXPECT_TRUE(l2.probe(0x8000));
    const unsigned warm = imem.fetchPenalty(0x8000);
    EXPECT_EQ(warm, mc.l2ExtraLatency);
}

} // namespace
} // namespace ctcp
