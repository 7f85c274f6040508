/**
 * @file
 * Unit tests for the cluster-assignment policies: base identity,
 * Friendly slot-centric reordering, FDRT options A-E, chain
 * leader/follower mechanics, pinning, and issue-time steering.
 */

#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "assign/base_assignment.hh"
#include "common/random.hh"
#include "assign/fdrt_assignment.hh"
#include "assign/friendly_assignment.hh"
#include "assign/issue_time_steering.hh"
#include "placement_reference.hh"
#include "tracecache/trace_cache.hh"

namespace ctcp {
namespace {

/** Draft with @p n independent single-source instructions. */
TraceDraft
makeDraft(std::size_t n)
{
    TraceDraft d;
    d.numClusters = 4;
    d.slotsPerCluster = 4;
    for (std::size_t i = 0; i < n; ++i) {
        DraftInst di;
        di.pc = 100 + i;
        di.dst = invalidReg;
        di.src1 = invalidReg;
        di.src2 = invalidReg;
        di.intraProducer = -1;
        d.insts.push_back(di);
    }
    return d;
}

/** Mark @p consumer as critically dependent on draft index @p producer. */
void
link(TraceDraft &d, std::size_t producer, std::size_t consumer, RegId reg)
{
    d.insts[producer].dst = reg;
    d.insts[producer].writesDst = true;
    d.insts[producer].hasIntraConsumer = true;
    d.insts[consumer].src1 = reg;
    d.insts[consumer].criticalSrc = 1;
    d.insts[consumer].criticalForwarded = true;
    d.insts[consumer].intraProducer = static_cast<int>(producer);
}

void
expectValidPermutation(const TraceDraft &d)
{
    std::vector<bool> taken(d.totalSlots(), false);
    for (const DraftInst &inst : d.insts) {
        ASSERT_GE(inst.physSlot, 0);
        ASSERT_LT(inst.physSlot, static_cast<int>(d.totalSlots()));
        EXPECT_FALSE(taken[static_cast<std::size_t>(inst.physSlot)])
            << "slot " << inst.physSlot << " assigned twice";
        taken[static_cast<std::size_t>(inst.physSlot)] = true;
    }
}

ClusterId
clusterOf(const TraceDraft &d, std::size_t i)
{
    return d.clusterOfSlot(d.insts[i].physSlot);
}

TEST(BaseAssignment, IdentityOrder)
{
    BaseSlotOrderAssignment base;
    TraceDraft d = makeDraft(7);
    base.assign(d);
    for (std::size_t i = 0; i < 7; ++i)
        EXPECT_EQ(d.insts[i].physSlot, static_cast<int>(i));
}

TEST(FriendlyAssignment, CoLocatesDependents)
{
    ClusterConfig cc;
    Interconnect ic(cc);
    FriendlyAssignment friendly(ic, false);

    TraceDraft d = makeDraft(8);
    link(d, 0, 4, intReg(1));
    link(d, 1, 5, intReg(2));
    friendly.assign(d);
    expectValidPermutation(d);
    EXPECT_EQ(clusterOf(d, 0), clusterOf(d, 4));
    EXPECT_EQ(clusterOf(d, 1), clusterOf(d, 5));
}

TEST(FriendlyAssignment, MiddleBiasFillsCentreFirst)
{
    ClusterConfig cc;
    Interconnect ic(cc);
    FriendlyAssignment friendly(ic, true);
    TraceDraft d = makeDraft(4);
    friendly.assign(d);
    expectValidPermutation(d);
    // Four independent instructions all land in the two middle
    // clusters under the bias.
    for (std::size_t i = 0; i < 4; ++i) {
        const ClusterId c = clusterOf(d, i);
        EXPECT_TRUE(c == 1 || c == 2) << "cluster " << int(c);
    }
}

TEST(FriendlyAssignment, EveryInstructionPlacedOnFullTrace)
{
    ClusterConfig cc;
    Interconnect ic(cc);
    FriendlyAssignment friendly(ic, false);
    TraceDraft d = makeDraft(16);
    for (std::size_t i = 1; i < 16; ++i)
        link(d, i - 1, i, static_cast<RegId>(1 + (i % 20)));
    friendly.assign(d);
    expectValidPermutation(d);
}

class FdrtTest : public ::testing::Test
{
  protected:
    ClusterConfig cc_;
    Interconnect ic_{cc_};
    FdrtAssignment fdrt_{ic_, true};
};

TEST_F(FdrtTest, OptionAPlacesWithProducer)
{
    TraceDraft d = makeDraft(8);
    link(d, 0, 4, intReg(1));
    fdrt_.assign(d);
    expectValidPermutation(d);
    EXPECT_EQ(clusterOf(d, 0), clusterOf(d, 4));
    EXPECT_EQ(d.insts[4].fdrtOption, 'A');
}

TEST_F(FdrtTest, ParallelChainsGetDisjointClusters)
{
    // Four independent 4-deep chains must spread one per cluster.
    TraceDraft d = makeDraft(16);
    for (int k = 0; k < 4; ++k)
        for (int j = 0; j < 3; ++j)
            link(d, static_cast<std::size_t>(k + 4 * j),
                 static_cast<std::size_t>(k + 4 * (j + 1)),
                 static_cast<RegId>(10 + k));
    fdrt_.assign(d);
    expectValidPermutation(d);
    for (int k = 0; k < 4; ++k) {
        const ClusterId head = clusterOf(d, static_cast<std::size_t>(k));
        for (int j = 1; j < 4; ++j)
            EXPECT_EQ(clusterOf(d, static_cast<std::size_t>(k + 4 * j)),
                      head) << "chain " << k << " link " << j;
    }
    // All four clusters used.
    std::set<ClusterId> used;
    for (int k = 0; k < 4; ++k)
        used.insert(clusterOf(d, static_cast<std::size_t>(k)));
    EXPECT_EQ(used.size(), 4u);
}

TEST_F(FdrtTest, OptionBFollowsChainCluster)
{
    TraceDraft d = makeDraft(4);
    d.insts[2].carriedProfile = {};   // fluid membership: derive fresh
    d.insts[2].criticalForwarded = true;
    d.insts[2].criticalInterTrace = true;
    d.insts[2].criticalSrc = 1;
    d.insts[2].src1 = intReg(9);
    d.insts[2].criticalProducerProfile.role = ChainRole::Leader;
    d.insts[2].criticalProducerProfile.chainCluster = 3;
    fdrt_.assign(d);
    expectValidPermutation(d);
    EXPECT_EQ(d.insts[2].fdrtOption, 'B');
    EXPECT_EQ(clusterOf(d, 2), 3);
    EXPECT_EQ(d.insts[2].newProfile.role, ChainRole::Follower);
    EXPECT_EQ(d.insts[2].newProfile.chainCluster, 3);
}

TEST_F(FdrtTest, OptionDUsesMiddleClusters)
{
    TraceDraft d = makeDraft(2);
    link(d, 0, 1, intReg(1));
    d.insts[1].criticalForwarded = false;   // producer only matters
    d.insts[1].criticalSrc = 0;
    d.insts[1].intraProducer = -1;
    fdrt_.assign(d);
    EXPECT_EQ(d.insts[0].fdrtOption, 'D');
    const ClusterId c = clusterOf(d, 0);
    EXPECT_TRUE(c == 1 || c == 2);
}

TEST_F(FdrtTest, OptionEDeferredToSecondPass)
{
    TraceDraft d = makeDraft(3);
    fdrt_.assign(d);
    expectValidPermutation(d);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(d.insts[i].fdrtOption, 'E');
    EXPECT_EQ(fdrt_.optionStats().optionE, 3u);
}

TEST_F(FdrtTest, LeaderPromotionViaFeedback)
{
    TraceCacheConfig tcc;
    tcc.entries = 8;
    tcc.assoc = 2;
    TraceCache tc(tcc);

    OwnedTimedInst consumer;
    consumer.cold().criticalForwarded = true;
    consumer.cold().criticalInterTrace = true;
    consumer.cold().criticalProducerPc = 500;
    consumer.cold().criticalProducerCluster = 2;
    consumer.cold().criticalProducerTraceKey = 0;
    fdrt_.noteCriticalForward(consumer, tc);
    EXPECT_EQ(fdrt_.promotions(), 1u);
    EXPECT_EQ(fdrt_.pinCount(), 1u);

    // The producer's next construction sees the promotion.
    TraceDraft d = makeDraft(1);
    d.insts[0].pc = 500;
    fdrt_.assign(d);
    EXPECT_EQ(d.insts[0].newProfile.role, ChainRole::Leader);
    EXPECT_NE(d.insts[0].newProfile.chainCluster, invalidCluster);
}

TEST_F(FdrtTest, PinningFixesLeaderCluster)
{
    TraceCacheConfig tcc;
    tcc.entries = 8;
    tcc.assoc = 2;
    TraceCache tc(tcc);

    OwnedTimedInst consumer;
    consumer.cold().criticalForwarded = true;
    consumer.cold().criticalInterTrace = true;
    consumer.cold().criticalProducerPc = 500;
    consumer.cold().criticalProducerCluster = 2;
    fdrt_.noteCriticalForward(consumer, tc);

    TraceDraft d1 = makeDraft(1);
    d1.insts[0].pc = 500;
    fdrt_.assign(d1);
    const ClusterId first = d1.insts[0].newProfile.chainCluster;

    // Re-promote from a different cluster: the pin must not move.
    consumer.cold().criticalProducerCluster = 0;
    fdrt_.noteCriticalForward(consumer, tc);
    TraceDraft d2 = makeDraft(1);
    d2.insts[0].pc = 500;
    fdrt_.assign(d2);
    EXPECT_EQ(d2.insts[0].newProfile.chainCluster, first);
}

TEST(FdrtNoPinning, SuggestionTracksProducerCluster)
{
    ClusterConfig cc;
    Interconnect ic(cc);
    FdrtAssignment fdrt(ic, false);
    TraceCacheConfig tcc;
    tcc.entries = 8;
    tcc.assoc = 2;
    TraceCache tc(tcc);

    OwnedTimedInst consumer;
    consumer.cold().criticalForwarded = true;
    consumer.cold().criticalInterTrace = true;
    consumer.cold().criticalProducerPc = 500;
    consumer.cold().criticalProducerCluster = 3;
    fdrt.noteCriticalForward(consumer, tc);

    TraceDraft d = makeDraft(1);
    d.insts[0].pc = 500;
    fdrt.assign(d);
    EXPECT_EQ(d.insts[0].newProfile.chainCluster, 3);
    EXPECT_EQ(fdrt.pinCount(), 0u);
}

/** A consumer whose critical input came inter-trace from @p producer_pc. */
OwnedTimedInst
forwardedFrom(Addr producer_pc, ClusterId producer_cluster)
{
    OwnedTimedInst consumer;
    consumer.cold().criticalForwarded = true;
    consumer.cold().criticalInterTrace = true;
    consumer.cold().criticalProducerPc = producer_pc;
    consumer.cold().criticalProducerCluster = producer_cluster;
    // Already a member: no resident-line refresh, only the buffer.
    consumer.cold().criticalProducerProfile.role = ChainRole::Leader;
    consumer.cold().criticalProducerProfile.chainCluster = producer_cluster;
    return consumer;
}

/** Role FDRT gives a lone instruction at @p pc on its next build. */
ChainRole
roleOnRebuild(FdrtAssignment &fdrt, Addr pc)
{
    TraceDraft d = makeDraft(1);
    d.insts[0].pc = pc;
    fdrt.assign(d);
    return d.insts[0].newProfile.role;
}

TEST_F(FdrtTest, PendingBufferClearsWhenFull)
{
    // The pending-promotion buffer holds 4096 producers; the promotion
    // after the 4096th distinct one clears every earlier entry before
    // recording itself.
    TraceCacheConfig tcc;
    TraceCache tc(tcc);
    {
        FdrtAssignment fdrt(ic_, true);
        for (Addr pc = 1000; pc < 1000 + 4096; ++pc)
            fdrt.noteCriticalForward(forwardedFrom(pc, 1), tc);
        fdrt.noteCriticalForward(forwardedFrom(9000, 1), tc);
        EXPECT_EQ(roleOnRebuild(fdrt, 1000), ChainRole::None);
        EXPECT_EQ(roleOnRebuild(fdrt, 1000 + 4095), ChainRole::None);
        EXPECT_EQ(roleOnRebuild(fdrt, 9000), ChainRole::Leader);
    }
    {
        // Promoting a PC that is already pending takes no second entry.
        FdrtAssignment fdrt(ic_, true);
        for (Addr pc = 1000; pc < 1000 + 4095; ++pc) {
            fdrt.noteCriticalForward(forwardedFrom(pc, 1), tc);
            fdrt.noteCriticalForward(forwardedFrom(pc, 2), tc);
        }
        fdrt.noteCriticalForward(forwardedFrom(9000, 1), tc);   // 4096th
        EXPECT_EQ(roleOnRebuild(fdrt, 1000), ChainRole::Leader);
        EXPECT_EQ(roleOnRebuild(fdrt, 9000), ChainRole::Leader);
    }

    for (Addr pc = 1000; pc < 1000 + 4096; ++pc)
        fdrt_.noteCriticalForward(forwardedFrom(pc, 1), tc);
    // A rebuild consumes its entry, so 4095 remain and the next
    // promotion fits without clearing anything.
    EXPECT_EQ(roleOnRebuild(fdrt_, 1000), ChainRole::Leader);
    fdrt_.noteCriticalForward(forwardedFrom(9000, 1), tc);
    EXPECT_EQ(roleOnRebuild(fdrt_, 1001), ChainRole::Leader);
    fdrt_.noteCriticalForward(forwardedFrom(9001, 1), tc);
    // Full again: the next promotion, even of a PC already pending,
    // clears the buffer first.
    fdrt_.noteCriticalForward(forwardedFrom(1002, 1), tc);
    EXPECT_EQ(roleOnRebuild(fdrt_, 1003), ChainRole::None);
    EXPECT_EQ(roleOnRebuild(fdrt_, 9000), ChainRole::None);
    EXPECT_EQ(roleOnRebuild(fdrt_, 9001), ChainRole::None);
    EXPECT_EQ(roleOnRebuild(fdrt_, 1002), ChainRole::Leader);
    // A consumed entry does not come back.
    EXPECT_EQ(roleOnRebuild(fdrt_, 1002), ChainRole::None);
    EXPECT_EQ(fdrt_.promotions(), 4096u + 3u);
}

TEST_F(FdrtTest, PinCountCountsDistinctLeaders)
{
    TraceCacheConfig tcc;
    TraceCache tc(tcc);
    fdrt_.noteCriticalForward(forwardedFrom(500, 2), tc);
    fdrt_.noteCriticalForward(forwardedFrom(500, 0), tc);
    fdrt_.noteCriticalForward(forwardedFrom(600, 3), tc);
    EXPECT_EQ(fdrt_.pinCount(), 2u);
    // Consuming the pending promotions leaves the pins in place.
    EXPECT_EQ(roleOnRebuild(fdrt_, 500), ChainRole::Leader);
    EXPECT_EQ(roleOnRebuild(fdrt_, 600), ChainRole::Leader);
    EXPECT_EQ(fdrt_.pinCount(), 2u);
    // Pins survive a pending-buffer overflow, and each new PC is one
    // more pin.
    for (Addr pc = 1000; pc < 1000 + 4097; ++pc)
        fdrt_.noteCriticalForward(forwardedFrom(pc, 1), tc);
    EXPECT_EQ(fdrt_.pinCount(), 2u + 4097u);
    fdrt_.noteCriticalForward(forwardedFrom(500, 1), tc);
    EXPECT_EQ(fdrt_.pinCount(), 2u + 4097u);
}

TEST_F(FdrtTest, NonCriticalForwardsDoNotPromote)
{
    TraceCacheConfig tcc;
    tcc.entries = 8;
    tcc.assoc = 2;
    TraceCache tc(tcc);
    OwnedTimedInst consumer;
    consumer.cold().criticalForwarded = false;
    consumer.cold().criticalInterTrace = true;
    fdrt_.noteCriticalForward(consumer, tc);
    consumer.cold().criticalForwarded = true;
    consumer.cold().criticalInterTrace = false;
    fdrt_.noteCriticalForward(consumer, tc);
    EXPECT_EQ(fdrt_.promotions(), 0u);
}

// Property sweep: for any mix of chains and dependencies, assignment
// must yield a valid permutation with every instruction placed.
class FdrtPermutationSweep : public ::testing::TestWithParam<int>
{};

TEST_P(FdrtPermutationSweep, AlwaysValidPermutation)
{
    ClusterConfig cc;
    Interconnect ic(cc);
    FdrtAssignment fdrt(ic, true);
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);

    for (int round = 0; round < 50; ++round) {
        const std::size_t n = 1 + rng.below(16);
        TraceDraft d = makeDraft(n);
        for (std::size_t i = 1; i < n; ++i) {
            if (rng.chance(1, 2))
                link(d, rng.below(i), i,
                     static_cast<RegId>(1 + rng.below(25)));
            if (rng.chance(1, 4)) {
                d.insts[i].criticalInterTrace = true;
                d.insts[i].criticalForwarded = true;
                d.insts[i].criticalSrc = 1;
                d.insts[i].src1 = static_cast<RegId>(1 + rng.below(25));
                d.insts[i].intraProducer = -1;
                d.insts[i].criticalProducerProfile.role = ChainRole::Leader;
                d.insts[i].criticalProducerProfile.chainCluster =
                    static_cast<ClusterId>(rng.below(4));
            }
        }
        fdrt.assign(d);
        expectValidPermutation(d);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdrtPermutationSweep,
                         ::testing::Range(0, 8));

// Friendly must also always produce valid permutations.
class FriendlyPermutationSweep : public ::testing::TestWithParam<int>
{};

TEST_P(FriendlyPermutationSweep, AlwaysValidPermutation)
{
    ClusterConfig cc;
    Interconnect ic(cc);
    FriendlyAssignment friendly(ic, GetParam() % 2 == 1);
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);

    for (int round = 0; round < 50; ++round) {
        const std::size_t n = 1 + rng.below(16);
        TraceDraft d = makeDraft(n);
        for (std::size_t i = 1; i < n; ++i)
            if (rng.chance(2, 3))
                link(d, rng.below(i), i,
                     static_cast<RegId>(1 + rng.below(25)));
        friendly.assign(d);
        expectValidPermutation(d);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FriendlyPermutationSweep,
                         ::testing::Range(0, 8));

// ---------------------------------------------------------------------
// Bitmask placement against the quadratic reference
// ---------------------------------------------------------------------

/** The machine shapes the oracles sweep (clusters x slots per cluster). */
constexpr unsigned oracleShapes[][2] = {
    {1, 4}, {2, 4}, {4, 4}, {8, 4}, {8, 8}};

void
expectSamePlacement(const TraceDraft &fast, const TraceDraft &slow,
                    const char *what, int round)
{
    for (std::size_t i = 0; i < fast.insts.size(); ++i)
        ASSERT_EQ(fast.insts[i].physSlot, slow.insts[i].physSlot)
            << what << " " << fast.numClusters << "x"
            << fast.slotsPerCluster << " round " << round << " inst " << i;
}

TEST(FillSlotsOracle, MatchesQuadraticReference)
{
    // 10k seeded drafts per shape. Half are partly placed already, as
    // in FDRT's second pass, and visit the free slots per cluster in
    // order (FDRT's list) or shuffled, sometimes truncated.
    for (const auto &shape : oracleShapes) {
        Rng rng(0xf111u + shape[0] * 16 + shape[1]);
        const unsigned total = shape[0] * shape[1];
        for (int round = 0; round < 10000; ++round) {
            TraceDraft slow = test::randomDraft(rng, shape[0], shape[1]);
            test::referenceAnalyzeIntraTrace(slow);
            for (DraftInst &d : slow.insts)
                d.physSlot = -1;

            std::vector<bool> taken(total, false);
            if (rng.chance(1, 2)) {
                for (DraftInst &d : slow.insts) {
                    if (!rng.chance(1, 3))
                        continue;
                    const auto s = static_cast<std::size_t>(rng.below(total));
                    if (!taken[s]) {
                        taken[s] = true;
                        d.physSlot = static_cast<int>(s);
                    }
                }
            }
            std::vector<int> order;
            for (unsigned s = 0; s < total; ++s)
                if (!taken[s])
                    order.push_back(static_cast<int>(s));
            if (rng.chance(1, 2))
                for (std::size_t k = order.size(); k > 1; --k)
                    std::swap(order[k - 1], order[rng.below(k)]);
            if (rng.chance(1, 8))
                order.resize(rng.below(order.size() + 1));

            TraceDraft fast = slow;
            test::referenceFillSlots(slow, order);
            FriendlyAssignment::fillSlots(fast, order.data(), order.size());
            expectSamePlacement(fast, slow, "fillSlots", round);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(FillSlotsOracle, FriendlyMatchesReferenceInBothSlotOrders)
{
    for (const auto &shape : oracleShapes) {
        ClusterConfig cc;
        cc.numClusters = shape[0];
        cc.clusterWidth = shape[1];
        const Interconnect ic(cc);
        for (bool middle_bias : {false, true}) {
            FriendlyAssignment friendly(ic, middle_bias);
            // The reference slot order, built as the policy used to.
            std::vector<int> order;
            if (middle_bias) {
                for (ClusterId c : ic.byCentrality())
                    for (unsigned s = 0; s < shape[1]; ++s)
                        order.push_back(static_cast<int>(
                            static_cast<unsigned>(c) * shape[1] + s));
            } else {
                for (unsigned s = 0; s < shape[0] * shape[1]; ++s)
                    order.push_back(static_cast<int>(s));
            }

            Rng rng(0xfe11u + shape[0] * 16 + shape[1] + middle_bias);
            for (int round = 0; round < 10000; ++round) {
                TraceDraft slow = test::randomDraft(rng, shape[0], shape[1]);
                test::referenceAnalyzeIntraTrace(slow);
                TraceDraft fast = slow;
                for (DraftInst &d : slow.insts)
                    d.physSlot = -1;
                test::referenceFillSlots(slow, order);
                friendly.assign(fast);
                expectSamePlacement(fast, slow,
                                    middle_bias ? "friendly-mid"
                                                : "friendly",
                                    round);
                expectValidPermutation(fast);
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Issue-time steering
// ---------------------------------------------------------------------

TEST(IssueTimeSteering, PrefersInFlightProducerCluster)
{
    ClusterConfig cc;
    Interconnect ic(cc);
    std::vector<Cluster> clusters;
    for (unsigned c = 0; c < 4; ++c)
        clusters.emplace_back(static_cast<ClusterId>(c), cc);
    IssueTimeSteering steer(ic, 4);
    steer.newCycle(1);

    OwnedTimedInst producer;
    producer.dyn.seq = 1;
    producer.dyn.op = Opcode::Add;
    producer.cluster = 2;

    OwnedTimedInst consumer;
    consumer.dyn.seq = 2;
    consumer.dyn.op = Opcode::Add;
    consumer.ops[0].valid = true;
    consumer.ops[0].fromRF = false;
    consumer.ops[0].producerPtr = &producer;
    consumer.ops[0].producerSeq = 1;

    EXPECT_EQ(steer.pick(consumer, clusters), 2);
}

TEST(IssueTimeSteering, PerCycleCapRedirects)
{
    ClusterConfig cc;
    Interconnect ic(cc);
    std::vector<Cluster> clusters;
    for (unsigned c = 0; c < 4; ++c)
        clusters.emplace_back(static_cast<ClusterId>(c), cc);
    IssueTimeSteering steer(ic, 2);
    steer.newCycle(5);

    OwnedTimedInst free_inst;
    free_inst.dyn.op = Opcode::Add;
    // No producers: balance fallback spreads picks; with cap 2 per
    // cluster per cycle, exactly 8 picks succeed in one cycle.
    std::vector<unsigned> per_cluster(4, 0);
    for (int i = 0; i < 8; ++i) {
        const ClusterId c = steer.pick(free_inst, clusters);
        ASSERT_NE(c, invalidCluster);
        ++per_cluster[static_cast<std::size_t>(c)];
    }
    EXPECT_EQ(steer.pick(free_inst, clusters), invalidCluster);
    for (unsigned n : per_cluster)
        EXPECT_EQ(n, 2u);   // cap respected and load balanced
}

TEST(IssueTimeSteering, NewCycleResetsCaps)
{
    ClusterConfig cc;
    Interconnect ic(cc);
    std::vector<Cluster> clusters;
    for (unsigned c = 0; c < 4; ++c)
        clusters.emplace_back(static_cast<ClusterId>(c), cc);
    IssueTimeSteering steer(ic, 1);

    OwnedTimedInst inst;
    inst.dyn.op = Opcode::Add;
    steer.newCycle(1);
    for (int i = 0; i < 4; ++i)
        EXPECT_NE(steer.pick(inst, clusters), invalidCluster);
    EXPECT_EQ(steer.pick(inst, clusters), invalidCluster);   // all capped
    steer.newCycle(2);
    EXPECT_NE(steer.pick(inst, clusters), invalidCluster);
}

TEST(IssueTimeSteering, ExhaustedKindFailsWithoutProbing)
{
    ClusterConfig cc;
    Interconnect ic(cc);
    std::deque<OwnedTimedInst> residents;
    std::vector<Cluster> full;   // every memory station full
    std::vector<Cluster> empty;
    for (unsigned c = 0; c < 4; ++c) {
        full.emplace_back(static_cast<ClusterId>(c), cc);
        empty.emplace_back(static_cast<ClusterId>(c), cc);
        for (unsigned n = 0; n < cc.rsEntries; ++n) {
            residents.emplace_back();
            residents.back().dyn.op = Opcode::Load;
            ASSERT_TRUE(full[c].issue(&residents.back(), n));
        }
    }
    IssueTimeSteering steer(ic, 4);
    steer.newCycle(100);

    OwnedTimedInst load;
    load.dyn.op = Opcode::Load;
    OwnedTimedInst add;
    add.dyn.op = Opcode::Add;
    EXPECT_EQ(steer.pick(load, full), invalidCluster);
    // No cluster could take a load, and none can later this cycle, so
    // the next load fails at once: it never looks at the clusters it
    // is handed, even ones that would accept it.
    EXPECT_EQ(steer.pick(load, empty), invalidCluster);
    EXPECT_NE(steer.pick(add, full), invalidCluster);   // other kinds pick
    steer.newCycle(101);
    EXPECT_NE(steer.pick(load, empty), invalidCluster);
}

TEST(IssueTimeSteering, BalanceSeesTheMinimumLoadRiseAfterAnIssue)
{
    ClusterConfig cc;
    Interconnect ic(cc);
    std::deque<OwnedTimedInst> residents;
    std::vector<Cluster> clusters;
    for (unsigned c = 0; c < 4; ++c)
        clusters.emplace_back(static_cast<ClusterId>(c), cc);
    // Occupancies 0, 1, 13, 1: cluster 2's backlog is 13 over the
    // minimum, past the balance slack of 12.
    const std::pair<unsigned, unsigned> fills[] = {{1, 1}, {2, 13}, {3, 1}};
    for (const auto &[c, n] : fills) {
        for (unsigned i = 0; i < n; ++i) {
            residents.emplace_back();
            residents.back().dyn.op = Opcode::Add;
            ASSERT_TRUE(clusters[c].issue(&residents.back(), i));
        }
    }
    IssueTimeSteering steer(ic, 4);
    steer.newCycle(100);

    OwnedTimedInst producer;
    producer.dyn.op = Opcode::Add;
    producer.cluster = 2;
    OwnedTimedInst consumer;
    consumer.dyn.op = Opcode::Add;
    consumer.ops[0].valid = true;
    consumer.ops[0].fromRF = false;
    consumer.ops[0].producerPtr = &producer;

    // Balance overrides the dependence: the emptiest cluster wins.
    ASSERT_EQ(steer.pick(consumer, clusters), 0);
    OwnedTimedInst issued;
    issued.dyn.op = Opcode::Add;
    ASSERT_TRUE(clusters[0].issue(&issued, 100));
    // Within the same cycle the minimum rose to 1, so cluster 2 is back
    // within the slack (a minimum remembered from the first pick would
    // send the consumer to cluster 1).
    EXPECT_EQ(steer.pick(consumer, clusters), 2);
}

} // namespace
} // namespace ctcp
