/**
 * @file
 * Unit tests for the trace cache and fill unit: path-associative
 * lookup, overwrite-on-reconstruction, LRU eviction, profile updates,
 * and trace construction rules.
 */

#include <gtest/gtest.h>

#include "assign/base_assignment.hh"
#include "common/random.hh"
#include "eager_trace_cache_reference.hh"
#include "placement_reference.hh"
#include "tracecache/fill_unit.hh"
#include "tracecache/trace_cache.hh"

namespace ctcp {
namespace {

TraceLine
makeLine(Addr start, std::uint32_t dirs, unsigned num_cond,
         std::vector<Addr> pcs, std::vector<Addr> branch_pcs = {})
{
    TraceLine line;
    line.key.startPc = start;
    line.key.condDirs = dirs;
    line.key.numCondBranches = static_cast<std::uint8_t>(num_cond);
    for (std::size_t i = 0; i < pcs.size(); ++i) {
        TraceSlot slot;
        slot.pc = pcs[i];
        slot.physSlot = static_cast<std::uint8_t>(i);
        line.insts.push_back(slot);
    }
    line.condBranchPcs = std::move(branch_pcs);
    return line;
}

TraceCacheConfig
smallTc()
{
    TraceCacheConfig cfg;
    cfg.entries = 8;
    cfg.assoc = 2;
    return cfg;
}

TEST(TraceCache, MissThenHit)
{
    TraceCache tc(smallTc());
    auto always = [](Addr, unsigned) { return true; };
    EXPECT_EQ(tc.lookup(100, always), nullptr);
    tc.insert(makeLine(100, 0, 0, {100, 101, 102}));
    const TraceLine *line = tc.lookup(100, always);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->insts.size(), 3u);
}

TEST(TraceCache, PathAssociativity)
{
    TraceCache tc(smallTc());
    // Two lines with the same start PC but different embedded paths.
    tc.insert(makeLine(100, 0b1, 1, {100, 101, 200}, {101}));
    tc.insert(makeLine(100, 0b0, 1, {100, 101, 102}, {101}));

    auto predict_taken = [](Addr, unsigned) { return true; };
    auto predict_not = [](Addr, unsigned) { return false; };

    const TraceLine *taken = tc.lookup(100, predict_taken);
    ASSERT_NE(taken, nullptr);
    EXPECT_EQ(taken->key.condDirs, 0b1u);

    const TraceLine *not_taken = tc.lookup(100, predict_not);
    ASSERT_NE(not_taken, nullptr);
    EXPECT_EQ(not_taken->key.condDirs, 0b0u);
}

TEST(TraceCache, ReconstructionOverwritesInPlace)
{
    TraceCache tc(smallTc());
    tc.insert(makeLine(100, 0, 0, {100, 101}));
    TraceLine updated = makeLine(100, 0, 0, {100, 101});
    updated.insts[0].profile.role = ChainRole::Leader;
    updated.insts[0].profile.chainCluster = 3;
    tc.insert(updated);

    auto always = [](Addr, unsigned) { return true; };
    const TraceLine *line = tc.lookup(100, always);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->insts[0].profile.role, ChainRole::Leader);
    EXPECT_EQ(tc.evictions(), 0u);
}

TEST(TraceCache, LruEvictionWithinSet)
{
    TraceCacheConfig cfg;
    cfg.entries = 2;   // one set, two ways
    cfg.assoc = 2;
    TraceCache tc(cfg);
    auto always = [](Addr, unsigned) { return true; };

    tc.insert(makeLine(0, 0, 0, {0}));
    tc.insert(makeLine(16, 0, 0, {16}));
    tc.lookup(0, always);               // refresh line 0
    tc.insert(makeLine(32, 0, 0, {32}));   // evicts line 16

    EXPECT_NE(tc.lookup(0, always), nullptr);
    EXPECT_EQ(tc.lookup(16, always), nullptr);
    EXPECT_NE(tc.lookup(32, always), nullptr);
    EXPECT_EQ(tc.evictions(), 1u);
}

TEST(TraceCache, UpdateProfilePromotesResidentSlots)
{
    TraceCache tc(smallTc());
    TraceLine line = makeLine(100, 0, 0, {100, 101, 100});
    tc.insert(line);
    const std::uint64_t key = line.key.hash();

    ChainProfile prof;
    prof.role = ChainRole::Leader;
    prof.chainCluster = 1;
    EXPECT_TRUE(tc.updateProfile(key, 100, prof));

    const TraceLine *got = tc.findByHash(key);
    ASSERT_NE(got, nullptr);
    // Both slots holding PC 100 were promoted; PC 101 untouched.
    EXPECT_EQ(got->insts[0].profile.role, ChainRole::Leader);
    EXPECT_EQ(got->insts[2].profile.role, ChainRole::Leader);
    EXPECT_EQ(got->insts[1].profile.role, ChainRole::None);
}

TEST(TraceCache, UpdateProfileDoesNotOverwriteMembers)
{
    TraceCache tc(smallTc());
    TraceLine line = makeLine(100, 0, 0, {100});
    line.insts[0].profile.role = ChainRole::Follower;
    line.insts[0].profile.chainCluster = 2;
    tc.insert(line);

    ChainProfile prof;
    prof.role = ChainRole::Leader;
    prof.chainCluster = 0;
    EXPECT_FALSE(tc.updateProfile(line.key.hash(), 100, prof));
    EXPECT_EQ(tc.findByHash(line.key.hash())->insts[0].profile.chainCluster,
              2);
}

TEST(TraceCache, UpdateProfileMissesReplacedLines)
{
    TraceCache tc(smallTc());
    ChainProfile prof;
    prof.role = ChainRole::Leader;
    prof.chainCluster = 0;
    EXPECT_FALSE(tc.updateProfile(0, 100, prof));       // I-cache key
    EXPECT_FALSE(tc.updateProfile(12345, 100, prof));   // absent line
}

// ---------------------------------------------------------------------
// Fill unit
// ---------------------------------------------------------------------

class FillUnitTest : public ::testing::Test
{
  protected:
    FillUnitTest()
        : tc_(cfg()), fill_(cfg(), 4, 4, tc_, policy_)
    {}

    static TraceCacheConfig
    cfg()
    {
        TraceCacheConfig c;
        c.entries = 64;
        c.assoc = 2;
        c.maxInsts = 16;
        c.maxBlocks = 3;
        return c;
    }

    OwnedTimedInst
    inst(Addr pc, Opcode op, bool taken = false, Addr target = 0)
    {
        OwnedTimedInst t;
        t.dyn.pc = pc;
        t.dyn.op = op;
        t.dyn.taken = taken;
        t.dyn.targetPc = target;
        t.dyn.nextPc = taken ? target : pc + 1;
        if (op == Opcode::Add) {
            t.dyn.dst = intReg(1);
            t.dyn.src1 = intReg(1);
            t.dyn.src2 = intReg(2);
        }
        return t;
    }

    TraceCache tc_;
    BaseSlotOrderAssignment policy_;
    FillUnit fill_;
};

TEST_F(FillUnitTest, SixteenInstructionLimit)
{
    for (Addr pc = 0; pc < 20; ++pc)
        fill_.retire(inst(pc, Opcode::Add));
    EXPECT_EQ(fill_.tracesBuilt(), 1u);
    fill_.flush();
    EXPECT_EQ(fill_.tracesBuilt(), 2u);
    EXPECT_NE(tc_.findByHash(TraceKey{0, 0, 0}.hash()), nullptr);
}

TEST_F(FillUnitTest, ThreeBlockLimit)
{
    // Three forward not-taken conditionals end the trace.
    fill_.retire(inst(0, Opcode::Add));
    fill_.retire(inst(1, Opcode::Beq, false, 50));
    fill_.retire(inst(2, Opcode::Add));
    fill_.retire(inst(3, Opcode::Beq, false, 50));
    fill_.retire(inst(4, Opcode::Add));
    EXPECT_EQ(fill_.tracesBuilt(), 0u);
    fill_.retire(inst(5, Opcode::Beq, false, 50));
    EXPECT_EQ(fill_.tracesBuilt(), 1u);

    const TraceLine *line = tc_.findByHash(TraceKey{0, 0, 3}.hash());
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->numBlocks, 3);
    EXPECT_EQ(line->key.numCondBranches, 3);
    EXPECT_EQ(line->key.condDirs, 0u);
    EXPECT_EQ(line->successorPc, 6u);
}

TEST_F(FillUnitTest, IndirectEndsTrace)
{
    fill_.retire(inst(0, Opcode::Add));
    fill_.retire(inst(1, Opcode::JumpReg, true, 99));
    EXPECT_EQ(fill_.tracesBuilt(), 1u);
    const TraceLine *line = tc_.findByHash(TraceKey{0, 0, 0}.hash());
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->endsWithIndirect);
}

TEST_F(FillUnitTest, BackwardTakenBranchEndsTrace)
{
    fill_.retire(inst(10, Opcode::Add));
    fill_.retire(inst(11, Opcode::Bne, true, 10));   // loop back
    EXPECT_EQ(fill_.tracesBuilt(), 1u);
    const TraceLine *line = tc_.findByHash(TraceKey{10, 1, 1}.hash());
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->key.condDirs, 1u);
    EXPECT_EQ(line->successorPc, 10u);
}

TEST_F(FillUnitTest, ForwardTakenBranchContinuesTrace)
{
    fill_.retire(inst(10, Opcode::Add));
    fill_.retire(inst(11, Opcode::Beq, true, 40));   // forward taken
    EXPECT_EQ(fill_.tracesBuilt(), 0u);              // block 2 continues
    fill_.retire(inst(40, Opcode::Add));
    fill_.flush();
    const TraceLine *line = tc_.findByHash(TraceKey{10, 1, 1}.hash());
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->insts.size(), 3u);
    EXPECT_EQ(line->insts[2].pc, 40u);
}

TEST_F(FillUnitTest, MeanTraceSize)
{
    for (int round = 0; round < 4; ++round) {
        for (Addr pc = 0; pc < 8; ++pc)
            fill_.retire(inst(pc, Opcode::Add));
        fill_.retire(inst(8, Opcode::Bne, true, 0));
    }
    EXPECT_EQ(fill_.tracesBuilt(), 4u);
    EXPECT_DOUBLE_EQ(fill_.meanTraceSize(), 9.0);
}

TEST_F(FillUnitTest, HaltFinalizes)
{
    fill_.retire(inst(0, Opcode::Add));
    fill_.retire(inst(1, Opcode::Halt));
    EXPECT_EQ(fill_.tracesBuilt(), 1u);
}

TEST_F(FillUnitTest, ObserverSeesDraftAndLine)
{
    struct Obs : FillUnitObserver
    {
        unsigned calls = 0;
        void
        onTraceConstructed(const TraceDraft &draft,
                           const TraceLine &line) override
        {
            ++calls;
            EXPECT_EQ(draft.insts.size(), line.insts.size());
        }
    } obs;
    fill_.setObserver(&obs);
    fill_.retire(inst(0, Opcode::Add));
    fill_.retire(inst(1, Opcode::JumpReg, true, 0));
    EXPECT_EQ(obs.calls, 1u);
}

TEST_F(FillUnitTest, DraftsAreBuiltAfreshForEveryTrace)
{
    // Drafts are built in place and reused across traces: each one the
    // observer sees holds exactly its own trace, analysed as the
    // quadratic reference analyses it.
    struct Obs : FillUnitObserver
    {
        std::vector<std::size_t> sizes;
        void
        onTraceConstructed(const TraceDraft &draft,
                           const TraceLine &line) override
        {
            sizes.push_back(draft.insts.size());
            ASSERT_EQ(draft.insts.size(), line.insts.size());
            TraceDraft expect = draft;
            test::referenceAnalyzeIntraTrace(expect);
            for (std::size_t i = 0; i < draft.insts.size(); ++i) {
                EXPECT_EQ(draft.insts[i].pc, line.insts[i].pc);
                EXPECT_EQ(draft.insts[i].intraProducer,
                          expect.insts[i].intraProducer);
                EXPECT_EQ(draft.insts[i].hasIntraConsumer,
                          expect.insts[i].hasIntraConsumer);
            }
        }
    } obs;
    fill_.setObserver(&obs);
    for (int round = 0; round < 3; ++round) {
        for (Addr pc = 0; pc < 5; ++pc) {
            OwnedTimedInst t = inst(pc, Opcode::Add);
            t.cold().criticalSrc = 1;   // r1 <- r1 + r2: a chain on r1
            fill_.retire(t);
        }
        fill_.retire(inst(5, Opcode::Bne, true, 0));
    }
    fill_.retire(inst(0, Opcode::Add));
    fill_.flush();
    EXPECT_EQ(obs.sizes, (std::vector<std::size_t>{6, 6, 6, 1}));
}

/**
 * The O(n) analysis must agree with the quadratic reference on every
 * draft: 10k seeded drafts per machine shape, with redefinitions,
 * instructions that read and write one register, and zeroReg /
 * invalidReg operands.
 */
TEST(FillUnitOracle, AnalysisMatchesQuadraticReference)
{
    const unsigned shapes[][2] = {{1, 4}, {2, 4}, {4, 4}, {8, 4}, {8, 8}};
    for (const auto &shape : shapes) {
        Rng rng(0x5eed0000u + shape[0] * 16 + shape[1]);
        for (int round = 0; round < 10000; ++round) {
            TraceDraft fast = test::randomDraft(rng, shape[0], shape[1]);
            TraceDraft slow = fast;
            FillUnit::analyzeIntraTrace(fast);
            test::referenceAnalyzeIntraTrace(slow);
            for (std::size_t i = 0; i < fast.insts.size(); ++i) {
                ASSERT_EQ(fast.insts[i].intraProducer,
                          slow.insts[i].intraProducer)
                    << shape[0] << "x" << shape[1] << " round " << round
                    << " inst " << i;
                ASSERT_EQ(fast.insts[i].hasIntraConsumer,
                          slow.insts[i].hasIntraConsumer)
                    << shape[0] << "x" << shape[1] << " round " << round
                    << " inst " << i;
            }
        }
    }
}

TEST(TraceCache, FillLatencyDelaysAvailability)
{
    TraceCache tc(smallTc());
    TraceLine line = makeLine(100, 0, 0, {100, 101});
    tc.insert(line, 500);   // available at cycle 500
    auto always = [](Addr, unsigned) { return true; };
    EXPECT_EQ(tc.lookup(100, always, 499), nullptr);
    EXPECT_NE(tc.lookup(100, always, 500), nullptr);
    // Lookups with no cycle context see everything (test convenience).
    EXPECT_NE(tc.lookup(100, always), nullptr);
}

/** Same key, instructions and profiles (or both absent). */
void
expectSameLine(const TraceLine *lazy, const TraceLine *eager,
               const char *what, unsigned op)
{
    ASSERT_EQ(lazy == nullptr, eager == nullptr) << what << " op " << op;
    if (lazy == nullptr)
        return;
    EXPECT_TRUE(lazy->key == eager->key) << what << " op " << op;
    ASSERT_EQ(lazy->insts.size(), eager->insts.size()) << what;
    for (std::size_t i = 0; i < lazy->insts.size(); ++i) {
        EXPECT_EQ(lazy->insts[i].pc, eager->insts[i].pc);
        EXPECT_EQ(lazy->insts[i].profile.role, eager->insts[i].profile.role);
        EXPECT_EQ(lazy->insts[i].profile.chainCluster,
                  eager->insts[i].profile.chainCluster);
    }
    EXPECT_EQ(lazy->availableAt, eager->availableAt) << what << " op " << op;
}

TEST(TraceCache, LazySetsMatchTheEagerCacheOnSeededStreams)
{
    // Start PCs crowd a few sets (evictions, path variants, in-flight
    // lines) and spread over all of them (untouched sets stay lazy).
    for (const unsigned entries : {2u, 8u, 64u, 1024u}) {
        TraceCacheConfig cfg;
        cfg.entries = entries;
        cfg.assoc = entries == 2 ? 1 : 2;
        TraceCache lazy(cfg);
        test::EagerTraceCache eager(cfg);
        EXPECT_EQ(lazy.touchedSets(), 0u);
        Rng rng(0x7cac4eu + entries);
        std::vector<TraceKey> inserted;
        Cycle now = 0;
        for (unsigned op = 0; op < 20000; ++op) {
            now += rng.below(3);
            const Addr start = rng.chance(3, 4) ? rng.below(24)
                                                : rng.below(4096);
            const unsigned kind = static_cast<unsigned>(rng.below(10));
            if (kind < 4) {
                const unsigned conds = static_cast<unsigned>(rng.below(3));
                const unsigned insts = 1 + static_cast<unsigned>(rng.below(6));
                std::vector<Addr> pcs, branches;
                for (unsigned i = 0; i < insts; ++i)
                    pcs.push_back(start + i);
                for (unsigned b = 0; b < conds; ++b)
                    branches.push_back(start + b);
                TraceLine line = makeLine(
                    start, static_cast<std::uint32_t>(rng.below(4)), conds,
                    pcs, branches);
                const Cycle at = rng.chance(1, 4) ? now + rng.below(50) : 0;
                inserted.push_back(line.key);
                lazy.insert(line, at);
                eager.insert(line, at);
            } else if (kind < 8) {
                const std::uint64_t salt = rng.next();
                const DirPredictFn predict = [salt](Addr pc, unsigned i) {
                    return ((pc * 0x9e3779b97f4a7c15ull ^ salt) >> i) & 1;
                };
                const Cycle at = rng.chance(1, 2) ? now : neverCycle;
                expectSameLine(lazy.lookup(start, predict, at),
                               eager.lookup(start, predict, at), "lookup",
                               op);
            } else if (!inserted.empty()) {
                const TraceKey key =
                    inserted[rng.below(inserted.size())];
                const std::uint64_t hash = key.hash();
                if (kind == 8) {
                    ChainProfile prof;
                    prof.role = ChainRole::Leader;
                    prof.chainCluster =
                        static_cast<ClusterId>(rng.below(4));
                    const Addr pc = key.startPc + rng.below(4);
                    EXPECT_EQ(lazy.updateProfile(hash, pc, prof),
                              eager.updateProfile(hash, pc, prof))
                        << "op " << op;
                } else {
                    expectSameLine(lazy.findByHash(hash),
                                   eager.findByHash(hash), "findByHash",
                                   op);
                }
            }
        }
        StatDump lazy_stats, eager_stats;
        lazy.dumpStats(lazy_stats);
        eager.dumpStats(eager_stats);
        EXPECT_EQ(lazy_stats.render(), eager_stats.render())
            << entries << " entries";
        EXPECT_GT(lazy.evictions(), 0u) << entries << " entries";
        EXPECT_LE(lazy.touchedSets(), entries / cfg.assoc);
    }
}

TEST(TraceCache, OnlyInsertsBuildASet)
{
    TraceCacheConfig cfg;   // the Table 7 geometry: 512 sets of 2
    TraceCache tc(cfg);
    EXPECT_EQ(tc.touchedSets(), 0u);
    auto always = [](Addr, unsigned) { return true; };
    for (Addr pc = 0; pc < 100; ++pc)
        EXPECT_EQ(tc.lookup(pc, always), nullptr);
    EXPECT_EQ(tc.findByHash(TraceKey{5, 0, 0}.hash()), nullptr);
    EXPECT_FALSE(tc.updateProfile(TraceKey{5, 0, 0}.hash(), 5, {}));
    EXPECT_EQ(tc.touchedSets(), 0u);
    EXPECT_EQ(tc.misses(), 100u);

    // Start PCs 3, 515 and 1027 share set 3; 4 is a set of its own.
    for (const Addr pc : {3u, 515u, 1027u, 4u})
        tc.insert(makeLine(pc, 0, 0, {pc}));
    EXPECT_EQ(tc.touchedSets(), 2u);
    EXPECT_EQ(tc.evictions(), 1u);
    EXPECT_NE(tc.findByHash(TraceKey{4, 0, 0}.hash()), nullptr);
}

TEST(TraceKey, HashDistinguishesPaths)
{
    TraceKey a{100, 0b01, 2};
    TraceKey b{100, 0b10, 2};
    TraceKey c{100, 0b01, 2};
    EXPECT_NE(a.hash(), b.hash());
    EXPECT_EQ(a.hash(), c.hash());
    EXPECT_NE(a.hash(), 0u);
}

} // namespace
} // namespace ctcp
