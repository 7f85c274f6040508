/**
 * @file
 * Unit tests for the branch predictor: 2-bit counters, hybrid
 * direction prediction, BTB and RAS behaviour.
 */

#include <gtest/gtest.h>

#include "bpred/predictor.hh"

namespace ctcp {
namespace {

BranchPredictorConfig
smallConfig()
{
    BranchPredictorConfig cfg;
    cfg.gshareEntries = 256;
    cfg.bimodalEntries = 256;
    cfg.chooserEntries = 256;
    cfg.historyBits = 8;
    cfg.btbEntries = 16;
    cfg.btbAssoc = 4;
    cfg.rasEntries = 4;
    return cfg;
}

TEST(TwoBitCounter, Saturates)
{
    TwoBitCounter c(0);
    EXPECT_FALSE(c.taken());
    c.update(true);
    EXPECT_FALSE(c.taken());   // 1: still weakly not-taken
    c.update(true);
    EXPECT_TRUE(c.taken());    // 2
    c.update(true);
    c.update(true);
    EXPECT_EQ(c.raw(), 3);     // saturated
    c.update(false);
    EXPECT_TRUE(c.taken());    // 2: hysteresis
    c.update(false);
    EXPECT_FALSE(c.taken());
}

TEST(Predictor, LearnsAlwaysTaken)
{
    BranchPredictor bp(smallConfig());
    const Addr pc = 100;
    for (int i = 0; i < 8; ++i)
        bp.update(pc, true, true, 200);
    EXPECT_TRUE(bp.peekDirection(pc));
}

TEST(Predictor, LearnsAlwaysNotTaken)
{
    BranchPredictor bp(smallConfig());
    const Addr pc = 100;
    for (int i = 0; i < 8; ++i)
        bp.update(pc, true, false, 200);
    EXPECT_FALSE(bp.peekDirection(pc));
}

TEST(Predictor, GshareLearnsAlternatingPattern)
{
    BranchPredictor bp(smallConfig());
    const Addr pc = 64;
    // Train T,N,T,N...: bimodal oscillates but gshare keys on history.
    bool outcome = false;
    int correct = 0;
    for (int i = 0; i < 400; ++i) {
        outcome = !outcome;
        const bool pred = bp.peekDirection(pc);
        if (i >= 200 && pred == outcome)
            ++correct;
        bp.update(pc, true, outcome, 200);
    }
    // After warmup the hybrid should track the alternation well.
    EXPECT_GT(correct, 180);
}

TEST(Predictor, BtbStoresTargets)
{
    BranchPredictor bp(smallConfig());
    bp.update(300, false, true, 4242);
    auto [target, valid] = bp.peekBtb(300);
    EXPECT_TRUE(valid);
    EXPECT_EQ(target, 4242u);
    auto [t2, v2] = bp.peekBtb(301);
    (void)t2;
    EXPECT_FALSE(v2);
}

TEST(Predictor, BtbReplacesWithinSet)
{
    BranchPredictorConfig cfg = smallConfig();
    cfg.btbEntries = 4;   // one set of 4 ways
    cfg.btbAssoc = 4;
    BranchPredictor bp(cfg);
    for (Addr pc = 0; pc < 5; ++pc)
        bp.update(pc * 4, false, true, 1000 + pc);
    // 5 taken branches into 4 ways: exactly one got evicted.
    unsigned resident = 0;
    for (Addr pc = 0; pc < 5; ++pc)
        resident += bp.peekBtb(pc * 4).second ? 1 : 0;
    EXPECT_EQ(resident, 4u);
}

TEST(Predictor, RasLifoOrder)
{
    BranchPredictor bp(smallConfig());
    bp.pushRas(11);
    bp.pushRas(22);
    bp.pushRas(33);
    EXPECT_EQ(bp.popRas(), (std::pair<Addr, bool>{33, true}));
    EXPECT_EQ(bp.popRas(), (std::pair<Addr, bool>{22, true}));
    EXPECT_EQ(bp.popRas(), (std::pair<Addr, bool>{11, true}));
    EXPECT_FALSE(bp.popRas().second);   // empty
}

TEST(Predictor, RasOverflowWraps)
{
    BranchPredictor bp(smallConfig());   // 4 entries
    for (Addr a = 1; a <= 6; ++a)
        bp.pushRas(a);
    // The four most recent survive.
    EXPECT_EQ(bp.popRas().first, 6u);
    EXPECT_EQ(bp.popRas().first, 5u);
    EXPECT_EQ(bp.popRas().first, 4u);
    EXPECT_EQ(bp.popRas().first, 3u);
}

TEST(Predictor, PeekDoesNotTrain)
{
    BranchPredictor bp(smallConfig());
    const Addr pc = 12;
    const bool before = bp.peekDirection(pc);
    for (int i = 0; i < 100; ++i)
        bp.peekDirection(pc);
    EXPECT_EQ(bp.peekDirection(pc), before);
}

// Parameterized sweep: the hybrid must converge on strongly biased
// branches regardless of bias direction and PC placement.
class BiasSweep : public ::testing::TestWithParam<std::tuple<bool, Addr>>
{};

TEST_P(BiasSweep, ConvergesToBias)
{
    auto [taken, pc] = GetParam();
    BranchPredictor bp(smallConfig());
    for (int i = 0; i < 16; ++i)
        bp.update(pc, true, taken, pc + 5);
    EXPECT_EQ(bp.peekDirection(pc), taken);
}

INSTANTIATE_TEST_SUITE_P(
    Directions, BiasSweep,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values<Addr>(0, 1, 17, 255, 1024, 65537)));

} // namespace
} // namespace ctcp
