/**
 * @file
 * Integration tests: full benchmark runs across assignment strategies
 * and machine variants, checking the cross-cutting properties the
 * paper's evaluation relies on.
 */

#include <gtest/gtest.h>

#include "config/presets.hh"
#include "core/simulator.hh"
#include "workload/workload.hh"

namespace ctcp {
namespace {

constexpr std::uint64_t budget = 60000;

SimResult
run(const std::string &bench, AssignStrategy strategy,
    unsigned issue_latency = 4, bool pinning = true)
{
    SimConfig cfg = baseConfig();
    cfg.assign.strategy = strategy;
    cfg.assign.issueTimeLatency = issue_latency;
    cfg.assign.fdrtPinning = pinning;
    cfg.instructionLimit = budget;
    Program p = workloads::build(bench);
    CtcpSimulator sim(cfg, p);
    return sim.run();
}

TEST(Integration, RetireTimeReorderingPreservesInstructionStream)
{
    // Physical reordering must not change *what* retires: every
    // strategy commits the same number of instructions for the same
    // budget, and the architectural effects (committed stream) come
    // from the same functional execution by construction.
    for (const char *bench : {"gzip", "twolf"}) {
        const SimResult base = run(bench, AssignStrategy::BaseSlotOrder);
        const SimResult fdrt = run(bench, AssignStrategy::Fdrt);
        const SimResult friendly = run(bench, AssignStrategy::Friendly);
        // Runs stop at the first retire cycle that reaches the budget,
        // so counts agree up to one retire group.
        const auto width = baseConfig().core.retireWidth;
        EXPECT_NEAR(base.instructions, fdrt.instructions, width) << bench;
        EXPECT_NEAR(base.instructions, friendly.instructions, width)
            << bench;
    }
}

TEST(Integration, FdrtImprovesForwardingLocalityOnGzip)
{
    const SimResult base = run("gzip", AssignStrategy::BaseSlotOrder);
    const SimResult fdrt = run("gzip", AssignStrategy::Fdrt);
    // The paper's headline mechanism: more intra-cluster forwarding,
    // shorter distances, better performance.
    EXPECT_GT(fdrt.pctIntraClusterFwd, base.pctIntraClusterFwd);
    EXPECT_LT(fdrt.meanFwdDistance, base.meanFwdDistance);
    EXPECT_LT(fdrt.cycles, base.cycles);
}

TEST(Integration, RetireTimeStrategiesShortenDistances)
{
    for (const char *bench : {"gzip", "twolf", "vpr"}) {
        const SimResult base = run(bench, AssignStrategy::BaseSlotOrder);
        const SimResult friendly = run(bench, AssignStrategy::Friendly);
        const SimResult fdrt = run(bench, AssignStrategy::Fdrt);
        EXPECT_LT(friendly.meanFwdDistance, base.meanFwdDistance) << bench;
        EXPECT_LT(fdrt.meanFwdDistance, base.meanFwdDistance) << bench;
    }
}

TEST(Integration, IssueTimeLatencyHurts)
{
    for (const char *bench : {"gzip", "perlbmk"}) {
        const SimResult ideal = run(bench, AssignStrategy::IssueTime, 0);
        const SimResult real = run(bench, AssignStrategy::IssueTime, 4);
        EXPECT_LE(ideal.cycles, real.cycles) << bench;
    }
}

TEST(Integration, FdrtOptionMixIsSane)
{
    const SimResult r = run("gzip", AssignStrategy::Fdrt);
    // Options A-C (identified producers) should cover a majority of
    // instructions on a dependence-dense benchmark, and raw skips
    // must stay a modest fraction (the paper reports <1%; capacity
    // pressure in the synthetic kernels makes ours a bit larger).
    EXPECT_GT(r.pctOptionA + r.pctOptionB + r.pctOptionC, 40.0);
    EXPECT_LT(r.pctSkipped, 25.0);
}

TEST(Integration, PinningReducesChainMigration)
{
    const SimResult pinned = run("gzip", AssignStrategy::Fdrt, 4, true);
    const SimResult unpinned = run("gzip", AssignStrategy::Fdrt, 4, false);
    // Table 9's effect: pinning lowers chain-instruction migration.
    EXPECT_LT(pinned.migrationChainPct, unpinned.migrationChainPct);
}

TEST(Integration, InterTraceProducersRepeat)
{
    // Table 3's enabling observation: inter-trace critical producers
    // are highly repetitive.
    const SimResult r = run("gzip", AssignStrategy::BaseSlotOrder);
    EXPECT_GT(r.repeatRs1CritInter, 80.0);
}

TEST(Integration, MostDependenciesAreCritical)
{
    // Table 2: the large majority of forwarded dependencies are the
    // consumer's last-arriving input.
    for (const char *bench : {"gzip", "twolf", "vpr"}) {
        const SimResult r = run(bench, AssignStrategy::BaseSlotOrder);
        EXPECT_GT(r.pctDepsCritical, 50.0) << bench;
        EXPECT_GT(r.pctCritInterTrace, 5.0) << bench;
        EXPECT_LT(r.pctCritInterTrace, 70.0) << bench;
    }
}

TEST(Integration, MeshHelpsOrMatchesDistance)
{
    Program p = workloads::build("gzip");
    SimConfig lin = baseConfig();
    lin.instructionLimit = budget;
    SimConfig mesh = ringConfig();
    mesh.instructionLimit = budget;
    const SimResult rl = CtcpSimulator(lin, p).run();
    const SimResult rm = CtcpSimulator(mesh, p).run();
    EXPECT_LE(rm.meanFwdDistance, rl.meanFwdDistance + 0.05);
    // No 3-hop trips exist in a 4-cluster mesh.
    EXPECT_LE(rm.meanFwdDistance, 2.0);
}

TEST(Integration, OneCycleForwardingImprovesBase)
{
    Program p = workloads::build("twolf");
    SimConfig two = baseConfig();
    two.instructionLimit = budget;
    SimConfig one = oneCycleForwardConfig();
    one.instructionLimit = budget;
    const SimResult r2 = CtcpSimulator(two, p).run();
    const SimResult r1 = CtcpSimulator(one, p).run();
    EXPECT_LT(r1.cycles, r2.cycles);
}

TEST(Integration, TwoClusterMachineRunsEveryStrategy)
{
    Program p = workloads::build("gzip");
    for (AssignStrategy s : {AssignStrategy::BaseSlotOrder,
                             AssignStrategy::Friendly, AssignStrategy::Fdrt,
                             AssignStrategy::IssueTime}) {
        SimConfig cfg = twoClusterConfig();
        cfg.assign.strategy = s;
        cfg.instructionLimit = budget;
        const SimResult r = CtcpSimulator(cfg, p).run();
        EXPECT_GE(r.instructions, budget) << assignStrategyName(s);
        EXPECT_LE(r.meanFwdDistance, 1.0);   // two clusters: 0 or 1 hop
    }
}

TEST(Integration, FdrtChainMechanismConvergesEndToEnd)
{
    // Drive the full pipeline and verify the paper's feedback loop
    // actually closes: consumers observe critical inter-trace
    // forwards, producers get promoted to leaders (pins appear), the
    // trace cache's profile fields are written, and the chain options
    // (B/C) fire during assignment.
    const SimResult r = run("gzip", AssignStrategy::Fdrt);
    EXPECT_GT(r.pctOptionB, 1.0);   // followers were classified
    EXPECT_GT(r.pctOptionC, 0.1);
    // With chains disabled the same run classifies nothing as B/C.
    SimConfig cfg = baseConfig();
    cfg.assign.strategy = AssignStrategy::Fdrt;
    cfg.assign.fdrtChains = false;
    cfg.instructionLimit = budget;
    Program p = workloads::build("gzip");
    const SimResult nc = CtcpSimulator(cfg, p).run();
    EXPECT_DOUBLE_EQ(nc.pctOptionB, 0.0);
    EXPECT_DOUBLE_EQ(nc.pctOptionC, 0.0);
    // And chains raise the share of inter-trace critical inputs that
    // are satisfied intra-cluster versus the slot-order baseline.
    const SimResult base = run("gzip", AssignStrategy::BaseSlotOrder);
    EXPECT_GT(r.pctIntraClusterFwd, base.pctIntraClusterFwd);
}

TEST(Integration, FillLatencyBarelyMattersOnRealWorkloads)
{
    // Section 4's quantitative claim at workload scale.
    Program p = workloads::build("twolf");
    SimConfig fast = baseConfig();
    fast.assign.strategy = AssignStrategy::Fdrt;
    fast.instructionLimit = budget;
    SimConfig slow = fast;
    slow.frontEnd.traceCache.fillLatency = 1000;
    const SimResult rf = CtcpSimulator(fast, p).run();
    const SimResult rs = CtcpSimulator(slow, p).run();
    EXPECT_LT(static_cast<double>(rs.cycles),
              static_cast<double>(rf.cycles) * 1.08);
}

// Every benchmark must complete a timing run under every strategy
// without wedging (watchdog inside run()) — a broad smoke matrix.
class StrategyMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(StrategyMatrix, CompletesAndRetiresBudget)
{
    const auto &[bench, strat] = GetParam();
    SimConfig cfg = baseConfig();
    cfg.assign.strategy = static_cast<AssignStrategy>(strat);
    cfg.instructionLimit = 20000;
    Program p = workloads::build(bench);
    const SimResult r = CtcpSimulator(cfg, p).run();
    EXPECT_GE(r.instructions, 20000u);
    EXPECT_GT(r.ipc(), 0.05);
    EXPECT_LT(r.ipc(), 16.0);
}

INSTANTIATE_TEST_SUITE_P(
    SelectedSix, StrategyMatrix,
    ::testing::Combine(
        ::testing::Values("bzip2", "eon", "gzip", "perlbmk", "twolf", "vpr",
                          "mcf", "adpcm_enc", "jpeg_dec", "pegwit_enc"),
        ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>> &info) {
        std::string name = std::get<0>(info.param) + "_" +
            assignStrategyName(
                static_cast<AssignStrategy>(std::get<1>(info.param)));
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // namespace
} // namespace ctcp
