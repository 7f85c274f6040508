/**
 * @file
 * Simulator-level tests: pipeline timing on hand-built microprograms,
 * forwarding-latency semantics, ablation knobs, configuration
 * validation, and basic invariants of a full run.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>

#include "common/sim_error.hh"
#include "config/presets.hh"
#include "core/simulator.hh"
#include "prog/builder.hh"
#include "tmp_dir.hh"

namespace ctcp {
namespace {

/** A tiny loop program touching ALU, memory and branches. */
Program
loopProgram(std::int64_t trips)
{
    ProgramBuilder b("microloop");
    b.data(0x1000, {1, 2, 3, 4, 5, 6, 7, 8});
    b.movi(intReg(1), trips);
    b.movi(intReg(2), 0x1000);
    b.movi(intReg(3), 0);
    b.label("top");
    b.andi(intReg(4), intReg(1), 7);
    b.slli(intReg(4), intReg(4), 3);
    b.add(intReg(4), intReg(4), intReg(2));
    b.load(intReg(5), intReg(4), 0);
    b.add(intReg(3), intReg(3), intReg(5));
    b.store(intReg(3), intReg(2), 64);
    b.addi(intReg(1), intReg(1), -1);
    b.bne(intReg(1), zeroReg, "top");
    b.halt();
    return b.build();
}

SimConfig
quickConfig()
{
    SimConfig cfg = baseConfig();
    cfg.instructionLimit = 0;   // run to Halt
    return cfg;
}

/** A loop with loop-carried (inter-trace) chains for FDRT testing. */
Program
workloadLikeLoop()
{
    ProgramBuilder b("chainy");
    b.data(0x1000, std::vector<std::int64_t>(64, 3));
    b.movi(intReg(1), 1'000'000);
    b.movi(intReg(2), 0x1000);
    b.movi(intReg(3), 1);
    b.movi(intReg(6), 0);
    b.label("top");
    // Loop-carried accumulator chain (inter-trace critical).
    b.andi(intReg(4), intReg(3), 63);
    b.slli(intReg(4), intReg(4), 3);
    b.add(intReg(4), intReg(4), intReg(2));
    b.load(intReg(5), intReg(4), 0);
    b.add(intReg(3), intReg(3), intReg(5));
    b.xor_(intReg(6), intReg(6), intReg(3));
    b.addi(intReg(7), intReg(6), 5);
    b.add(intReg(8), intReg(7), intReg(3));
    b.store(intReg(8), intReg(4), 512);
    b.addi(intReg(1), intReg(1), -1);
    b.bne(intReg(1), zeroReg, "top");
    b.halt();
    return b.build();
}

TEST(Simulator, RunsToHaltAndRetiresEverything)
{
    Program p = loopProgram(100);
    CtcpSimulator sim(quickConfig(), p);
    SimResult r = sim.run();
    // 3 setup + 100 * 8 loop body + halt.
    EXPECT_EQ(r.instructions, 804u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.strategy, std::string("base"));
}

TEST(Simulator, InstructionLimitStopsEarly)
{
    Program p = loopProgram(100000);
    SimConfig cfg = quickConfig();
    cfg.instructionLimit = 5000;
    CtcpSimulator sim(cfg, p);
    SimResult r = sim.run();
    EXPECT_GE(r.instructions, 5000u);
    EXPECT_LT(r.instructions, 5000u + cfg.core.retireWidth);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    Program p = loopProgram(2000);
    SimResult a = CtcpSimulator(quickConfig(), p).run();
    SimResult b = CtcpSimulator(quickConfig(), p).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
}

TEST(Simulator, SerialChainBoundByDependences)
{
    // A long serial ALU chain cannot exceed IPC 1 by much, and a
    // parallel version of the same work must be clearly faster.
    ProgramBuilder serial("serial");
    serial.movi(intReg(1), 50000);
    serial.label("top");
    for (int i = 0; i < 8; ++i)
        serial.addi(intReg(2), intReg(2), 1);   // dependent chain
    serial.addi(intReg(1), intReg(1), -1);
    serial.bne(intReg(1), zeroReg, "top");
    serial.halt();
    Program sp = serial.build();

    ProgramBuilder parallel("parallel");
    parallel.movi(intReg(1), 50000);
    parallel.label("top");
    for (int i = 0; i < 8; ++i)
        parallel.addi(static_cast<RegId>(2 + i),
                      static_cast<RegId>(2 + i), 1);   // independent
    parallel.addi(intReg(1), intReg(1), -1);
    parallel.bne(intReg(1), zeroReg, "top");
    parallel.halt();
    Program pp = parallel.build();

    SimConfig cfg = quickConfig();
    cfg.instructionLimit = 100000;
    const SimResult rs = CtcpSimulator(cfg, sp).run();
    const SimResult rp = CtcpSimulator(cfg, pp).run();
    EXPECT_LT(rs.ipc(), 1.3);
    EXPECT_GT(rp.ipc(), rs.ipc() * 1.5);
}

TEST(Simulator, ZeroForwardLatencyNeverSlower)
{
    Program p = loopProgram(20000);
    SimConfig cfg = quickConfig();
    const SimResult base = CtcpSimulator(cfg, p).run();
    cfg.ablation.zeroAllForwardLatency = true;
    const SimResult nofwd = CtcpSimulator(cfg, p).run();
    EXPECT_LE(nofwd.cycles, base.cycles);
}

TEST(Simulator, CriticalAblationBetweenBaseAndFull)
{
    Program p = loopProgram(20000);
    SimConfig cfg = quickConfig();
    const SimResult base = CtcpSimulator(cfg, p).run();
    SimConfig crit = cfg;
    crit.ablation.zeroCriticalForwardLatency = true;
    const SimResult nocrit = CtcpSimulator(crit, p).run();
    SimConfig all = cfg;
    all.ablation.zeroAllForwardLatency = true;
    const SimResult noall = CtcpSimulator(all, p).run();
    EXPECT_LE(nocrit.cycles, base.cycles);
    EXPECT_LE(noall.cycles, nocrit.cycles);
}

TEST(Simulator, IntraPlusInterCoverAll)
{
    // Zeroing intra-trace and inter-trace latencies both help, and
    // each is bounded below by the zero-everything case.
    Program p = loopProgram(20000);
    SimConfig cfg = quickConfig();
    const SimResult base = CtcpSimulator(cfg, p).run();
    SimConfig c1 = cfg;
    c1.ablation.zeroIntraTraceForwardLatency = true;
    SimConfig c2 = cfg;
    c2.ablation.zeroInterTraceForwardLatency = true;
    SimConfig c3 = cfg;
    c3.ablation.zeroAllForwardLatency = true;
    const SimResult intra = CtcpSimulator(c1, p).run();
    const SimResult inter = CtcpSimulator(c2, p).run();
    const SimResult all = CtcpSimulator(c3, p).run();
    EXPECT_LE(intra.cycles, base.cycles);
    EXPECT_LE(inter.cycles, base.cycles);
    EXPECT_LE(all.cycles, intra.cycles);
    EXPECT_LE(all.cycles, inter.cycles);
}

TEST(Simulator, StatsAreInternallyConsistent)
{
    Program p = loopProgram(20000);
    SimConfig cfg = quickConfig();
    cfg.assign.strategy = AssignStrategy::Fdrt;
    CtcpSimulator sim(cfg, p);
    SimResult r = sim.run();

    EXPECT_GE(r.pctFromTraceCache, 0.0);
    EXPECT_LE(r.pctFromTraceCache, 100.0);
    EXPECT_NEAR(r.pctCritFromRF + r.pctCritFromRs1 + r.pctCritFromRs2,
                100.0, 0.1);
    const double options = r.pctOptionA + r.pctOptionB + r.pctOptionC +
        r.pctOptionD + r.pctOptionE + r.pctSkipped;
    EXPECT_NEAR(options, 100.0, 0.1);
    EXPECT_GE(r.meanFwdDistance, 0.0);
    EXPECT_LE(r.meanFwdDistance, 3.0);
    EXPECT_FALSE(sim.statsText().empty());
}

TEST(Simulator, TraceCacheDominatesSteadyStateFetch)
{
    Program p = loopProgram(30000);
    SimConfig cfg = quickConfig();
    SimResult r = CtcpSimulator(cfg, p).run();
    EXPECT_GT(r.pctFromTraceCache, 80.0);
    EXPECT_GT(r.tcHitRate, 50.0);
}

TEST(Simulator, BranchPredictorLearnsTheLoop)
{
    Program p = loopProgram(30000);
    SimResult r = CtcpSimulator(quickConfig(), p).run();
    EXPECT_GT(r.bpredAccuracy, 95.0);
}

TEST(Simulator, StepAndDoneInterface)
{
    Program p = loopProgram(10);
    CtcpSimulator sim(quickConfig(), p);
    EXPECT_FALSE(sim.done());
    unsigned steps = 0;
    while (!sim.done() && steps < 100000) {
        sim.step();
        ++steps;
    }
    EXPECT_TRUE(sim.done());
    EXPECT_EQ(sim.retired(), 84u);
    EXPECT_EQ(sim.now(), steps);
}

TEST(Simulator, AllStrategiesRetireIdenticalStreams)
{
    Program p = loopProgram(5000);
    SimConfig cfg = quickConfig();
    std::uint64_t insts[4];
    int i = 0;
    for (AssignStrategy s : {AssignStrategy::BaseSlotOrder,
                             AssignStrategy::Friendly, AssignStrategy::Fdrt,
                             AssignStrategy::IssueTime}) {
        cfg.assign.strategy = s;
        insts[i++] = CtcpSimulator(cfg, p).run().instructions;
    }
    EXPECT_EQ(insts[0], insts[1]);
    EXPECT_EQ(insts[0], insts[2]);
    EXPECT_EQ(insts[0], insts[3]);
}

/** A finished run's result and its full stats text. */
struct Run
{
    SimResult result;
    std::string statsText;
};

Run
runToEnd(const SimConfig &cfg, const Program &p)
{
    CtcpSimulator sim(cfg, p);
    Run run{sim.run(), ""};
    run.statsText = sim.statsText();
    return run;
}

/**
 * Run the same (config, program) with memoized dispatch plans on and
 * off and return both runs. The plan cache is a pure performance
 * memo — every observable stat must be byte-identical either way.
 */
std::pair<Run, Run>
runPlansOnOff(SimConfig cfg, const Program &p)
{
    cfg.debug.disableDispatchPlans = false;
    Run with_plans = runToEnd(cfg, p);
    cfg.debug.disableDispatchPlans = true;
    Run without_plans = runToEnd(cfg, p);
    return {std::move(with_plans), std::move(without_plans)};
}

TEST(Simulator, DispatchPlanCacheInvisibleAllStrategies)
{
    Program p = workloadLikeLoop();
    SimConfig cfg = quickConfig();
    cfg.instructionLimit = 30000;
    for (AssignStrategy s :
         {AssignStrategy::BaseSlotOrder, AssignStrategy::Friendly,
          AssignStrategy::Fdrt, AssignStrategy::IssueTime,
          AssignStrategy::Adaptive}) {
        cfg.assign.strategy = s;
        const auto [planned, replanned] = runPlansOnOff(cfg, p);
        EXPECT_EQ(planned.result.toJson(), replanned.result.toJson())
            << "strategy " << planned.result.strategy;
        EXPECT_EQ(planned.statsText, replanned.statsText)
            << "strategy " << planned.result.strategy;
    }
}

/**
 * A loop whose body spans many basic blocks: each never-taken forward
 * branch ends a block, so one iteration constructs several distinct
 * trace lines — enough identities to thrash a tiny trace cache.
 */
Program
multiTraceLoop()
{
    ProgramBuilder b("multitrace");
    b.movi(intReg(1), 2000);
    b.movi(intReg(2), 0);
    b.movi(intReg(3), 0);
    b.label("top");
    for (int k = 0; k < 12; ++k) {
        b.addi(intReg(2), intReg(2), k + 1);
        b.xor_(intReg(3), intReg(3), intReg(2));
        b.add(intReg(4), intReg(3), intReg(2));
        b.bne(zeroReg, zeroReg, "skip" + std::to_string(k));
        b.label("skip" + std::to_string(k));
    }
    b.addi(intReg(1), intReg(1), -1);
    b.bne(intReg(1), zeroReg, "top");
    b.halt();
    return b.build();
}

TEST(Simulator, DispatchPlanCacheSurvivesTraceCacheEviction)
{
    // A deliberately tiny direct-mapped trace cache churns lines
    // constantly, so fetch keeps replaying plans from refilled lines.
    // Replayed bytes must match what the fill unit would recompute —
    // this is the invalidation contract: a plan lives and dies with
    // its trace line.
    Program p = multiTraceLoop();
    SimConfig cfg = quickConfig();
    cfg.instructionLimit = 30000;
    cfg.assign.strategy = AssignStrategy::Fdrt;
    cfg.frontEnd.traceCache.entries = 2;
    cfg.frontEnd.traceCache.assoc = 1;
    const auto [planned, replanned] = runPlansOnOff(cfg, p);
    // tc.evictions is not in the curated metrics map; pull it out of
    // the full stats dump to prove the config really churns lines.
    const std::size_t at = planned.statsText.find("tc.evictions");
    ASSERT_NE(at, std::string::npos);
    const double evicts = std::strtod(
        planned.statsText.c_str() + at + std::strlen("tc.evictions"),
        nullptr);
    EXPECT_GT(evicts, 0.0)
        << "config failed to provoke trace-cache eviction";
    EXPECT_EQ(planned.result.toJson(), replanned.result.toJson());
    EXPECT_EQ(planned.statsText, replanned.statsText);
}

TEST(Simulator, DispatchPlanCacheInvisibleAcrossAdaptiveSwitches)
{
    // The adaptive chooser swaps the assignment policy mid-run; plans
    // stamped before a switch may only be replayed while their line
    // survives, and the switch flushes construction state. On/off runs
    // must still agree byte for byte through real switches.
    Program p = workloadLikeLoop();
    SimConfig cfg = quickConfig();
    cfg.instructionLimit = 60000;
    cfg.assign.strategy = AssignStrategy::Adaptive;
    cfg.assign.adaptiveInterval = 1000;
    cfg.assign.adaptiveHysteresis = 1;
    const auto [planned, replanned] = runPlansOnOff(cfg, p);
    const auto intervals =
        planned.result.metrics.find("adaptive.intervals");
    ASSERT_NE(intervals, planned.result.metrics.end());
    EXPECT_GT(intervals->second, 1.0)
        << "run too short to exercise the adaptive chooser";
    EXPECT_EQ(planned.result.toJson(), replanned.result.toJson());
    EXPECT_EQ(planned.statsText, replanned.statsText);
}

TEST(Simulator, JsonOutputWellFormedAndComplete)
{
    Program p = loopProgram(5000);
    SimConfig cfg = quickConfig();
    cfg.assign.strategy = AssignStrategy::Fdrt;
    SimResult r = CtcpSimulator(cfg, p).run();
    const std::string json = r.toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json[json.size() - 2], '}');
    for (const char *key :
         {"\"benchmark\"", "\"strategy\"", "\"cycles\"", "\"ipc\"",
          "\"pct_intra_cluster_fwd\"", "\"fdrt_option_a_pct\"",
          "\"mispredicts\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    // No trailing comma before the closing brace.
    EXPECT_EQ(json.find(",\n}"), std::string::npos);
}

TEST(Simulator, PipelineTraceRecordsStages)
{
    // The Chrome trace is the pipeline trace: one event per line, with
    // trace-cache fetches marked by a nonzero arg0.
    Program p = loopProgram(500);
    SimConfig cfg = quickConfig();
    cfg.obs.traceEventsPath = test::tmpPath("pipeline_trace.json");
    CtcpSimulator(cfg, p).run();

    std::ifstream in(cfg.obs.traceEventsPath);
    ASSERT_TRUE(in);
    std::set<std::string> kinds;
    std::size_t tc_fetches = 0, ic_fetches = 0;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t at = line.find("\"cat\":\"");
        if (at == std::string::npos)
            continue;
        const std::size_t from = at + 7;
        const std::string kind =
            line.substr(from, line.find('"', from) - from);
        kinds.insert(kind);
        if (kind == "fetch")
            ++(line.find("\"arg0\":1") != std::string::npos ? tc_fetches
                                                             : ic_fetches);
    }
    EXPECT_GT(ic_fetches, 0u);   // cold start: the I-cache delivers
    EXPECT_GT(tc_fetches, 0u);   // steady state: the trace cache does
    for (const char *stage :
         {"fetch", "rename", "issue", "execute", "complete", "retire"})
        EXPECT_EQ(kinds.count(stage), 1u) << stage;
}

TEST(Simulator, FillLatencyToleratedAtScale)
{
    // The paper's Section 4 claim: a large fill-unit latency has only
    // a small effect because trace construction is off the critical
    // path. Verify 1000 cycles costs < 10% on a steady-state loop.
    Program p = workloadLikeLoop();
    SimConfig fast = quickConfig();
    fast.assign.strategy = AssignStrategy::Fdrt;
    fast.instructionLimit = 100000;
    SimConfig slow = fast;
    slow.frontEnd.traceCache.fillLatency = 1000;
    const SimResult rf = CtcpSimulator(fast, p).run();
    const SimResult rs = CtcpSimulator(slow, p).run();
    // Within a few percent either way: second-order timing effects can
    // even make the delayed configuration marginally faster.
    EXPECT_GT(static_cast<double>(rs.cycles),
              static_cast<double>(rf.cycles) * 0.90);
    EXPECT_LT(static_cast<double>(rs.cycles),
              static_cast<double>(rf.cycles) * 1.10);
}

TEST(ConfigValidation, RejectsInconsistentGeometry)
{
    SimConfig cfg = baseConfig();
    cfg.frontEnd.fetchWidth = 8;   // != numClusters * clusterWidth
    EXPECT_THROW(cfg.validate(), SimError);

    SimConfig cfg2 = baseConfig();
    cfg2.frontEnd.traceCache.entries = 1000;   // not a power of two / assoc
    EXPECT_THROW(cfg2.validate(), SimError);
}

TEST(ConfigValidation, RejectsMachinesWiderThanSixtyFourSlots)
{
    // Retire-time placement keeps a trace in 64-bit masks. The width
    // is checked in 64 bits: 8 x 2^29 wraps the unsigned product to 0.
    for (unsigned width : {536870912u, 100000u, 9u}) {
        SimConfig cfg = baseConfig();
        applyMachineScale(cfg, 8, width);
        try {
            cfg.validate();
            ADD_FAILURE() << "8 x " << width << " validated";
        } catch (const SimError &e) {
            EXPECT_EQ(e.category(), ErrorCategory::Config);
            EXPECT_NE(std::string(e.what()).find("64-slot"),
                      std::string::npos)
                << e.what();
        }
    }
    SimConfig widest = baseConfig();
    applyMachineScale(widest, 8, 8);
    widest.validate();   // 8 x 8 = 64 is the widest machine
}

TEST(ConfigValidation, PresetsAreValid)
{
    baseConfig().validate();
    ringConfig().validate();
    oneCycleForwardConfig().validate();
    twoClusterConfig().validate();
    busConfig().validate();
    eightClusterConfig().validate();
    EXPECT_EQ(twoClusterConfig().cluster.numClusters, 2u);
    EXPECT_EQ(twoClusterConfig().frontEnd.fetchWidth, 8u);
    EXPECT_EQ(ringConfig().cluster.topology, Topology::Ring);
    EXPECT_EQ(oneCycleForwardConfig().cluster.hopLatency, 1u);
    EXPECT_EQ(busConfig().cluster.topology, Topology::Bus);
    EXPECT_EQ(eightClusterConfig().frontEnd.fetchWidth, 32u);
    // The one name table behind --preset and preset=: the Figure 8
    // "mesh" is the ring, and unknown names have no factory.
    EXPECT_EQ(presetFactory("mesh"), &ringConfig);
    EXPECT_EQ(presetFactory("bus"), &busConfig);
    EXPECT_EQ(presetFactory("torus"), nullptr);
}

TEST(Simulator, BusSerializesBroadcasts)
{
    // With a one-broadcast-per-cycle bus, inter-cluster-heavy code
    // must be slower than on the point-to-point network, and the
    // intra-cluster share of forwards is unaffected by topology
    // under identical (base) placement.
    Program p = loopProgram(20000);
    SimConfig p2p = quickConfig();
    SimConfig bus = quickConfig();
    bus.cluster.topology = Topology::Bus;
    const SimResult rp = CtcpSimulator(p2p, p).run();
    const SimResult rb = CtcpSimulator(bus, p).run();
    EXPECT_GE(rb.cycles, rp.cycles);
    // Bus distances collapse to {0,1}.
    EXPECT_LE(rb.meanFwdDistance, 1.0);
}

TEST(Simulator, BusZeroForwardAblationRestoresSpeed)
{
    Program p = loopProgram(20000);
    SimConfig bus = quickConfig();
    bus.cluster.topology = Topology::Bus;
    SimConfig bus_free = bus;
    bus_free.ablation.zeroAllForwardLatency = true;
    const SimResult rb = CtcpSimulator(bus, p).run();
    const SimResult rf = CtcpSimulator(bus_free, p).run();
    EXPECT_LE(rf.cycles, rb.cycles);
}

TEST(Simulator, EightClusterMachineRuns)
{
    Program p = loopProgram(20000);
    SimConfig cfg = eightClusterConfig();
    cfg.instructionLimit = 0;
    const SimResult r = CtcpSimulator(cfg, p).run();
    EXPECT_EQ(r.instructions, 160004u);
    EXPECT_GT(r.ipc(), 0.1);
}

TEST(Simulator, FdrtChainsKnobChangesBehaviour)
{
    Program p = workloadLikeLoop();
    SimConfig with_chains = quickConfig();
    with_chains.assign.strategy = AssignStrategy::Fdrt;
    with_chains.instructionLimit = 60000;
    SimConfig without = with_chains;
    without.assign.fdrtChains = false;
    const SimResult rc = CtcpSimulator(with_chains, p).run();
    const SimResult rn = CtcpSimulator(without, p).run();
    // Chains disabled => no option B/C classifications at all.
    EXPECT_GT(rc.pctOptionB + rc.pctOptionC, 0.0);
    EXPECT_DOUBLE_EQ(rn.pctOptionB + rn.pctOptionC, 0.0);
}

TEST(Simulator, MeshNeverWorseOnForwardingDistance)
{
    Program p = loopProgram(20000);
    SimConfig lin = quickConfig();
    SimConfig mesh = quickConfig();
    mesh.cluster.topology = Topology::Ring;
    const SimResult rl = CtcpSimulator(lin, p).run();
    const SimResult rm = CtcpSimulator(mesh, p).run();
    EXPECT_LE(rm.meanFwdDistance, rl.meanFwdDistance + 1e-9);
}

TEST(Simulator, TwoClusterConfigRuns)
{
    Program p = loopProgram(20000);
    SimConfig cfg = twoClusterConfig();
    cfg.instructionLimit = 0;
    SimResult r = CtcpSimulator(cfg, p).run();
    EXPECT_EQ(r.instructions, 160004u);
    EXPECT_GT(r.ipc(), 0.1);
}

} // namespace
} // namespace ctcp
