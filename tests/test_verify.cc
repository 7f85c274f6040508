/**
 * @file
 * Robustness tests: the invariant checker, the forward-progress
 * watchdog, per-run deadlines, and crash-safe file writing. The
 * fault-injection half proves each defense actually fires: every
 * injector from src/verify corrupts exactly the state one defense
 * guards, and the matching SimError category must come out.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/atomic_file.hh"
#include "common/sim_error.hh"
#include "config/presets.hh"
#include "core/simulator.hh"
#include "tmp_dir.hh"
#include "tracecache/trace_line.hh"
#include "verify/fault.hh"
#include "verify/invariant_checker.hh"
#include "workload/workload.hh"

namespace ctcp {
namespace {

SimConfig
checkedConfig(std::uint64_t budget = 60'000, unsigned level = 1)
{
    SimConfig cfg = baseConfig();
    cfg.instructionLimit = budget;
    cfg.checkLevel = level;
    return cfg;
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return {};
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

bool
fileExists(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f)
        std::fclose(f);
    return f != nullptr;
}

TEST(SimErrorTaxonomy, NamesRoundTrip)
{
    for (ErrorCategory c :
         {ErrorCategory::Config, ErrorCategory::Workload,
          ErrorCategory::Timeout, ErrorCategory::Hang,
          ErrorCategory::Invariant, ErrorCategory::Internal})
        EXPECT_EQ(errorCategoryFromName(errorCategoryName(c)), c);
    EXPECT_EQ(errorCategoryFromName("martian"), ErrorCategory::Internal);
}

TEST(SimErrorTaxonomy, OnlyTransientCategoriesAreRetryable)
{
    // Config and invariant failures are deterministic: re-running the
    // identical job reproduces them, so retrying just burns time.
    EXPECT_FALSE(errorCategoryRetryable(ErrorCategory::Config));
    EXPECT_FALSE(errorCategoryRetryable(ErrorCategory::Invariant));
    EXPECT_TRUE(errorCategoryRetryable(ErrorCategory::Workload));
    EXPECT_TRUE(errorCategoryRetryable(ErrorCategory::Timeout));
    EXPECT_TRUE(errorCategoryRetryable(ErrorCategory::Hang));
    EXPECT_TRUE(errorCategoryRetryable(ErrorCategory::Internal));
}

TEST(SimErrorTaxonomy, CarriesCategoryAndMessage)
{
    const SimError e(ErrorCategory::Hang, "stuck at cycle 42");
    EXPECT_EQ(e.category(), ErrorCategory::Hang);
    EXPECT_STREQ(e.what(), "stuck at cycle 42");
}

TEST(InvariantChecker, CleanRunMatchesUncheckedRun)
{
    // The checker is pure observation: enabling it must not perturb a
    // single stat. Byte-compare the full dumps, all strategies.
    // Adaptive switches modes twice within this budget.
    for (AssignStrategy s :
         {AssignStrategy::BaseSlotOrder, AssignStrategy::Fdrt,
          AssignStrategy::Friendly, AssignStrategy::IssueTime,
          AssignStrategy::Adaptive}) {
        Program prog = workloads::build("gzip");
        SimConfig off = checkedConfig(40'000, 0);
        SimConfig on = checkedConfig(40'000, 1);
        off.assign.strategy = s;
        on.assign.strategy = s;
        const SimResult unchecked = CtcpSimulator(off, prog).run();
        const SimResult checked = CtcpSimulator(on, prog).run();
        EXPECT_EQ(unchecked.statsText, checked.statsText)
            << "strategy " << assignStrategyName(s);
        EXPECT_EQ(unchecked.cycles, checked.cycles);
    }
}

TEST(InvariantChecker, CatchesCorruptedReadyAt)
{
    Program prog = workloads::build("gzip");
    CtcpSimulator sim(checkedConfig(400'000), prog);
    // Warm up until the scheduler has resident work.
    for (int i = 0; i < 500 && !sim.done(); ++i)
        sim.step();

    bool injected = false;
    bool caught = false;
    try {
        for (int i = 0; i < 50'000 && !sim.done(); ++i) {
            injected |= verify::FaultInjector::corruptReadyAt(
                sim, 17 + static_cast<std::uint64_t>(i));
            sim.step();
        }
    } catch (const SimError &e) {
        caught = true;
        EXPECT_EQ(e.category(), ErrorCategory::Invariant);
        EXPECT_NE(std::string(e.what()).find("invariant"),
                  std::string::npos);
    }
    EXPECT_TRUE(injected);
    EXPECT_TRUE(caught) << "corrupted readyAt was never detected";
}

TEST(InvariantChecker, CatchesScrambledTraceLine)
{
    Program prog = workloads::build("gzip");
    CtcpSimulator sim(checkedConfig(400'000), prog);
    // Warm up until the trace cache holds lines.
    for (int i = 0; i < 3'000 && !sim.done(); ++i)
        sim.step();
    ASSERT_TRUE(verify::FaultInjector::scrambleTraceLine(sim));

    // The corrupted permutation surfaces when the (hottest) line is
    // fetched again: two instructions land in the same issue slot.
    bool caught = false;
    try {
        for (int i = 0; i < 200'000 && !sim.done(); ++i)
            sim.step();
    } catch (const SimError &e) {
        caught = true;
        EXPECT_EQ(e.category(), ErrorCategory::Invariant);
    }
    EXPECT_TRUE(caught) << "scrambled trace line was never detected";
}

TEST(InvariantChecker, CatchesInstructionInInactiveIssueStructure)
{
    // Slot mode (cluster queues) and issue-time mode (issue queue):
    // an instruction left in the other structure must be reported.
    for (AssignStrategy s :
         {AssignStrategy::BaseSlotOrder, AssignStrategy::IssueTime}) {
        Program prog = workloads::build("gzip");
        SimConfig cfg = checkedConfig();
        cfg.assign.strategy = s;
        CtcpSimulator sim(cfg, prog);
        bool injected = false;
        for (int i = 0; i < 5'000 && !injected && !sim.done(); ++i) {
            sim.step();
            injected = verify::FaultInjector::strandIssueEntry(sim);
        }
        ASSERT_TRUE(injected) << assignStrategyName(s);
        verify::InvariantChecker checker(1, 4, 4);
        try {
            checker.checkCycle(sim);
            ADD_FAILURE() << "stranded instruction was not detected ("
                          << assignStrategyName(s) << ")";
        } catch (const SimError &e) {
            EXPECT_EQ(e.category(), ErrorCategory::Invariant);
            EXPECT_NE(std::string(e.what()).find("queue"),
                      std::string::npos);
        }
    }
}

TEST(InvariantChecker, RejectsDuplicatePhysicalSlotDirectly)
{
    verify::InvariantChecker checker(1, 4, 4);
    TraceLine line;
    line.valid = true;
    line.insts.resize(3);
    line.insts[0].physSlot = 2;
    line.insts[1].physSlot = 7;
    line.insts[2].physSlot = 9;
    checker.checkTraceLine(line); // distinct slots: fine

    line.insts[2].physSlot = 7;   // collision
    EXPECT_THROW(checker.checkTraceLine(line), SimError);
    line.insts[2].physSlot = 16;  // outside a 16-wide machine
    EXPECT_THROW(checker.checkTraceLine(line), SimError);
}

TEST(Watchdog, StalledRetirementAbortsWithHang)
{
    const std::string trace = test::tmpPath("watchdog_trace.txt");
    std::remove(trace.c_str());

    Program prog = workloads::build("gzip");
    SimConfig cfg = checkedConfig(1'000'000, 0);
    cfg.watchdogCycles = 3'000;
    cfg.obs.traceTextPath = trace;
    cfg.obs.traceFilter = "snapshot";
    {
        CtcpSimulator sim(cfg, prog);
        verify::FaultInjector::stallRetirement(sim, true);
        try {
            sim.run();
            FAIL() << "stalled pipeline did not trip the watchdog";
        } catch (const SimError &e) {
            EXPECT_EQ(e.category(), ErrorCategory::Hang);
            EXPECT_NE(std::string(e.what()).find("no instruction"),
                      std::string::npos);
        }
    }
    // The abort dumped a pipeline-state snapshot through the obs sink.
    const std::string dumped = readFile(trace);
    EXPECT_NE(dumped.find("snapshot"), std::string::npos);
    EXPECT_NE(dumped.find("rob"), std::string::npos);
    std::remove(trace.c_str());
}

TEST(Watchdog, DisabledWatchdogLetsHealthyRunsFinish)
{
    Program prog = workloads::build("gzip");
    SimConfig cfg = checkedConfig(20'000, 0);
    cfg.watchdogCycles = 0;
    const SimResult r = CtcpSimulator(cfg, prog).run();
    EXPECT_GE(r.instructions, 20'000u);
}

TEST(Deadline, OverrunningRunTimesOut)
{
    Program prog = workloads::build("gzip");
    SimConfig cfg = checkedConfig(2'000'000, 0);
    cfg.deadlineSeconds = 1e-6; // expired by the first periodic check
    try {
        CtcpSimulator(cfg, prog).run();
        FAIL() << "deadline never fired";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Timeout);
    }
}

TEST(AtomicFile, CommitPublishesContent)
{
    const std::string path = test::tmpPath("atomic_commit.txt");
    std::remove(path.c_str());
    {
        AtomicFile f(path);
        f.write(std::string("published"));
        EXPECT_FALSE(fileExists(path)) << "visible before commit";
        f.commit();
    }
    EXPECT_EQ(readFile(path), "published");
    EXPECT_FALSE(fileExists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(AtomicFile, AbandonedWriterPreservesPreviousContent)
{
    const std::string path = test::tmpPath("atomic_keep.txt");
    atomicWriteFile(path, "old version");
    {
        AtomicFile f(path);
        f.write(std::string("half-written new ver"));
        // Destroyed without commit(): simulates a run dying mid-write.
    }
    EXPECT_EQ(readFile(path), "old version");
    EXPECT_FALSE(fileExists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(AtomicFile, OneShotHelperRoundTrips)
{
    const std::string path = test::tmpPath("atomic_oneshot.txt");
    atomicWriteFile(path, "first");
    atomicWriteFile(path, "second");
    EXPECT_EQ(readFile(path), "second");
    std::remove(path.c_str());
}

} // namespace
} // namespace ctcp
