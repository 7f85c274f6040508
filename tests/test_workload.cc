/**
 * @file
 * Tests for the synthetic workload suite: registry integrity and,
 * parameterized over every benchmark, functional-execution sanity
 * (long-running, self-contained, control-flow diversity) plus
 * determinism of the generated programs.
 */

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "func/executor.hh"
#include "workload/workload.hh"

namespace ctcp {
namespace {

TEST(Registry, SuiteSizesMatchThePaper)
{
    // 12 SPECint2000 programs, 14 MediaBench programs.
    EXPECT_EQ(workloads::names(workloads::Suite::SpecInt).size(), 12u);
    EXPECT_EQ(workloads::names(workloads::Suite::Media).size(), 14u);
    EXPECT_EQ(workloads::all().size(), 26u);
}

TEST(Registry, SelectedSixAreSpecPrograms)
{
    const auto &six = workloads::selectedSix();
    ASSERT_EQ(six.size(), 6u);
    const auto spec = workloads::names(workloads::Suite::SpecInt);
    for (const std::string &name : six) {
        EXPECT_TRUE(workloads::exists(name)) << name;
        EXPECT_NE(std::find(spec.begin(), spec.end(), name), spec.end())
            << name;
    }
}

TEST(Registry, NamesAreUniqueAndDescribed)
{
    std::set<std::string> seen;
    for (const auto &info : workloads::all()) {
        EXPECT_TRUE(seen.insert(info.name).second) << info.name;
        EXPECT_FALSE(info.description.empty()) << info.name;
    }
}

TEST(Registry, ExistsRejectsUnknown)
{
    EXPECT_FALSE(workloads::exists("notabenchmark"));
    EXPECT_TRUE(workloads::exists("gzip"));
}

class WorkloadSweep : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadSweep, RunsFarPastTheSimulationBudget)
{
    Program p = workloads::build(GetParam());
    Executor exec(p);
    DynInst d;
    // Every workload must sustain at least 200k instructions without
    // halting (simulations run millions).
    for (int i = 0; i < 200000; ++i)
        ASSERT_TRUE(exec.step(d)) << "halted after " << i << " instructions";
}

TEST_P(WorkloadSweep, DataImageMatchesWordByWordWrites)
{
    // The executor copies each data block a page at a time; every word
    // of every block must read as one write() per word leaves it, in
    // block order (a later block overwrites an earlier one).
    const Program p = workloads::build(GetParam());
    const Executor exec(p);
    SparseMemory reference;
    for (const DataBlock &block : p.data())
        for (std::size_t i = 0; i < block.words.size(); ++i)
            reference.write(block.base + 8 * i, block.words[i]);
    std::size_t words = 0;
    for (const DataBlock &block : p.data()) {
        for (std::size_t i = 0; i < block.words.size(); ++i, ++words) {
            const Addr addr = block.base + 8 * i;
            ASSERT_EQ(exec.memory().read(addr), reference.read(addr))
                << "block at " << block.base << ", word " << i;
        }
    }
    EXPECT_GT(words, 0u);
    EXPECT_EQ(exec.memory().residentPages(), reference.residentPages());
}

TEST_P(WorkloadSweep, ControlFlowAndMemoryDiversity)
{
    Program p = workloads::build(GetParam());
    Executor exec(p);
    DynInst d;
    std::uint64_t branches = 0, taken = 0, loads = 0, stores = 0;
    std::set<Addr> pcs;
    for (int i = 0; i < 100000; ++i) {
        exec.step(d);
        pcs.insert(d.pc);
        if (d.isBranchOp()) {
            ++branches;
            taken += d.taken;
        }
        loads += d.isLoadOp();
        stores += d.isStoreOp();
    }
    // Realistic dynamic mixes: branches present, some taken, memory
    // traffic present, and a non-trivial static footprint. (Individual
    // kernels differ deliberately: compute-bound ones are store-light.)
    EXPECT_GT(branches, 500u);
    EXPECT_GT(taken, 300u);
    EXPECT_GT(loads + stores, 1000u);
    EXPECT_GT(pcs.size(), 20u);
}

TEST_P(WorkloadSweep, DeterministicStream)
{
    Program p1 = workloads::build(GetParam());
    Program p2 = workloads::build(GetParam());
    ASSERT_EQ(p1.size(), p2.size());
    Executor e1(p1), e2(p2);
    DynInst a, b;
    for (int i = 0; i < 20000; ++i) {
        e1.step(a);
        e2.step(b);
        ASSERT_EQ(a.pc, b.pc) << "diverged at instruction " << i;
        ASSERT_EQ(a.taken, b.taken);
        ASSERT_EQ(a.effAddr, b.effAddr);
    }
}

TEST_P(WorkloadSweep, RegisterDataflowIsClosed)
{
    // Every source register read must have been written first (or be
    // a documented always-initialized register) — catches kernels that
    // read uninitialized temporaries.
    Program p = workloads::build(GetParam());
    Executor exec(p);
    DynInst d;
    std::set<RegId> written{zeroReg};
    for (int i = 0; i < 50000; ++i) {
        exec.step(d);
        if (d.hasDst())
            written.insert(d.dst);
    }
    // Re-run and check reads against the (steady-state) written set.
    Executor exec2(p);
    for (int i = 0; i < 50000; ++i) {
        exec2.step(d);
        if (i < 200)
            continue;   // allow the init preamble to complete
        if (d.hasSrc1()) {
            EXPECT_TRUE(written.count(d.src1))
                << "pc " << d.pc << " reads unwritten r" << int(d.src1);
        }
        if (d.hasSrc2()) {
            EXPECT_TRUE(written.count(d.src2))
                << "pc " << d.pc << " reads unwritten r" << int(d.src2);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadSweep,
    ::testing::ValuesIn([] {
        std::vector<std::string> names;
        for (const auto &info : workloads::all())
            names.push_back(info.name);
        return names;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace ctcp
