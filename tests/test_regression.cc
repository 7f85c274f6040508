/**
 * @file
 * Golden-value regression tests.
 *
 * The simulator is fully deterministic, so exact cycle counts for a
 * fixed (benchmark, strategy, budget) triple are stable across runs
 * and hosts. These tests pin a sample of them so that unintended
 * timing-model changes are caught immediately.
 *
 * If you change the timing model ON PURPOSE, re-derive the constants:
 * run each configuration below and paste the new numbers, noting the
 * model change in your commit message.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "config/presets.hh"
#include "core/simulator.hh"
#include "workload/workload.hh"

namespace ctcp {
namespace {

struct Golden
{
    const char *benchmark;
    int strategy;            // AssignStrategy enumerator value
    std::uint64_t cycles;
    std::uint64_t instructions;
};

// Baseline machine, 50k-instruction budget, default knobs.
constexpr Golden goldens[] = {
    {"gzip", 0, 45474ull, 50002ull},
    {"gzip", 1, 36266ull, 50002ull},
    {"gzip", 2, 34584ull, 50004ull},
    {"gzip", 3, 36996ull, 50002ull},
    {"twolf", 0, 57932ull, 50000ull},
    {"twolf", 1, 51154ull, 50000ull},
    {"twolf", 2, 52381ull, 50001ull},
    {"twolf", 3, 51704ull, 50005ull},
    {"mcf", 0, 33650ull, 50005ull},
    {"mcf", 1, 23740ull, 50005ull},
    {"mcf", 2, 24161ull, 50006ull},
    {"mcf", 3, 26694ull, 50003ull},
    {"adpcm_enc", 0, 77838ull, 50007ull},
    {"adpcm_enc", 1, 77547ull, 50007ull},
    {"adpcm_enc", 2, 82534ull, 50005ull},
    {"adpcm_enc", 3, 89840ull, 50007ull},
};

// gtest would otherwise print the parameter as raw bytes, including the
// address of the benchmark name, which differs on every run under ASLR
// and would give the discovered test names a random suffix.
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.benchmark << '/'
        << assignStrategyName(static_cast<AssignStrategy>(g.strategy));
}

class GoldenRegression : public ::testing::TestWithParam<Golden>
{};

TEST_P(GoldenRegression, ExactCycleCount)
{
    const Golden &g = GetParam();
    SimConfig cfg = baseConfig();
    cfg.assign.strategy = static_cast<AssignStrategy>(g.strategy);
    cfg.instructionLimit = 50'000;
    Program p = workloads::build(g.benchmark);
    const SimResult r = CtcpSimulator(cfg, p).run();
    EXPECT_EQ(r.cycles, g.cycles);
    EXPECT_EQ(r.instructions, g.instructions);
}

INSTANTIATE_TEST_SUITE_P(
    Baseline, GoldenRegression, ::testing::ValuesIn(goldens),
    [](const ::testing::TestParamInfo<Golden> &info) {
        std::string name = std::string(info.param.benchmark) + "_" +
            assignStrategyName(
                static_cast<AssignStrategy>(info.param.strategy));
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

// The adaptive strategy once deadlocked at a mode switch: renamed,
// unissued instructions stayed in the old mode's structure, and the
// younger ones that the other structure issued first filled every
// reservation station they needed. Each point below hung at the
// watchdog before the fix; its budget runs past the hang.
struct AdaptiveSwitchPoint
{
    const char *benchmark;
    Topology topology;
    std::uint64_t budget;
};

constexpr AdaptiveSwitchPoint adaptiveSwitchPoints[] = {
    {"gap", Topology::LinearChain, 20'000},
    {"gap", Topology::Ring, 20'000},
    {"gap", Topology::Crossbar, 20'000},
    {"gsm_dec", Topology::Bus, 20'000},
    {"jpeg_enc", Topology::LinearChain, 50'000},
    {"vpr", Topology::Crossbar, 220'000},
};

// Printed by name for the same reason as Golden above.
void
PrintTo(const AdaptiveSwitchPoint &point, std::ostream *os)
{
    *os << point.benchmark << '/' << topologyName(point.topology);
}

class AdaptiveModeSwitch
    : public ::testing::TestWithParam<AdaptiveSwitchPoint>
{};

TEST_P(AdaptiveModeSwitch, RunsPastTheFormerDeadlock)
{
    const AdaptiveSwitchPoint &point = GetParam();
    SimConfig cfg = baseConfig();
    cfg.assign.strategy = AssignStrategy::Adaptive;
    cfg.cluster.topology = point.topology;
    cfg.instructionLimit = point.budget;
    cfg.watchdogCycles = 100'000;   // a hang fails fast
    Program p = workloads::build(point.benchmark);
    SimResult r;
    ASSERT_NO_THROW(r = CtcpSimulator(cfg, p).run());
    EXPECT_GE(r.instructions, point.budget);
}

INSTANTIATE_TEST_SUITE_P(
    FormerHangs, AdaptiveModeSwitch,
    ::testing::ValuesIn(adaptiveSwitchPoints),
    [](const ::testing::TestParamInfo<AdaptiveSwitchPoint> &info) {
        return std::string(info.param.benchmark) + "_" +
            topologyName(info.param.topology);
    });

} // namespace
} // namespace ctcp
