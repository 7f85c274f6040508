/**
 * @file
 * Golden-stats regression test: the headline metrics of the four
 * assignment strategies on two workloads at a fixed instruction budget
 * must match the checked-in golden JSON byte-for-byte.
 *
 * The golden matrix is small on purpose — two workloads, 50k
 * instructions — so the suite stays fast while still covering every
 * strategy's end-to-end statistics path.
 *
 * To regenerate after an intentional behaviour change:
 *
 *   CTCP_REGEN_GOLDEN=1 ./build/tests/test_golden_stats
 *
 * then commit the updated tests/golden/golden_stats.json together with
 * the change that moved the numbers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/matrix.hh"

#ifndef CTCP_GOLDEN_STATS_PATH
#error "CTCP_GOLDEN_STATS_PATH must point at tests/golden/golden_stats.json"
#endif
#ifndef CTCP_GOLDEN_TOPOLOGY_PATH
#error "CTCP_GOLDEN_TOPOLOGY_PATH must point at tests/golden/golden_topology.json"
#endif
#ifndef CTCP_GOLDEN_ADAPTIVE_PATH
#error "CTCP_GOLDEN_ADAPTIVE_PATH must point at tests/golden/golden_adaptive.json"
#endif
#ifndef CTCP_GOLDEN_SHAPES_PATH
#error "CTCP_GOLDEN_SHAPES_PATH must point at tests/golden/golden_shapes.json"
#endif
#ifndef CTCP_GOLDEN_BUS_PATH
#error "CTCP_GOLDEN_BUS_PATH must point at tests/golden/golden_bus.json"
#endif

namespace ctcp {
namespace {

constexpr const char *goldenMatrix =
    "bench=gzip,twolf;strategy=base,friendly,fdrt,issue-time;"
    "budget=50000";

/**
 * The non-default interconnects get their own golden so a topology
 * regression cannot hide behind the (unchanged) linear-chain file.
 * Kept separate from goldenMatrix on purpose: that file predates the
 * topology axis and must stay byte-identical.
 */
constexpr const char *goldenTopologyMatrix =
    "bench=gzip;strategy=base,fdrt;preset=ring,crossbar;budget=50000";

/**
 * The adaptive chooser completes the five-strategy coverage: its
 * interval sampling, hysteresis, and mid-run policy switches all sit
 * on top of the memoized dispatch plans and pooled TimedInst storage,
 * so byte-identity here is what certifies those caches stay invisible
 * under the most stateful strategy.
 */
constexpr const char *goldenAdaptiveMatrix =
    "bench=gzip,twolf;strategy=adaptive;budget=50000";

/**
 * The other three goldens all run the 4-cluster, 16-wide machine. The
 * retire-time placement masks and FDRT's per-cluster tables also
 * serve 8- and 32-wide machines, so the two reordering policies get a
 * golden on the 2- and 8-cluster shapes.
 */
constexpr const char *goldenShapesMatrix =
    "bench=gzip,twolf;strategy=friendly,fdrt;clusters=2,8;budget=50000";

/**
 * The shared result bus is the only interconnect whose timing depends
 * on arbitration: completing producers compete for its broadcast slots
 * each cycle. It gets its own golden over every cluster count and the
 * strategies with distinct issue paths (slot queues, retire-time
 * placement, issue-time steering and the mode-switching chooser).
 */
constexpr const char *goldenBusMatrix =
    "bench=gzip,twolf;strategy=base,fdrt,issue-time:4,adaptive;"
    "topology=bus;clusters=2,4,8;budget=20000";

std::string
generateGolden(const char *matrix)
{
    const std::vector<campaign::Job> jobs =
        campaign::parseMatrix(matrix);
    const campaign::Report report = campaign::runCampaign(jobs);
    EXPECT_EQ(report.failed(), 0u);
    return report.toJson();
}

bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return true;
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t end = text.find('\n', start);
        if (end == std::string::npos) {
            out.push_back(text.substr(start));
            break;
        }
        out.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

void
checkAgainstGolden(const std::string &path, const char *matrix)
{
    const std::string fresh = generateGolden(matrix);

    if (const char *regen = std::getenv("CTCP_REGEN_GOLDEN");
        regen && *regen) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr) << "cannot write " << path;
        std::fwrite(fresh.data(), 1, fresh.size(), f);
        std::fclose(f);
        GTEST_SKIP() << "regenerated golden stats at " << path;
    }

    std::string golden;
    ASSERT_TRUE(readFile(path, golden))
        << "missing golden file " << path
        << " — run with CTCP_REGEN_GOLDEN=1 to create it";

    if (fresh == golden) {
        SUCCEED();
        return;
    }

    // Byte-level mismatch: report the first differing line so the
    // regression is actionable without manual diffing.
    const std::vector<std::string> fresh_lines = lines(fresh);
    const std::vector<std::string> golden_lines = lines(golden);
    const std::size_t n =
        std::min(fresh_lines.size(), golden_lines.size());
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(fresh_lines[i], golden_lines[i])
            << "first difference at line " << (i + 1)
            << " (golden above, measured below); if the change is "
               "intentional, regenerate with CTCP_REGEN_GOLDEN=1";
    }
    FAIL() << "golden stats line count changed: golden has "
           << golden_lines.size() << " lines, measured has "
           << fresh_lines.size()
           << "; regenerate with CTCP_REGEN_GOLDEN=1 if intentional";
}

TEST(GoldenStats, HeadlineMetricsMatchGoldenFile)
{
    checkAgainstGolden(CTCP_GOLDEN_STATS_PATH, goldenMatrix);
}

TEST(GoldenStats, TopologyMetricsMatchGoldenFile)
{
    checkAgainstGolden(CTCP_GOLDEN_TOPOLOGY_PATH, goldenTopologyMatrix);
}

TEST(GoldenStats, AdaptiveMetricsMatchGoldenFile)
{
    checkAgainstGolden(CTCP_GOLDEN_ADAPTIVE_PATH, goldenAdaptiveMatrix);
}

TEST(GoldenStats, ShapesMetricsMatchGoldenFile)
{
    checkAgainstGolden(CTCP_GOLDEN_SHAPES_PATH, goldenShapesMatrix);
}

TEST(GoldenStats, BusMetricsMatchGoldenFile)
{
    checkAgainstGolden(CTCP_GOLDEN_BUS_PATH, goldenBusMatrix);
}

TEST(GoldenStats, GoldenFileCoversTheFullMatrix)
{
    std::string golden;
    if (!readFile(CTCP_GOLDEN_STATS_PATH, golden))
        GTEST_SKIP() << "golden file not generated yet";
    for (const char *label :
         {"gzip/base/base", "gzip/base/friendly", "gzip/base/fdrt",
          "gzip/base/issue-time", "twolf/base/base",
          "twolf/base/friendly", "twolf/base/fdrt",
          "twolf/base/issue-time"})
        EXPECT_NE(golden.find(std::string("\"label\": \"") + label +
                              "\""),
                  std::string::npos)
            << label;
    EXPECT_EQ(golden.find("\"status\": \"failed\""), std::string::npos);
}

TEST(GoldenStats, TopologyGoldenCoversTheFullMatrix)
{
    std::string golden;
    if (!readFile(CTCP_GOLDEN_TOPOLOGY_PATH, golden))
        GTEST_SKIP() << "topology golden file not generated yet";
    for (const char *label :
         {"gzip/ring/base", "gzip/ring/fdrt", "gzip/crossbar/base",
          "gzip/crossbar/fdrt"})
        EXPECT_NE(golden.find(std::string("\"label\": \"") + label +
                              "\""),
                  std::string::npos)
            << label;
    EXPECT_EQ(golden.find("\"status\": \"failed\""), std::string::npos);
}

} // namespace
} // namespace ctcp
