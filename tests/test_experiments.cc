/**
 * @file
 * The experiments binary end to end: `experiments all 20000 2` must
 * print tests/golden/experiments_20000.txt byte for byte (every
 * reproduced table, figure, ablation and the topology sweep), and bad
 * command lines must exit 2.
 *
 * If a timing-model change moves the numbers on purpose, regenerate
 * the golden file with
 *
 *   CTCP_REGEN_GOLDEN=1 ./build/tests/test_experiments
 *
 * and commit it together with the change. The binary and golden paths
 * are injected at configure time.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/wait.h>

namespace {

/** Run the binary with @p args; its exit status, stdout in @p out. */
int
runExperiments(const std::string &args, std::string *out = nullptr)
{
    const std::string cmd = std::string(CTCP_EXPERIMENTS_PATH) + " " +
        args + " 2>/dev/null";
    std::FILE *pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return -1;
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        text.append(buf, n);
    const int rc = ::pclose(pipe);
    if (out != nullptr)
        *out = text;
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
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

TEST(Experiments, AllMatchesGoldenOutput)
{
    std::string fresh;
    ASSERT_EQ(runExperiments("all 20000 2", &fresh), 0);

    const std::string path = CTCP_EXPERIMENTS_GOLDEN_PATH;
    if (const char *regen = std::getenv("CTCP_REGEN_GOLDEN");
        regen && *regen) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr) << "cannot write " << path;
        std::fwrite(fresh.data(), 1, fresh.size(), f);
        std::fclose(f);
        GTEST_SKIP() << "regenerated " << path;
    }

    std::string golden;
    ASSERT_TRUE(readFile(path, golden)) << "missing golden file " << path;
    if (fresh == golden)
        return;
    std::size_t line = 1;
    std::size_t i = 0;
    while (i < fresh.size() && i < golden.size() && fresh[i] == golden[i])
        line += fresh[i++] == '\n';
    FAIL() << "experiments output differs from " << path
           << " at line " << line
           << "; if the change is intentional, regenerate with "
              "CTCP_REGEN_GOLDEN=1";
}

TEST(Experiments, ListNamesEveryExperiment)
{
    std::string list;
    ASSERT_EQ(runExperiments("--list", &list), 0);
    for (const char *name :
         {"table1", "table2", "table3", "fig4", "fig5", "fig6", "fig7",
          "table8", "table9", "table10", "fig8", "fig9",
          "sweep_topology", "ablation_fdrt_components",
          "ablation_interconnect", "ablation_trace_cache",
          "ablation_fill_latency"})
        EXPECT_NE(list.find(std::string(name) + " "), std::string::npos)
            << name;
}

TEST(Experiments, UsageErrorsReturnTwo)
{
    EXPECT_EQ(runExperiments(""), 2);
    EXPECT_EQ(runExperiments("no_such_experiment"), 2);
    EXPECT_EQ(runExperiments("table1 12abc"), 2);
    EXPECT_EQ(runExperiments("table1 banana"), 2);
    EXPECT_EQ(runExperiments("table1 0"), 2);
    EXPECT_EQ(runExperiments("table1 1000 -1"), 2);
    EXPECT_EQ(runExperiments("table1 1000 2 extra"), 2);
}

} // namespace
