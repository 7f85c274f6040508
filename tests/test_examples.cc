/**
 * @file
 * Smoke test of the two API demos under examples/: each runs to exit 0
 * and prints its headline line, and quickstart rejects a malformed
 * budget with exit 2 instead of reading it as 0 ("run to halt"). The
 * binary paths are injected at configure time.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <sys/wait.h>

namespace {

struct Output
{
    int status = -1;
    std::string stdoutText;
};

Output
run(const std::string &cmd)
{
    Output out;
    FILE *pipe = ::popen((cmd + " 2>/dev/null").c_str(), "r");
    if (!pipe)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.stdoutText.append(buf, n);
    const int rc = ::pclose(pipe);
    out.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    return out;
}

TEST(Examples, QuickstartPrintsHeadline)
{
    const Output out =
        run(std::string(CTCP_QUICKSTART_PATH) + " gzip 20000");
    EXPECT_EQ(out.status, 0);
    EXPECT_EQ(out.stdoutText.rfind("benchmark     : gzip\n", 0), 0u)
        << out.stdoutText;
    EXPECT_NE(out.stdoutText.find("IPC           : "), std::string::npos);
}

TEST(Examples, QuickstartRejectsMalformedBudget)
{
    for (const char *bad : {"banana", "-5", "12abc", "''",
                            "18446744073709551616"})
        EXPECT_EQ(run(std::string(CTCP_QUICKSTART_PATH) + " gzip " + bad)
                      .status,
                  2)
            << bad;
    EXPECT_EQ(
        run(std::string(CTCP_QUICKSTART_PATH) + " no_such_bench 1000")
            .status,
        2);
}

TEST(Examples, CustomWorkloadPrintsBothStrategies)
{
    const Output out = run(CTCP_CUSTOM_WORKLOAD_PATH);
    EXPECT_EQ(out.status, 0);
    EXPECT_EQ(out.stdoutText.rfind("custom workload 'histogram': ", 0), 0u)
        << out.stdoutText;
    EXPECT_NE(out.stdoutText.find("\nbase "), std::string::npos);
    EXPECT_NE(out.stdoutText.find("\nfdrt "), std::string::npos);
}

} // namespace
