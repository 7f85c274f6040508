/**
 * @file
 * End-to-end exit-code contract of the ctcpsim binary:
 *
 *   0  simulation (or every campaign job) succeeded
 *   1  the simulation failed, or at least one campaign job did
 *   2  usage or configuration error
 *
 * Scripts and CI gate on these, so they are pinned by test. The
 * binary path is injected at configure time (CTCP_CTCPSIM_PATH).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "tmp_dir.hh"

namespace {

int
runCli(const std::string &args)
{
    const std::string cmd = std::string(CTCP_CTCPSIM_PATH) + " " + args +
        " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(CliExitCodes, SuccessfulRunReturnsZero)
{
    EXPECT_EQ(runCli("--bench gzip --instructions 20000"), 0);
}

TEST(CliExitCodes, SuccessfulCheckedRunReturnsZero)
{
    EXPECT_EQ(runCli("--bench gzip --instructions 20000 "
                     "--check-invariants"),
              0);
}

TEST(CliExitCodes, UsageErrorsReturnTwo)
{
    EXPECT_EQ(runCli("--no-such-flag"), 2);
    EXPECT_EQ(runCli("--bench no_such_bench"), 2);
    EXPECT_EQ(runCli("--strategy warp-speed"), 2);
    EXPECT_EQ(runCli("--deadline -3"), 2);
    EXPECT_EQ(runCli("--max-attempts 0"), 2);
    // --journal only makes sense with --campaign.
    EXPECT_EQ(runCli("--journal " + ctcp::test::tmpPath("usage.jsonl") +
                     " --bench gzip --instructions 1000"),
              2);
    // slots= bounds are checked before a range is expanded: a huge
    // range is a config error, not an allocation abort, and a range
    // ending at SIZE_MAX cannot wrap into an endless loop.
    EXPECT_EQ(runCli("--campaign 'bench=gzip;slots=0-400000000'"), 2);
    EXPECT_EQ(runCli("--campaign 'bench=gzip;slots="
                     "18446744073709551614-18446744073709551615'"),
              2);
}

TEST(CliExitCodes, BadIntervalReturnsTwo)
{
    // --interval validation mirrors --jobs: reject junk up front with
    // a usage error instead of silently simulating with a bad period.
    const std::string run = "--bench gzip --instructions 1000 "
                            "--interval-stats " +
        ctcp::test::tmpPath("iv.csv") + " ";
    EXPECT_EQ(runCli(run + "--interval 0"), 2);
    EXPECT_EQ(runCli(run + "--interval -100"), 2);
    EXPECT_EQ(runCli(run + "--interval ten"), 2);
    EXPECT_EQ(runCli(run + "--interval 100x"), 2);
    EXPECT_EQ(runCli(run + "--interval 1000000000000000"), 2);
    EXPECT_EQ(runCli(run + "--interval 500"), 0);
}

TEST(CliExitCodes, BadTraceFilterReturnsTwo)
{
    EXPECT_EQ(runCli("--bench gzip --instructions 1000 "
                     "--trace-filter fetch,warp"),
              2);
}

TEST(CliExitCodes, AccountingRunReturnsZero)
{
    EXPECT_EQ(runCli("--bench gzip --instructions 20000 --accounting "
                     "--json"),
              0);
}

TEST(CliExitCodes, SimulationFailureReturnsOne)
{
    // A micro deadline always expires before the budget does.
    EXPECT_EQ(runCli("--bench gzip --instructions 2000000 "
                     "--deadline 0.000001"),
              1);
}

TEST(CliExitCodes, FailedCampaignJobsReturnOne)
{
    EXPECT_EQ(runCli("--campaign 'bench=gzip;strategy=base;"
                     "budget=2000000' --jobs 1 --deadline 0.000001"),
              1);
}

TEST(CliExitCodes, HealthyCampaignReturnsZero)
{
    EXPECT_EQ(runCli("--campaign 'bench=gzip;strategy=base;"
                     "budget=10000' --jobs 2"),
              0);
}

TEST(CliJournal, KilledCampaignResumesAndExportsIdenticalReport)
{
    // The full crash/resume walkthrough, driven through the real
    // binary: run with a journal, "lose" the last record as a kill
    // mid-append would, resume, and compare the exported report with
    // an uninterrupted run's.
    const std::string journal = ctcp::test::tmpPath("journal.jsonl");
    const std::string out1 = ctcp::test::tmpPath("out1.json");
    const std::string out2 = ctcp::test::tmpPath("out2.json");
    std::remove(journal.c_str()); // an earlier repeat's complete journal

    const std::string matrix =
        "--campaign 'bench=gzip;strategy=base,fdrt;budget=10000' "
        "--jobs 1 ";
    ASSERT_EQ(runCli(matrix + "--out " + out1), 0);
    ASSERT_EQ(runCli(matrix + "--journal " + journal), 0);

    // Drop the tail of the journal (simulated kill), then resume.
    std::FILE *f = std::fopen(journal.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    ASSERT_GT(size, 200L);
    ASSERT_EQ(truncate(journal.c_str(), size - 150), 0);
    std::fclose(f);

    ASSERT_EQ(runCli(matrix + "--journal " + journal + " --out " + out2),
              0);

    auto slurp = [](const std::string &path) {
        std::string text;
        std::FILE *file = std::fopen(path.c_str(), "rb");
        EXPECT_NE(file, nullptr) << path;
        if (!file)
            return text;
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0)
            text.append(buf, n);
        std::fclose(file);
        return text;
    };
    const std::string a = slurp(out1);
    const std::string b = slurp(out2);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

} // namespace
