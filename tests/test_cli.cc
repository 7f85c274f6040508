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

/** ctcpsim's stderr for @p args (stdout discarded). */
std::string
cliStderr(const std::string &args)
{
    std::string out;
    const std::string cmd = std::string(CTCP_CTCPSIM_PATH) + " " + args +
        " 2>&1 >/dev/null";
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (!pipe)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    ::pclose(pipe);
    return out;
}

TEST(CliExitCodes, SuccessfulRunReturnsZero)
{
    EXPECT_EQ(runCli("--bench gzip --instructions 20000"), 0);
    // Every numeric flag, with a valid value.
    EXPECT_EQ(runCli("--bench gzip --instructions 20000 --clusters 2 "
                     "--cluster-width 4 --hop-latency 1 "
                     "--strategy adaptive --adaptive-interval 4000 "
                     "--issue-latency 2 --watchdog 500000 --deadline 2.5"),
              0);
    // A deadline of 0 is no deadline.
    EXPECT_EQ(runCli("--bench gzip --instructions 1000 --deadline 0"), 0);
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
    // Numeric flags take decimal digits only, within their field's
    // range: no numeric prefix of junk, no 0 for a word, no sign, no
    // wrap-around. A valid --instructions 1000 keeps a regression
    // short (the last --instructions wins).
    EXPECT_EQ(runCli("--instructions 12abc"), 2);
    EXPECT_EQ(runCli("--instructions banana --instructions 1000"), 2);
    EXPECT_EQ(runCli("--instructions -1 --instructions 1000"), 2);
    EXPECT_EQ(runCli("--instructions 18446744073709551616 "
                     "--instructions 1000"),
              2);
    EXPECT_EQ(runCli("--instructions 1000 --hop-latency abc"), 2);
    EXPECT_EQ(runCli("--instructions 1000 --clusters 2x"), 2);
    EXPECT_EQ(runCli("--instructions 1000 --clusters 4294967298"), 2);
    EXPECT_EQ(runCli("--instructions 1000 --cluster-width 4.0"), 2);
    EXPECT_EQ(runCli("--instructions 1000 --issue-latency -4"), 2);
    EXPECT_EQ(runCli("--instructions 1000 --adaptive-interval 5k"), 2);
    EXPECT_EQ(runCli("--instructions 1000 --watchdog 1e6"), 2);
    EXPECT_EQ(runCli("--instructions 1000 --max-attempts 2x"), 2);
    EXPECT_EQ(runCli("--instructions 1000 --max-attempts ' 2'"), 2);
    // --deadline takes a plain decimal: no NaN (which compared false
    // everywhere and meant no deadline), infinity, exponent, sign,
    // empty value or suffix; the message names the flag.
    for (const char *bad : {"nan", "inf", "1e3", "-1", "''", "1x"}) {
        const std::string args =
            std::string("--bench gzip --instructions 1000 --deadline ") +
            bad;
        EXPECT_EQ(runCli(args), 2) << bad;
        EXPECT_NE(cliStderr(args).find("--deadline"), std::string::npos)
            << bad;
    }
    // Wider than 64 issue slots, including a width whose unsigned
    // product with the cluster count wraps to zero.
    EXPECT_EQ(runCli("--clusters 8 --cluster-width 536870912 "
                     "--instructions 1000"),
              2);
    EXPECT_EQ(runCli("--clusters 8 --cluster-width 100000 "
                     "--instructions 1000"),
              2);
    // --journal only makes sense with --campaign.
    EXPECT_EQ(runCli("--journal " + ctcp::test::tmpPath("usage.jsonl") +
                     " --bench gzip --instructions 1000"),
              2);
    // Each mode rejects the flags only the other reads, naming the
    // flag and the matrix clause that does its job, and writes nothing.
    const std::string trace = ctcp::test::tmpPath("usage_trace.txt");
    const std::string report = ctcp::test::tmpPath("usage_report.json");
    const std::string single_in_campaign =
        "--campaign 'bench=gzip;budget=2000' --strategy fdrt --clusters 8 "
        "--instructions 5 --preset bus --zero-fwd --json";
    EXPECT_EQ(runCli(single_in_campaign), 2);
    const std::string message = cliStderr(single_in_campaign);
    EXPECT_NE(message.find("--strategy"), std::string::npos) << message;
    EXPECT_NE(message.find("strategy="), std::string::npos) << message;
    const std::string campaign_in_single =
        "--bench gzip --instructions 1000 --out " + report;
    EXPECT_EQ(runCli(campaign_in_single), 2);
    EXPECT_NE(cliStderr(campaign_in_single).find("--out"),
              std::string::npos);
    // In both modes a flag that tunes an output needs that output, and
    // --trace-text and --report are not options: the Chrome trace and
    // ctcp_report do their jobs.
    for (const std::string mode :
         {"--bench gzip --instructions 1000",
          "--campaign 'bench=gzip;budget=1000' --jobs 1"}) {
        const std::string interval = mode + " --interval 500";
        EXPECT_EQ(runCli(interval), 2) << mode;
        EXPECT_NE(cliStderr(interval).find("--interval-stats"),
                  std::string::npos)
            << mode;
        const std::string filter = mode + " --trace-filter retire";
        EXPECT_EQ(runCli(filter), 2) << mode;
        EXPECT_NE(cliStderr(filter).find("--trace-events"),
                  std::string::npos)
            << mode;
        EXPECT_EQ(runCli(mode + " --trace-text " + trace), 2) << mode;
        EXPECT_EQ(runCli(mode + " --report " + report), 2) << mode;
    }
    EXPECT_NE(::access(trace.c_str(), F_OK), 0) << trace;
    EXPECT_NE(::access(report.c_str(), F_OK), 0) << report;
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
    EXPECT_EQ(runCli("--campaign 'bench=gzip;strategy=base;"
                     "budget=10000' --jobs 1 --max-attempts 2"),
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
