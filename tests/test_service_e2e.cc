/**
 * @file
 * End-to-end contract of the ctcpd daemon and ctcpctl client, driven
 * through the real binaries (paths injected at configure time):
 *
 *  - submit a campaign over the socket, stream its events, and verify
 *    the final report is byte-identical to `ctcpsim --campaign` with
 *    the same spec — the service's core promise;
 *  - SIGKILL the daemon mid-campaign, corrupt the journal tail the way
 *    a kill mid-append would, restart, and verify the resumed run
 *    still produces the byte-identical report;
 *  - SIGTERM performs a graceful shutdown with exit status 0, and a
 *    client that stalls mid-request cannot wedge it once
 *    --io-deadline bounds per-connection reads;
 *  - --workers shares ctcpsim's --jobs validation (exit 2 + message),
 *    and a missing socket directory exits 2 without creating it.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "e2e_util.hh"
#include "verify/fault.hh"

namespace {

using namespace e2e;

/** Write a spec file and return its path. */
std::string
writeSpec(const Daemon &daemon, const std::string &spec)
{
    return e2e::writeSpec(daemon.dir(), spec);
}

// The figure-6 style matrix both identity tests use: two benchmarks
// by two strategies, small budgets so the suite stays fast.
const char *const kMatrix =
    "bench=gzip,adpcm_enc;strategy=base,fdrt;budget=60000";

std::string
batchReport(const std::string &dir)
{
    return e2e::batchReport(dir, kMatrix);
}

TEST(ServiceE2E, StreamedRunMatchesBatchByteForByte)
{
    Daemon daemon("identity");

    const std::string spec = writeSpec(daemon, kMatrix);
    const CommandResult submitted = daemon.ctl("submit " + spec);
    ASSERT_EQ(submitted.status, 0) << submitted.output;
    const std::string id = chomp(submitted.output);
    ASSERT_FALSE(id.empty());

    // Follow the event stream to completion: one journal record per
    // job, each a complete JSON line without the stats text.
    const CommandResult events =
        daemon.ctl("events " + id + " --follow");
    EXPECT_EQ(events.status, 0);
    int lines = 0;
    std::istringstream stream(events.output);
    for (std::string line; std::getline(stream, line);) {
        ++lines;
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        EXPECT_EQ(line.find("statsText"), std::string::npos) << line;
    }
    EXPECT_EQ(lines, 4);

    const std::string daemon_json = daemon.dir() + "/daemon.json";
    EXPECT_EQ(daemon.ctl("report " + id + " --out " + daemon_json)
                  .status,
              0);
    EXPECT_EQ(slurp(daemon_json), batchReport(daemon.dir()));

    // The live HTML report also serves after completion.
    const std::string html = daemon.dir() + "/live.html";
    EXPECT_EQ(daemon.ctl("html " + id + " --out " + html).status, 0);
    EXPECT_NE(slurp(html).find("<!DOCTYPE html>"), std::string::npos);

    // Commands reject a flag they do not read, a flag without its
    // value, a second id or a missing one, before any request is made.
    const std::string unused = daemon.dir() + "/unused.out";
    for (const std::string &args :
         {"report " + id + " --csv", "report " + id + " --out",
          "status " + id + " --follow", "events " + id + " --out " + unused,
          "cancel " + id + " --timeout 5", "wait " + id + " --follow",
          "html " + id + " --host-timing --out " + unused,
          "report " + id + " " + id, std::string("status"),
          std::string("list --csv")}) {
        const CommandResult rejected = daemon.ctl(args);
        EXPECT_EQ(rejected.status, 2) << args << ": " << rejected.output;
    }
    EXPECT_FALSE(std::filesystem::exists(unused));
}

TEST(ServiceE2E, KilledDaemonResumesFromJournalByteForByte)
{
    Daemon daemon("resume");

    const std::string spec = writeSpec(daemon, kMatrix);
    const CommandResult submitted = daemon.ctl("submit " + spec);
    ASSERT_EQ(submitted.status, 0) << submitted.output;
    const std::string id = chomp(submitted.output);

    // Let at least one record land in the journal, then pull the plug.
    const std::string journal =
        daemon.statePath() + "/" + id + ".journal.jsonl";
    for (int i = 0; i < 600 && slurp(journal).empty(); ++i)
        ::usleep(100 * 1000);
    daemon.kill();

    // A SIGKILL can land mid-append; make the surviving journal end in
    // a torn record to prove resume tolerates exactly that.
    const std::string before = slurp(journal);
    if (!before.empty())
        ctcp::verify::FaultInjector::truncateFileTail(journal, 3);

    daemon.start();
    const CommandResult waited =
        daemon.ctl("wait " + id + " --timeout 120");
    EXPECT_EQ(waited.status, 0) << waited.output;

    const std::string resumed_json = daemon.dir() + "/resumed.json";
    EXPECT_EQ(daemon.ctl("report " + id + " --out " + resumed_json)
                  .status,
              0);
    EXPECT_EQ(slurp(resumed_json), batchReport(daemon.dir()));
}

TEST(ServiceE2E, SigtermIsAGracefulExitZero)
{
    Daemon daemon("term");
    EXPECT_EQ(daemon.ctl("ping").status, 0);
    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ShardE2E, StalledClientCannotWedgeGracefulShutdown)
{
    Daemon daemon("stall", 2, {"--io-deadline", "1"});

    // Open a connection, send half a request line, and go silent.
    // A deadline of 0 is none.
    std::string error;
    const int fd =
        ctcp::service::connectUnix(daemon.socketPath(), 0.0, error);
    ASSERT_GE(fd, 0) << error;
    ASSERT_TRUE(ctcp::service::writeAll(fd, "GET /v1/pi", 0.0, error))
        << error;

    // Graceful shutdown waits for active connections; the per-
    // connection read deadline must cut the stalled one loose long
    // before the shutdown watchdog would.
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(daemon.terminate(), 0);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    EXPECT_LT(elapsed, 10.0);
    ::close(fd);
}

TEST(ServiceE2E, CancelEndsARunWithoutKillingTheDaemon)
{
    Daemon daemon("cancel");
    const std::string spec = writeSpec(
        daemon,
        "bench=gzip;strategy=base,fdrt,friendly;budget=2000000");
    const CommandResult submitted = daemon.ctl("submit " + spec);
    ASSERT_EQ(submitted.status, 0);
    const std::string id = chomp(submitted.output);

    EXPECT_EQ(daemon.ctl("cancel " + id).status, 0);
    // wait exits 1 for a cancelled run but must terminate promptly.
    const CommandResult waited =
        daemon.ctl("wait " + id + " --timeout 120");
    EXPECT_NE(waited.output.find("\"state\""), std::string::npos);
    // The daemon survives and accepts new work afterwards.
    EXPECT_EQ(daemon.ctl("ping").status, 0);
}

TEST(ServiceE2E, WorkerValidationIsSharedWithCtcpsim)
{
    // Both binaries run the same parseWorkerCount: junk exits 2 with
    // the same diagnostic, from the daemon and the batch runner alike.
    const std::string sock = ctcp::test::tmpPath("wv.sock");
    const CommandResult daemon_junk =
        run(std::string(CTCP_CTCPD_PATH) + " --socket " + sock +
            " --workers junk");
    EXPECT_EQ(daemon_junk.status, 2);
    const CommandResult sim_junk = run(std::string(CTCP_CTCPSIM_PATH) +
                                       " --bench gzip --jobs junk");
    EXPECT_EQ(sim_junk.status, 2);

    const std::string daemon_msg = runStderr(
        std::string(CTCP_CTCPD_PATH) + " --socket " + sock +
        " --workers -4");
    const std::string sim_msg =
        runStderr(std::string(CTCP_CTCPSIM_PATH) +
                  " --campaign 'bench=gzip;budget=1000' --jobs -4");
    EXPECT_NE(daemon_msg.find("worker count"), std::string::npos)
        << daemon_msg;
    EXPECT_NE(sim_msg.find("worker count"), std::string::npos)
        << sim_msg;

    // Out-of-range counts are rejected, not clamped.
    EXPECT_EQ(run(std::string(CTCP_CTCPD_PATH) + " --socket " + sock +
                  " --workers 100000")
                  .status,
              2);
}

TEST(ServiceE2E, IoDeadlineRejectsMalformedNumbers)
{
    // --io-deadline takes a plain decimal like ctcpsim --deadline: NaN,
    // infinity, an exponent, a sign, an empty value and a suffix exit
    // 2 before the daemon starts, with a message naming the flag.
    const std::string cmd = std::string("timeout 10 ") + CTCP_CTCPD_PATH +
        " --socket " + ctcp::test::tmpPath("iod.sock") + " --io-deadline ";
    for (const char *bad : {"nan", "inf", "1e3", "-1", "''", "1x"}) {
        EXPECT_EQ(run(cmd + bad).status, 2) << bad;
        const std::string msg = runStderr(cmd + bad);
        EXPECT_NE(msg.find("--io-deadline"), std::string::npos)
            << bad << ": " << msg;
    }
}

TEST(ServiceE2E, MissingSocketDirectoryExitsTwoAndCreatesNothing)
{
    // Without --state-dir the state directory is <socket>.state, made
    // with its parents; a mistyped socket directory must be reported,
    // not created and served from.
    const std::filesystem::path missing =
        ctcp::test::tmpPath("no_such_dir");
    // timeout: a daemon that wrongly starts must fail the test, not
    // hang it.
    const std::string cmd = std::string("timeout 10 ") + CTCP_CTCPD_PATH +
        " --socket " + (missing / "ctcp.sock").string();
    EXPECT_EQ(run(cmd).status, 2);
    const std::string msg = runStderr(cmd);
    EXPECT_NE(msg.find("socket directory '" + missing.string() +
                       "' does not exist"),
              std::string::npos)
        << msg;
    EXPECT_FALSE(std::filesystem::exists(missing));
}

TEST(ServiceE2E, SubmittingAgainstADeadSocketFailsCleanly)
{
    const CommandResult result =
        run(std::string(CTCP_CTCPCTL_PATH) +
            " --socket /nonexistent/ctcp.sock ping");
    EXPECT_EQ(result.status, 2);
}

TEST(ServiceE2E, CtlRejectsMalformedNumbersBeforeConnecting)
{
    // A bad number is reported as such, not as the dead socket it
    // would otherwise go on to dial (-1 once read as 4294967295).
    const std::string ctl = std::string(CTCP_CTCPCTL_PATH) +
        " --socket /nonexistent/ctcp.sock ";
    const std::string wait = runStderr(ctl + "wait r0001 --timeout -1");
    EXPECT_NE(wait.find("invalid --timeout '-1'"), std::string::npos)
        << wait;
    const std::string submit =
        runStderr(ctl + "submit spec.txt --max-attempts 12abc");
    EXPECT_NE(submit.find("invalid --max-attempts '12abc'"),
              std::string::npos)
        << submit;
    EXPECT_EQ(run(ctl + "wait r0001 --timeout banana").status, 2);
}

TEST(ServiceE2E, CtlRejectsUnknownCommandsBeforeConnecting)
{
    const std::string ctl = std::string(CTCP_CTCPCTL_PATH) +
        " --socket /nonexistent/ctcp.sock ";
    for (const char *command :
         {"top", "stats", "stats --json", "bogus r0001"}) {
        EXPECT_EQ(run(ctl + command).status, 2) << command;
        const std::string msg = runStderr(ctl + command);
        EXPECT_NE(msg.find("unknown command"), std::string::npos)
            << command << ": " << msg;
    }
}

} // namespace
