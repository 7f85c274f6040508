/**
 * @file
 * End-to-end sharded campaigns through the real binaries:
 *
 *  - `ctcpctl submit --shard` across two live daemons produces a
 *    report byte-identical to `ctcpsim --campaign`;
 *  - SIGKILL one daemon mid-campaign: the coordinator circuit-breaks
 *    it, reassigns its slots, and still exits 0 with identical bytes;
 *  - ctcp_merge rebuilds the same report offline from the daemons'
 *    own journals, in either file order — the post-mortem recovery
 *    path when the coordinator itself dies;
 *  - a client that stalls mid-request cannot wedge graceful shutdown
 *    once --io-deadline bounds per-connection reads.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "e2e_util.hh"

namespace {

using namespace e2e;

const char *const kMatrix =
    "bench=gzip,adpcm_enc;strategy=base,fdrt;budget=60000";

std::string
shardSubmit(const std::string &dir, const Daemon &a, const Daemon &b,
            const std::string &spec, const std::string &extra,
            int &status)
{
    const std::string spec_path = writeSpec(dir, spec);
    const std::string out = dir + "/sharded.json";
    const CommandResult result =
        run(std::string(CTCP_CTCPCTL_PATH) + " submit " + spec_path +
            " --shard " + a.socketPath() + "," + b.socketPath() +
            " --out " + out + " " + extra);
    status = result.status;
    return out;
}

TEST(ShardE2E, ShardedSubmitMatchesBatchByteForByte)
{
    Daemon a("shard_a"), b("shard_b");
    const std::string dir = a.dir();

    int status = -1;
    const std::string out = shardSubmit(
        dir, a, b, kMatrix, "--journal " + dir + "/merged.jsonl",
        status);
    ASSERT_EQ(status, 0);
    EXPECT_EQ(slurp(out), batchReport(dir, kMatrix));

    // Offline recovery: the daemons' own journals merge (in either
    // order) into the identical report via ctcp_merge.
    const std::string ja = a.statePath() + "/r0001.journal.jsonl";
    const std::string jb = b.statePath() + "/r0001.journal.jsonl";
    ASSERT_TRUE(std::filesystem::exists(ja));
    ASSERT_TRUE(std::filesystem::exists(jb));
    for (const std::string &inputs : {ja + " " + jb, jb + " " + ja}) {
        const std::string merged_out = dir + "/merge_report.json";
        const CommandResult merged = run(
            std::string(CTCP_MERGE_PATH) + " --campaign '" + kMatrix +
            "' --merged " + dir + "/offline.jsonl --out " +
            merged_out + " " + inputs);
        EXPECT_EQ(merged.status, 0);
        EXPECT_EQ(slurp(merged_out), batchReport(dir, kMatrix));
    }
}

TEST(ShardE2E, KilledShardFailsOverWithIdenticalBytes)
{
    Daemon a("chaos_a"), b("chaos_b");
    const std::string dir = a.dir();
    // Budgets big enough that the campaign is still streaming when
    // the SIGKILL lands.
    const std::string matrix =
        "bench=gzip,adpcm_enc;strategy=base,fdrt;budget=400000";

    int status = -1;
    std::string out;
    std::thread submit([&] {
        out = shardSubmit(dir, a, b, matrix, "", status);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    b.kill(); // crash one shard mid-stream
    submit.join();

    // Failover is invisible in the output: exit 0, identical bytes.
    EXPECT_EQ(status, 0);
    EXPECT_EQ(slurp(out), batchReport(dir, matrix));
}

TEST(ShardE2E, TraceIdIsGreppableAcrossBothDaemonLogs)
{
    // Daemon dirs are predictable from the tag, so the log paths can
    // be chosen before the daemons exist.
    const std::string log_a = daemonDir("trace_a") + "/d.log";
    const std::string log_b = daemonDir("trace_b") + "/d.log";
    Daemon a("trace_a", 2, {"--log-file", log_a, "--log-level", "info"});
    Daemon b("trace_b", 2, {"--log-file", log_b, "--log-level", "info"});
    const std::string dir = a.dir();

    const std::string trace = "feedfacecafe0042";
    int status = -1;
    const std::string out =
        shardSubmit(dir, a, b, kMatrix, "--trace-id " + trace, status);
    ASSERT_EQ(status, 0);

    // Logging is a side channel: the report stays byte-identical.
    EXPECT_EQ(slurp(out), batchReport(dir, kMatrix));

    // One grep-able correlation id ties the whole fleet together: the
    // coordinator stamped every exchange, so both daemons logged it.
    for (const std::string &log : {log_a, log_b}) {
        const std::string text = slurp(log);
        ASSERT_FALSE(text.empty()) << log;
        EXPECT_NE(text.find("\"trace\":\"" + trace + "\""),
                  std::string::npos)
            << log << ":\n"
            << text;
    }
}

TEST(ShardE2E, StalledClientCannotWedgeGracefulShutdown)
{
    Daemon daemon("stall", 2, {"--io-deadline", "1"});

    // Open a connection, send half a request line, and go silent.
    std::string error;
    const int fd =
        ctcp::service::connectUnix(daemon.socketPath(), error);
    ASSERT_GE(fd, 0) << error;
    ASSERT_TRUE(ctcp::service::writeAll(fd, "GET /v1/pi"));

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

} // namespace
