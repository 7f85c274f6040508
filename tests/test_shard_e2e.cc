/**
 * @file
 * End-to-end sharded campaigns through the real binaries. A campaign
 * is sharded by giving each host the same spec plus a contiguous
 * `slots=` half; every journal record carries its campaign-wide slot
 * index, and ctcp_merge merges the hosts' journals by slot and replays
 * them. Each case holds the merged report to `ctcpsim --campaign` over
 * the unsliced spec, byte for byte:
 *
 *  - two `ctcpsim --campaign ... --journal` halves, merged (and one
 *    half cut short and rerun on its journal, which resumes it);
 *  - the same with --accounting: the merged JSON and CSV reports, and
 *    a --run-missing merge, keep the accounting the journals carry;
 *  - two daemons' halves submitted with ctcpctl, merged in either
 *    order — and one trace id shared by both submits greps out of
 *    both daemons' logs;
 *  - one daemon SIGKILLed mid-run, merged with --run-missing;
 *  - that daemon restarted on its state dir, which resumes the run
 *    from its journal, then merged without --run-missing.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "e2e_util.hh"

namespace {

using namespace e2e;

// Four jobs, split into two contiguous halves of two slots each.
const char *const kMatrix =
    "bench=gzip,adpcm_enc;strategy=base,fdrt;budget=60000";
const char *const kHalves[2] = {"0-1", "2-3"};

// Budgets big enough that a half is still running when the SIGKILL
// lands: the killed daemon runs its two jobs one after the other.
const char *const kSlowMatrix =
    "bench=gzip,adpcm_enc;strategy=base,fdrt;budget=400000";

std::string
half(const std::string &matrix, int which)
{
    return matrix + ";slots=" + kHalves[which];
}

/** ctcp_merge @p journals over @p matrix; the report is on stdout. */
CommandResult
merge(const std::string &dir, const std::string &matrix,
      const std::vector<std::string> &journals,
      const std::string &extra = std::string())
{
    std::string cmd = std::string(CTCP_MERGE_PATH) + " --campaign '" +
        matrix + "' --merged " + dir + "/merged.jsonl " + extra;
    for (const std::string &journal : journals)
        cmd += " " + journal;
    return run(cmd);
}

/** Submit @p spec to @p daemon; @return the daemon's journal of it. */
std::string
submit(const Daemon &daemon, const std::string &spec,
       const std::string &extra = std::string())
{
    const CommandResult submitted = daemon.ctl(
        "submit " + writeSpec(daemon.dir(), spec) + " " + extra);
    EXPECT_EQ(submitted.status, 0) << submitted.output;
    return daemon.statePath() + "/" + chomp(submitted.output) +
        ".journal.jsonl";
}

/** Block until @p daemon's first run is done. */
void
waitDone(const Daemon &daemon)
{
    const CommandResult waited = daemon.ctl("wait r0001 --timeout 120");
    EXPECT_EQ(waited.status, 0) << waited.output;
}

std::size_t
lineCount(const std::string &path)
{
    const std::string text = slurp(path);
    std::size_t lines = 0;
    for (const char c : text)
        lines += c == '\n';
    return lines;
}

/**
 * Run kSlowMatrix's halves on @p a and @p b, and SIGKILL @p b (one
 * worker, so its jobs run in turn) as soon as its first record lands.
 * @return the two journals, @p a's complete and @p b's cut short.
 */
std::vector<std::string>
runAndKillOne(Daemon &a, Daemon &b)
{
    const std::string ja = submit(a, half(kSlowMatrix, 0));
    const std::string jb = submit(b, half(kSlowMatrix, 1));
    for (int i = 0; i < 12000 && lineCount(jb) == 0; ++i)
        ::usleep(10 * 1000);
    b.kill();
    waitDone(a);
    EXPECT_EQ(lineCount(jb), 1u) << "the SIGKILL missed the run";
    return {ja, jb};
}

TEST(ShardE2E, CtcpsimHalvesMergeByteForByte)
{
    const std::string dir = daemonDir("sim_halves");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string batch = batchReport(dir, kMatrix);

    std::vector<std::string> journals;
    const auto runHalf = [&](int which) {
        const CommandResult result = run(
            std::string(CTCP_CTCPSIM_PATH) + " --campaign '" +
            half(kMatrix, which) + "' --jobs 2 --journal " +
            journals[which]);
        EXPECT_EQ(result.status, 0);
    };
    for (int which = 0; which < 2; ++which) {
        journals.push_back(dir + "/half" + std::to_string(which) +
                           ".jsonl");
        runHalf(which);
    }

    const CommandResult merged = merge(dir, kMatrix, journals);
    EXPECT_EQ(merged.status, 0);
    EXPECT_EQ(merged.output, batch);

    // A host killed mid-run keeps the records it finished; rerunning
    // its half on the same journal runs only the rest.
    const std::string first = slurp(journals[1]);
    {
        std::ofstream cut(journals[1],
                          std::ios::binary | std::ios::trunc);
        cut << first.substr(0, first.find('\n') + 1);
    }
    ASSERT_EQ(lineCount(journals[1]), 1u);
    runHalf(1);
    EXPECT_EQ(lineCount(journals[1]), 2u);
    const CommandResult resumed = merge(dir, kMatrix, journals);
    EXPECT_EQ(resumed.status, 0);
    EXPECT_EQ(resumed.output, batch);
}

TEST(ShardE2E, AccountedHalvesMergeWithTheirAccounting)
{
    // Halves run with --accounting journal each job's accounting
    // block; the merged JSON and CSV reports carry it, as the unsliced
    // `ctcpsim --campaign --accounting` reports do.
    const std::string dir = daemonDir("accounted_halves");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto ctcpsim = [&](const std::string &spec,
                             const std::string &args) {
        EXPECT_EQ(run(std::string(CTCP_CTCPSIM_PATH) + " --campaign '" +
                      spec + "' --jobs 2 " + args)
                      .status,
                  0);
    };
    ctcpsim(kMatrix, "--accounting --out " + dir + "/batch.json");
    ctcpsim(kMatrix, "--accounting --out " + dir + "/batch.csv");
    const std::string batch_json = slurp(dir + "/batch.json");
    ASSERT_NE(batch_json.find("\"accounting\""), std::string::npos);

    std::vector<std::string> journals;
    for (int which = 0; which < 2; ++which) {
        journals.push_back(dir + "/half" + std::to_string(which) +
                           ".jsonl");
        ctcpsim(half(kMatrix, which),
                "--accounting --journal " + journals[which]);
    }
    const CommandResult json = merge(dir, kMatrix, journals);
    EXPECT_EQ(json.status, 0);
    EXPECT_EQ(json.output, batch_json);
    const CommandResult csv = merge(dir, kMatrix, journals, "--csv");
    EXPECT_EQ(csv.status, 0);
    EXPECT_EQ(csv.output, slurp(dir + "/batch.csv"));

    // The slot a lost host never finished runs here with accounting.
    const std::string first = slurp(journals[1]);
    {
        std::ofstream cut(journals[1],
                          std::ios::binary | std::ios::trunc);
        cut << first.substr(0, first.find('\n') + 1);
    }
    const CommandResult missing =
        merge(dir, kMatrix, journals, "--run-missing");
    EXPECT_EQ(missing.status, 0);
    EXPECT_EQ(missing.output, batch_json);

    // An accounted half and a plain one do not make one report.
    const std::string plain = dir + "/plain1.jsonl";
    ctcpsim(half(kMatrix, 1), "--journal " + plain);
    EXPECT_EQ(merge(dir, kMatrix, {journals[0], plain}).status, 2);
}

TEST(ShardE2E, MergeRejectsMalformedJobCounts)
{
    // --jobs shares ctcpsim's worker-count parser: junk exits 2 naming
    // the worker count before any journal is read (-1 once ran
    // 4294967295 workers).
    const std::string dir = daemonDir("merge_jobs");
    const std::string cmd = std::string(CTCP_MERGE_PATH) +
        " --campaign '" + kMatrix + "' --merged " + dir +
        "/merged.jsonl " + dir + "/none.jsonl --jobs ";
    for (const char *bad :
         {"-1", "''", "+4", "12abc", "18446744073709551616"}) {
        EXPECT_EQ(run(cmd + bad).status, 2) << bad;
        const std::string msg = runStderr(cmd + bad);
        EXPECT_NE(msg.find("worker count"), std::string::npos)
            << bad << ": " << msg;
    }
}

TEST(ShardE2E, ShardedSubmitMatchesBatchByteForByte)
{
    Daemon a("shard_a"), b("shard_b");
    const std::string dir = a.dir();

    const std::string ja = submit(a, half(kMatrix, 0));
    const std::string jb = submit(b, half(kMatrix, 1));
    waitDone(a);
    waitDone(b);

    // Merging is by slot index, so the file order does not matter.
    const std::string batch = batchReport(dir, kMatrix);
    for (const std::vector<std::string> &inputs :
         {std::vector<std::string>{ja, jb}, {jb, ja}}) {
        const CommandResult merged = merge(dir, kMatrix, inputs);
        EXPECT_EQ(merged.status, 0);
        EXPECT_EQ(merged.output, batch);
    }
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

    // One campaign, one id: each host's submit carries it.
    const std::string trace = "feedfacecafe0042";
    const std::string ja =
        submit(a, half(kMatrix, 0), "--trace-id " + trace);
    const std::string jb =
        submit(b, half(kMatrix, 1), "--trace-id " + trace);
    waitDone(a);
    waitDone(b);

    // Logging is a side channel: the report stays byte-identical.
    const CommandResult merged = merge(dir, kMatrix, {ja, jb});
    EXPECT_EQ(merged.status, 0);
    EXPECT_EQ(merged.output, batchReport(dir, kMatrix));

    // One grep over both daemons' logs finds the campaign.
    for (const std::string &log : {log_a, log_b}) {
        const std::string text = slurp(log);
        ASSERT_FALSE(text.empty()) << log;
        EXPECT_NE(text.find("\"trace\":\"" + trace + "\""),
                  std::string::npos)
            << log << ":\n"
            << text;
    }
}

TEST(ShardE2E, KilledShardFailsOverWithIdenticalBytes)
{
    Daemon a("chaos_a"), b("chaos_b", 1);
    const std::string dir = a.dir();
    const std::vector<std::string> journals = runAndKillOne(a, b);

    // The lost slot is reported missing (exit 1)...
    EXPECT_EQ(merge(dir, kSlowMatrix, journals).status, 1);
    // ...and --run-missing runs it here, with identical bytes.
    const CommandResult merged =
        merge(dir, kSlowMatrix, journals, "--run-missing --jobs 2");
    EXPECT_EQ(merged.status, 0);
    EXPECT_EQ(merged.output, batchReport(dir, kSlowMatrix));
}

TEST(ShardE2E, RestartedShardResumesThenMergesPlainly)
{
    Daemon a("resume_a"), b("resume_b", 1);
    const std::string dir = a.dir();
    const std::vector<std::string> journals = runAndKillOne(a, b);

    // Restarted on its state dir, the daemon resumes the run from its
    // journal; the plain merge then has every slot.
    b.start(1);
    waitDone(b);
    EXPECT_EQ(lineCount(journals[1]), 2u);
    const CommandResult merged = merge(dir, kSlowMatrix, journals);
    EXPECT_EQ(merged.status, 0);
    EXPECT_EQ(merged.output, batchReport(dir, kSlowMatrix));
}

} // namespace
