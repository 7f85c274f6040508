/**
 * @file
 * Campaign hardening tests: journal record round-trips, crash/resume
 * byte-identity of the aggregated report, partial-record tolerance,
 * the bounded-retry policy with its category gate, distinct per-job
 * file stems for colliding labels, and sharding: the slots= matrix
 * clause, slotIndexMap journaling, and the offline journal merge
 * behind ctcp_merge.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/journal.hh"
#include "campaign/matrix.hh"
#include "common/sim_error.hh"
#include "config/presets.hh"
#include "prog/builder.hh"
#include "tmp_dir.hh"
#include "verify/fault.hh"

namespace ctcp {
namespace {

SimConfig
quickConfig(std::uint64_t budget = 20'000)
{
    SimConfig cfg = baseConfig();
    cfg.instructionLimit = budget;
    return cfg;
}

Program
tinyProgram()
{
    ProgramBuilder b("tiny");
    b.movi(intReg(1), 5000);
    b.label("top");
    b.addi(intReg(2), intReg(2), 1);
    b.addi(intReg(1), intReg(1), -1);
    b.bne(intReg(1), zeroReg, "top");
    b.halt();
    return b.build();
}

std::string
tempPath(const char *name)
{
    const std::string path = test::tmpPath(name);
    std::remove(path.c_str());
    return path;
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return {};
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

campaign::JobOutcome
sampleOkOutcome()
{
    campaign::JobOutcome out;
    out.label = "gzip/fdrt";
    out.benchmark = "gzip";
    out.status = campaign::JobStatus::Ok;
    out.attempts = 2;
    out.result.benchmark = "gzip";
    out.result.strategy = "fdrt";
    out.result.cycles = 1234567;
    out.result.instructions = 2000000;
    out.result.pctFromTraceCache = 100.0 / 3.0;
    out.result.meanFwdDistance = 1.0 / 7.0;
    out.result.bpredAccuracy = 0.1 + 0.2; // famously not 0.3
    out.result.mispredicts = 4242;
    out.result.hostSeconds = 0.25;
    out.result.statsText =
        "line one\nline \"two\"\twith tab\nand a , comma\n";
    out.result.metrics["forward.total"] = 1.0 / 3.0;
    out.result.metrics["host.seconds"] = 0.25;
    return out;
}

TEST(JournalRecord, OkOutcomeRoundTripsExactly)
{
    const campaign::JobOutcome out = sampleOkOutcome();
    const std::string line = campaign::encodeJournalRecord(7, out);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1) << "must be one line";

    campaign::JournalRecord rec;
    ASSERT_TRUE(campaign::decodeJournalRecord(
        line.substr(0, line.size() - 1), rec));
    EXPECT_EQ(rec.index, 7u);
    EXPECT_EQ(rec.outcome.label, out.label);
    EXPECT_EQ(rec.outcome.attempts, 2u);
    ASSERT_TRUE(rec.outcome.ok());
    // Exact double round-trip (%.17g): the replayed result serializes
    // to the same bytes, which is what resume byte-identity rests on.
    EXPECT_EQ(rec.outcome.result.toJson(true), out.result.toJson(true));
    EXPECT_EQ(rec.outcome.result.statsText, out.result.statsText);
    EXPECT_EQ(rec.outcome.result.cycles, out.result.cycles);
    EXPECT_EQ(rec.outcome.result.mispredicts, out.result.mispredicts);

    // Re-encoding the decoded record reproduces the original line.
    EXPECT_EQ(campaign::encodeJournalRecord(7, rec.outcome), line);
}

TEST(JournalRecord, FailedOutcomeRoundTrips)
{
    campaign::JobOutcome out;
    out.label = "bad job, with \"quotes\"";
    out.benchmark = "mcf";
    out.status = campaign::JobStatus::Failed;
    out.category = ErrorCategory::Timeout;
    out.attempts = 3;
    out.error = "deadline of 0.5s exceeded\nafter 3 tries";

    campaign::JournalRecord rec;
    const std::string line = campaign::encodeJournalRecord(0, out);
    ASSERT_TRUE(campaign::decodeJournalRecord(
        line.substr(0, line.size() - 1), rec));
    EXPECT_FALSE(rec.outcome.ok());
    EXPECT_EQ(rec.outcome.category, ErrorCategory::Timeout);
    EXPECT_EQ(rec.outcome.attempts, 3u);
    EXPECT_EQ(rec.outcome.error, out.error);
    EXPECT_EQ(rec.outcome.label, out.label);
}

TEST(JournalRecord, TruncatedLinesAreRejected)
{
    const std::string line =
        campaign::encodeJournalRecord(3, sampleOkOutcome());
    campaign::JournalRecord rec;
    for (std::size_t cut : {std::size_t(1), line.size() / 2,
                            line.size() - 2})
        EXPECT_FALSE(campaign::decodeJournalRecord(
            line.substr(0, cut), rec))
            << "accepted a record cut to " << cut << " bytes";
    EXPECT_FALSE(campaign::decodeJournalRecord("not json at all", rec));
    EXPECT_FALSE(campaign::decodeJournalRecord("", rec));
}

TEST(Journal, LoadToleratesCrashMidAppend)
{
    const std::string path = tempPath("ctcp_journal_truncated.jsonl");
    {
        campaign::JournalWriter writer(path);
        writer.append(0, sampleOkOutcome());
        writer.append(1, sampleOkOutcome());
    }
    const std::size_t full = readFile(path).size();
    // Chop into the middle of the second record, as a kill -9 between
    // write() and the rename-less append boundary would.
    ASSERT_TRUE(verify::FaultInjector::truncateFileTail(path, 25));
    ASSERT_EQ(readFile(path).size(), full - 25);

    const std::vector<campaign::JournalRecord> records =
        campaign::loadJournal(path);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].index, 0u);

    // Appending after a truncated load keeps working (resume path).
    campaign::JournalWriter writer(path);
    std::remove(path.c_str());
}

TEST(Journal, MissingFileIsAFreshCampaign)
{
    EXPECT_TRUE(campaign::loadJournal(
                    tempPath("ctcp_journal_nonexistent.jsonl"))
                    .empty());
}

namespace {

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
}

} // namespace

TEST(JournalTail, TornLineAtExactPageBoundaryIsNotConsumed)
{
    // Whole lines totalling exactly one 4096-byte I/O page, then a
    // torn fragment starting precisely at the boundary — the layout a
    // crash mid-append leaves when the page before it was flushed.
    const std::string path = tempPath("ctcp_tail_page.jsonl");
    std::string page(4095, 'x');
    page += '\n';
    ASSERT_EQ(page.size(), 4096u);
    writeBytes(path, page + "{\"torn");

    std::uint64_t next = 0;
    EXPECT_EQ(campaign::readJournalTail(path, 0, next), page);
    EXPECT_EQ(next, 4096u);
    // Re-polling from the boundary: no whole line yet, no progress.
    EXPECT_EQ(campaign::readJournalTail(path, 4096, next), "");
    EXPECT_EQ(next, 4096u);

    // Once the append completes, the same offset serves the record.
    writeBytes(path, page + "{\"torn\":1}\n");
    EXPECT_EQ(campaign::readJournalTail(path, 4096, next),
              "{\"torn\":1}\n");
    EXPECT_EQ(next, 4096u + 11u);
    std::remove(path.c_str());
}

TEST(JournalTail, OffsetAtOrPastEndYieldsEmptyWithoutAdvancing)
{
    const std::string path = tempPath("ctcp_tail_end.jsonl");
    const std::string line =
        campaign::encodeJournalRecord(0, sampleOkOutcome());
    writeBytes(path, line);

    std::uint64_t next = 0;
    EXPECT_EQ(campaign::readJournalTail(path, line.size(), next), "");
    EXPECT_EQ(next, line.size());
    EXPECT_EQ(campaign::readJournalTail(path, line.size() + 100, next),
              "");
    EXPECT_EQ(next, line.size() + 100);
    std::remove(path.c_str());
}

TEST(JournalTail, RereadingAnOffsetIsIdempotent)
{
    // Shard failover makes the coordinator re-poll offsets it already
    // consumed on a fresh connection; the stream must be stable.
    const std::string path = tempPath("ctcp_tail_reread.jsonl");
    {
        campaign::JournalWriter writer(path);
        writer.append(0, sampleOkOutcome());
        writer.append(1, sampleOkOutcome());
    }
    std::uint64_t next_a = 0, next_b = 0;
    const std::string a = campaign::readJournalTail(path, 0, next_a);
    const std::string b = campaign::readJournalTail(path, 0, next_b);
    EXPECT_EQ(a, b);
    EXPECT_EQ(next_a, next_b);
    ASSERT_FALSE(a.empty());

    // A mid-stream offset resumes cleanly at a record boundary.
    const std::size_t first = a.find('\n') + 1;
    std::uint64_t next_c = 0;
    EXPECT_EQ(campaign::readJournalTail(path, first, next_c),
              a.substr(first));
    EXPECT_EQ(next_c, next_a);
    std::remove(path.c_str());
}

TEST(CampaignJournal, ResumeSkipsCompletedJobs)
{
    const std::string path = tempPath("ctcp_journal_resume.jsonl");
    std::atomic<int> builds{0};
    auto makeJobs = [&] {
        std::vector<campaign::Job> jobs;
        for (const char *label : {"tiny/a", "tiny/b", "tiny/c"}) {
            campaign::Job job;
            job.label = label;
            job.benchmark = "tiny";
            job.config = quickConfig(0);
            job.builder = [&builds] {
                ++builds;
                return tinyProgram();
            };
            jobs.push_back(job);
        }
        return jobs;
    };

    campaign::Options options;
    options.jobs = 1;
    options.journalPath = path;
    const campaign::Report first =
        campaign::runCampaign(makeJobs(), options);
    ASSERT_EQ(first.failed(), 0u);
    EXPECT_EQ(builds.load(), 3);

    // Second run: every job replays from the journal, none re-runs,
    // and the report is byte-identical.
    const campaign::Report second =
        campaign::runCampaign(makeJobs(), options);
    EXPECT_EQ(builds.load(), 3) << "a completed job was re-run";
    EXPECT_EQ(first.toJson(), second.toJson());
    EXPECT_EQ(first.toCsv(), second.toCsv());
    std::remove(path.c_str());
}

TEST(CampaignJournal, KilledCampaignResumesByteIdentical)
{
    // Reference: the uninterrupted campaign, no journal involved.
    const std::vector<campaign::Job> jobs = {
        campaign::makeJob("gzip/base", "gzip", quickConfig()),
        campaign::makeJob("gzip/fdrt", "gzip", [] {
            SimConfig cfg = quickConfig();
            cfg.assign.strategy = AssignStrategy::Fdrt;
            return cfg;
        }()),
        campaign::makeJob("twolf/base", "twolf", quickConfig()),
        campaign::makeJob("twolf/fdrt", "twolf", [] {
            SimConfig cfg = quickConfig();
            cfg.assign.strategy = AssignStrategy::Fdrt;
            return cfg;
        }()),
    };
    const campaign::Report fresh = campaign::runCampaign(jobs);
    ASSERT_EQ(fresh.failed(), 0u);

    // Build the journal a killed run would have left behind: the
    // first two finished records plus a partial third, cut mid-line.
    const std::string full = tempPath("ctcp_journal_kill_full.jsonl");
    {
        campaign::Options options;
        options.jobs = 1;
        options.journalPath = full;
        campaign::runCampaign(jobs, options);
    }
    std::vector<std::string> lines;
    {
        const std::string text = readFile(full);
        std::size_t start = 0;
        while (start < text.size()) {
            const std::size_t end = text.find('\n', start);
            lines.push_back(text.substr(start, end - start));
            start = end + 1;
        }
    }
    ASSERT_EQ(lines.size(), 4u);

    for (unsigned workers : {1u, 4u}) {
        const std::string partial =
            tempPath("ctcp_journal_kill_partial.jsonl");
        {
            std::FILE *f = std::fopen(partial.c_str(), "wb");
            ASSERT_NE(f, nullptr);
            std::fprintf(f, "%s\n%s\n%s", lines[0].c_str(),
                         lines[1].c_str(),
                         lines[2].substr(0, 40).c_str());
            std::fclose(f);
        }
        campaign::Options options;
        options.jobs = workers;
        options.journalPath = partial;
        const campaign::Report resumed =
            campaign::runCampaign(jobs, options);
        EXPECT_EQ(fresh.toJson(), resumed.toJson())
            << "resume with " << workers << " workers diverged";
        EXPECT_EQ(fresh.toCsv(), resumed.toCsv());
        std::remove(partial.c_str());
    }
    std::remove(full.c_str());
}

TEST(CampaignJournal, AdaptiveTopologyJobsResumeByteIdentical)
{
    // The journal replays the adaptive strategy's extra metrics
    // (adaptive.switches, adaptive.intervals.*) and the topology
    // variants' accounting exactly; a resume after a mid-campaign kill
    // must reproduce the uninterrupted report byte for byte.
    const std::vector<campaign::Job> jobs = [] {
        std::vector<campaign::Job> out;
        for (const char *topo : {"linear", "ring", "crossbar", "bus"}) {
            SimConfig cfg = quickConfig(15'000);
            cfg.assign.strategy = AssignStrategy::Adaptive;
            Topology parsed = Topology::LinearChain;
            EXPECT_TRUE(parseTopology(topo, parsed));
            cfg.cluster.topology = parsed;
            out.push_back(campaign::makeJob(
                std::string("gzip/adaptive/") + topo, "gzip", cfg));
        }
        return out;
    }();
    const campaign::Report fresh = campaign::runCampaign(jobs);
    ASSERT_EQ(fresh.failed(), 0u);

    const std::string full = tempPath("ctcp_journal_adaptive.jsonl");
    {
        campaign::Options options;
        options.jobs = 1;
        options.journalPath = full;
        campaign::runCampaign(jobs, options);
    }
    const std::string text = readFile(full);
    // Keep the first two records plus a torn third, as a kill mid-write
    // would leave behind.
    std::size_t cut = text.find('\n');
    ASSERT_NE(cut, std::string::npos);
    cut = text.find('\n', cut + 1);
    ASSERT_NE(cut, std::string::npos);
    const std::string partial =
        tempPath("ctcp_journal_adaptive_partial.jsonl");
    {
        std::FILE *f = std::fopen(partial.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const std::string torn = text.substr(0, cut + 41);
        std::fwrite(torn.data(), 1, torn.size(), f);
        std::fclose(f);
    }
    campaign::Options options;
    options.jobs = 4;
    options.journalPath = partial;
    const campaign::Report resumed = campaign::runCampaign(jobs, options);
    EXPECT_EQ(fresh.toJson(), resumed.toJson());
    EXPECT_EQ(fresh.toCsv(), resumed.toCsv());
    std::remove(partial.c_str());
    std::remove(full.c_str());
}

TEST(CampaignJournal, MismatchedRecordsAreIgnored)
{
    const std::string path = tempPath("ctcp_journal_stale.jsonl");
    {
        campaign::JournalWriter writer(path);
        campaign::JobOutcome stale = sampleOkOutcome();
        stale.label = "job/from/another/campaign";
        writer.append(0, stale);
        writer.append(9, sampleOkOutcome()); // index out of range
    }
    std::atomic<int> builds{0};
    campaign::Job job;
    job.label = "tiny/real";
    job.benchmark = "tiny";
    job.config = quickConfig(0);
    job.builder = [&builds] {
        ++builds;
        return tinyProgram();
    };
    campaign::Options options;
    options.journalPath = path;
    const campaign::Report report = campaign::runCampaign({job}, options);
    EXPECT_EQ(builds.load(), 1) << "stale record replayed";
    EXPECT_TRUE(report.jobs[0].ok());
    std::remove(path.c_str());
}

TEST(CampaignRetry, FlakyBuilderSucceedsOnSecondAttempt)
{
    campaign::Job job;
    job.label = "flaky";
    job.benchmark = "tiny";
    job.config = quickConfig(0);
    job.builder = verify::flakyBuilder(1, tinyProgram);

    campaign::Options options;
    options.maxAttempts = 2;
    const campaign::Report report = campaign::runCampaign({job}, options);
    ASSERT_EQ(report.failed(), 0u);
    EXPECT_EQ(report.jobs[0].attempts, 2u);
    // Retried successes are visible in the export; first-try successes
    // keep the original byte format (asserted by the golden test).
    EXPECT_NE(report.toJson().find("\"attempts\": 2"),
              std::string::npos);
}

TEST(CampaignRetry, ExhaustedRetriesReportWorkloadError)
{
    campaign::Job job;
    job.label = "hopeless";
    job.benchmark = "tiny";
    job.config = quickConfig(0);
    job.builder = verify::flakyBuilder(99, tinyProgram);

    campaign::Options options;
    options.maxAttempts = 3;
    const campaign::Report report = campaign::runCampaign({job}, options);
    ASSERT_EQ(report.failed(), 1u);
    EXPECT_EQ(report.jobs[0].attempts, 3u);
    EXPECT_EQ(report.jobs[0].category, ErrorCategory::Workload);
    EXPECT_NE(report.jobs[0].error.find("injected builder fault"),
              std::string::npos);
    EXPECT_NE(report.toJson().find("\"category\": \"workload\""),
              std::string::npos);
}

TEST(CampaignRetry, NonRetryableCategoriesFailImmediately)
{
    std::atomic<int> calls{0};
    campaign::Job job;
    job.label = "misconfigured";
    job.benchmark = "tiny";
    job.config = quickConfig(0);
    job.builder = [&calls]() -> Program {
        ++calls;
        throw SimError(ErrorCategory::Config, "bad knob");
    };

    campaign::Options options;
    options.maxAttempts = 5;
    const campaign::Report report = campaign::runCampaign({job}, options);
    ASSERT_EQ(report.failed(), 1u);
    EXPECT_EQ(calls.load(), 1) << "config error was retried";
    EXPECT_EQ(report.jobs[0].attempts, 1u);
    EXPECT_EQ(report.jobs[0].category, ErrorCategory::Config);
}

TEST(CampaignRetry, JobDeadlineProducesTimeoutCategory)
{
    campaign::Job job = campaign::makeJob(
        "slow", "gzip", quickConfig(2'000'000));
    campaign::Options options;
    options.jobDeadlineSeconds = 1e-6;
    options.maxAttempts = 2; // timeouts are retryable; both must expire
    const campaign::Report report = campaign::runCampaign({job}, options);
    ASSERT_EQ(report.failed(), 1u);
    EXPECT_EQ(report.jobs[0].category, ErrorCategory::Timeout);
    EXPECT_EQ(report.jobs[0].attempts, 2u);
}

TEST(CampaignStems, CollidingSanitizedLabelsGetDistinctStems)
{
    // Regression: "gzip/fdrt" and "gzip_fdrt" sanitize identically, so
    // label-keyed telemetry files used to overwrite each other.
    EXPECT_EQ(campaign::sanitizeLabel("gzip/fdrt"),
              campaign::sanitizeLabel("gzip_fdrt"));
    EXPECT_NE(campaign::jobFileStem("gzip/fdrt", 0),
              campaign::jobFileStem("gzip_fdrt", 1));
    EXPECT_EQ(campaign::jobFileStem("gzip/fdrt", 0), "gzip_fdrt-0");
}

TEST(CampaignStems, CollidingLabelsWriteDistinctTraceFiles)
{
    const std::string dir = test::tmpDir().string();
    const std::vector<campaign::Job> jobs = {
        campaign::makeJob("stem/x", "gzip", quickConfig(5'000)),
        campaign::makeJob("stem_x", "gzip", quickConfig(5'000)),
    };
    campaign::Options options;
    options.jobs = 1;
    options.traceEventsDir = dir;
    options.traceFilter = "retire";
    const campaign::Report report = campaign::runCampaign(jobs, options);
    ASSERT_EQ(report.failed(), 0u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string path = dir + "/" +
            campaign::jobFileStem(jobs[i].label, i) + ".trace.json";
        EXPECT_FALSE(readFile(path).empty()) << path;
        std::remove(path.c_str());
    }
}

TEST(CampaignJournal, MixedJobsUnderContention)
{
    // Thread-safety workout (run under TSan in CI): 8 workers racing
    // over journal appends, retries, and failures — and the parallel
    // report must still match a serial run byte for byte.
    auto makeJobs = [] {
        std::vector<campaign::Job> jobs;
        for (int i = 0; i < 4; ++i) {
            campaign::Job job;
            job.label = "tiny/" + std::to_string(i);
            job.benchmark = "tiny";
            job.config = quickConfig(0);
            job.builder = tinyProgram;
            jobs.push_back(job);
        }
        campaign::Job flaky;
        flaky.label = "flaky";
        flaky.benchmark = "tiny";
        flaky.config = quickConfig(0);
        flaky.builder = verify::flakyBuilder(1, tinyProgram);
        jobs.push_back(flaky);
        campaign::Job bomb;
        bomb.label = "bomb";
        bomb.benchmark = "tiny";
        bomb.config = quickConfig(0);
        bomb.builder = []() -> Program {
            throw std::runtime_error("always fails");
        };
        jobs.push_back(bomb);
        jobs.push_back(campaign::makeJob("gzip", "gzip",
                                         quickConfig(5'000)));
        jobs.push_back(campaign::makeJob("twolf", "twolf",
                                         quickConfig(5'000)));
        return jobs;
    };

    campaign::Options serial;
    serial.jobs = 1;
    serial.maxAttempts = 2;
    const campaign::Report expected =
        campaign::runCampaign(makeJobs(), serial);

    const std::string path = tempPath("ctcp_journal_contention.jsonl");
    campaign::Options parallel;
    parallel.jobs = 8;
    parallel.maxAttempts = 2;
    parallel.journalPath = path;
    const campaign::Report report =
        campaign::runCampaign(makeJobs(), parallel);

    EXPECT_EQ(report.failed(), 1u);
    EXPECT_EQ(expected.toJson(), report.toJson());
    EXPECT_EQ(campaign::loadJournal(path).size(), makeJobs().size());
    std::remove(path.c_str());
}

// ---- Sharding: slots= subsets, slotIndexMap, journal merge -------------

// Four fast jobs: 2 benchmarks x 2 strategies at a small budget.
const char *const kSpec =
    "bench=gzip,adpcm_enc;strategy=base,fdrt;budget=20000";

std::string
tempDir(const std::string &tag)
{
    const std::string dir = test::tmpPath("shard_" + tag);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** The single-host reference every merged report compares against. */
std::string
referenceJson(const std::string &spec)
{
    campaign::Options options;
    options.jobs = 2;
    return campaign::runCampaign(campaign::parseMatrix(spec), options)
        .toJson();
}

TEST(MatrixSlots, SelectsSubsetAndMapsGlobalIndices)
{
    const std::vector<campaign::Job> all = campaign::parseMatrix(kSpec);
    ASSERT_EQ(all.size(), 4u);

    std::vector<std::size_t> slots;
    const std::vector<campaign::Job> subset =
        campaign::parseMatrix(std::string(kSpec) + ";slots=1,3", slots);
    ASSERT_EQ(subset.size(), 2u);
    EXPECT_EQ(slots, (std::vector<std::size_t>{1, 3}));
    // Labels and configs are those of the full expansion: a shard job
    // is the same job it would be in the unsharded campaign.
    EXPECT_EQ(subset[0].label, all[1].label);
    EXPECT_EQ(subset[1].label, all[3].label);
}

TEST(MatrixSlots, ExpandsRangesSortedAndDeduped)
{
    std::vector<std::size_t> slots;
    const std::vector<campaign::Job> subset = campaign::parseMatrix(
        std::string(kSpec) + ";slots=2,0-1,2", slots);
    EXPECT_EQ(subset.size(), 3u);
    EXPECT_EQ(slots, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(MatrixSlots, AbsentClauseYieldsIdentityMap)
{
    std::vector<std::size_t> slots;
    const std::vector<campaign::Job> all =
        campaign::parseMatrix(kSpec, slots);
    ASSERT_EQ(slots.size(), all.size());
    for (std::size_t i = 0; i < slots.size(); ++i)
        EXPECT_EQ(slots[i], i);
}

TEST(MatrixSlots, RejectsOutOfRangeAndBadRanges)
{
    for (const char *slots :
         {"4", "3-1", "x",
          // Bounds are checked before a range is expanded: the first
          // would otherwise allocate 400M indices, the second wrap
          // past SIZE_MAX and never end.
          "0-400000000", "18446744073709551614-18446744073709551615",
          "99999999999999999999999"})
        EXPECT_THROW(campaign::parseMatrix(std::string(kSpec) +
                                           ";slots=" + slots),
                     std::invalid_argument)
            << slots;
}

TEST(SlotIndexMap, ShardJournalsMergeIntoOneResumableFile)
{
    const std::string dir = tempDir("slotmap");
    const std::string journal = dir + "/merged.jsonl";
    const std::vector<campaign::Job> all = campaign::parseMatrix(kSpec);

    // Run the campaign as two shard subsets journaling global indices
    // into the same file — exactly what two hosts' journals contain.
    for (const std::string slots : {"1,3", "0,2"}) {
        std::vector<std::size_t> map;
        const std::vector<campaign::Job> subset = campaign::parseMatrix(
            std::string(kSpec) + ";slots=" + slots, map);
        campaign::Options options;
        options.jobs = 2;
        options.journalPath = journal;
        options.slotIndexMap = map;
        campaign::runCampaign(subset, options);
    }

    // Replaying the merged journal over the full campaign reproduces
    // the single-host report byte for byte without running anything.
    campaign::Options replay;
    replay.journalPath = journal;
    const std::string merged_json =
        campaign::runCampaign(all, replay).toJson();
    EXPECT_EQ(merged_json, referenceJson(kSpec));
}

TEST(SlotIndexMap, ReplayIsFirstCompleteWins)
{
    const std::string dir = tempDir("firstwins");
    const std::vector<campaign::Job> all = campaign::parseMatrix(kSpec);

    // A clean journal for the full campaign...
    const std::string clean = dir + "/clean.jsonl";
    campaign::Options options;
    options.jobs = 2;
    options.journalPath = clean;
    const std::string expected =
        campaign::runCampaign(all, options).toJson();

    // ...plus a conflicting record for slot 0, as a second host that
    // also ran slot 0 would produce.
    campaign::JobOutcome fake;
    fake.label = all[0].label;
    fake.benchmark = all[0].benchmark;
    fake.status = campaign::JobStatus::Failed;
    fake.error = "injected duplicate";
    const std::string fake_line = campaign::encodeJournalRecord(0, fake);

    // Duplicate after the real record: ignored.
    const std::string dup_after = dir + "/dup_after.jsonl";
    {
        std::ofstream out(dup_after, std::ios::binary);
        out << readFile(clean) << fake_line;
    }
    campaign::Options replay;
    replay.journalPath = dup_after;
    EXPECT_EQ(campaign::runCampaign(all, replay).toJson(), expected);

    // Duplicate before the real record: the first record wins, so the
    // injected failure is what the report shows.
    const std::string dup_before = dir + "/dup_before.jsonl";
    {
        std::ofstream out(dup_before, std::ios::binary);
        out << fake_line << readFile(clean);
    }
    replay.journalPath = dup_before;
    const campaign::Report report = campaign::runCampaign(all, replay);
    EXPECT_FALSE(report.at(all[0].label).ok());
    EXPECT_EQ(report.at(all[0].label).error, "injected duplicate");
}

TEST(SlotIndexMap, SizeMismatchIsRejected)
{
    const std::vector<campaign::Job> all = campaign::parseMatrix(kSpec);
    campaign::Options options;
    options.slotIndexMap = {0, 1};
    EXPECT_THROW(campaign::runCampaign(all, options),
                 std::invalid_argument);
}

TEST(SlotRanges, CompressConsecutiveRuns)
{
    EXPECT_EQ(campaign::formatSlotRanges({}), "");
    EXPECT_EQ(campaign::formatSlotRanges({5}), "5");
    EXPECT_EQ(campaign::formatSlotRanges({0, 1, 2, 3, 7, 9, 10}),
              "0-3,7,9-10");
}

TEST(MergeJournals, DedupesValidatesAndFindsMissing)
{
    const std::string dir = tempDir("merge");
    const std::vector<campaign::Job> all = campaign::parseMatrix(kSpec);

    // Produce real per-host journals (global indices) for slots
    // {0,2} and {1} — slot 3 is missing, and host B also re-ran
    // slot 0 (a duplicate).
    const std::string a = dir + "/a.jsonl", b = dir + "/b.jsonl";
    for (const auto &[path, slots] :
         {std::pair<std::string, std::string>{a, "0,2"}, {b, "1"}}) {
        std::vector<std::size_t> map;
        const std::vector<campaign::Job> subset = campaign::parseMatrix(
            std::string(kSpec) + ";slots=" + slots, map);
        campaign::Options options;
        options.jobs = 2;
        options.journalPath = path;
        options.slotIndexMap = map;
        campaign::runCampaign(subset, options);
    }
    {
        // Duplicate + alien record appended to host B's journal.
        const std::string first_line =
            readFile(a).substr(0, readFile(a).find('\n') + 1);
        campaign::JobOutcome alien;
        alien.label = "not/a/job";
        std::ofstream out(b, std::ios::binary | std::ios::app);
        out << first_line << campaign::encodeJournalRecord(9, alien);
    }

    const std::string merged = dir + "/merged.jsonl";
    campaign::MergeResult result = campaign::mergeJournalFiles(
        {b, a}, all, merged); // order must not matter for the content
    EXPECT_EQ(result.merged, 3u);
    EXPECT_EQ(result.duplicates, 1u);
    EXPECT_EQ(result.mismatched, 1u);
    EXPECT_EQ(result.missingSlots, (std::vector<std::size_t>{3}));

    // Replaying the merged journal runs exactly the missing slot and
    // reproduces the single-host report.
    campaign::Options replay;
    replay.journalPath = merged;
    replay.jobs = 2;
    EXPECT_EQ(campaign::runCampaign(all, replay).toJson(),
              referenceJson(kSpec));
}

// ---- Shared runs: resume and sharding --------------------------------

// Two groups of two jobs: at 2 clusters the ring is the linear chain.
const char *const kSharedSpec =
    "bench=gzip,twolf;topology=linear,ring;clusters=2;budget=5000";

/** The journal's lines, each without its newline. */
std::vector<std::string>
journalLines(const std::string &path)
{
    std::vector<std::string> lines;
    const std::string text = readFile(path);
    for (std::size_t start = 0; start < text.size();) {
        const std::size_t end = text.find('\n', start);
        lines.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return lines;
}

TEST(CampaignSharing, EveryMemberIsJournaledWithZeroHostTime)
{
    const std::vector<campaign::Job> jobs =
        campaign::parseMatrix(kSharedSpec);
    ASSERT_EQ(campaign::representatives(jobs),
              (std::vector<std::size_t>{0, 0, 2, 2}));
    const std::string dir = tempDir("shared_records");
    campaign::Options options;
    options.jobs = 2;
    options.journalPath = dir + "/journal.jsonl";
    campaign::runCampaign(jobs, options);

    std::vector<double> host(jobs.size(), -1.0);
    for (const campaign::JournalRecord &rec :
         campaign::loadJournal(options.journalPath)) {
        ASSERT_LT(rec.index, jobs.size());
        EXPECT_EQ(host[rec.index], -1.0) << "two records for " << rec.index;
        EXPECT_EQ(rec.outcome.label, jobs[rec.index].label);
        host[rec.index] = rec.outcome.result.hostSeconds;
    }
    EXPECT_GT(host[0], 0.0);
    EXPECT_EQ(host[1], 0.0);
    EXPECT_GT(host[2], 0.0);
    EXPECT_EQ(host[3], 0.0);
}

TEST(CampaignSharing, JournalCutBeforeTheMembersResumesByteIdentical)
{
    const std::vector<campaign::Job> jobs =
        campaign::parseMatrix(kSharedSpec);
    const campaign::Report fresh = campaign::runCampaign(jobs);
    ASSERT_EQ(fresh.failed(), 0u);

    // One worker journals each group in index order: the
    // representative's record, then its member's.
    const std::string dir = tempDir("shared_resume");
    const std::string full = dir + "/full.jsonl";
    {
        campaign::Options options;
        options.jobs = 1;
        options.journalPath = full;
        campaign::runCampaign(jobs, options);
    }
    const std::vector<std::string> lines = journalLines(full);
    ASSERT_EQ(lines.size(), 4u);
    campaign::JournalRecord first;
    ASSERT_TRUE(campaign::decodeJournalRecord(lines[0], first));
    ASSERT_EQ(first.index, 0u);

    // Cut after a representative's record (0), and cut to a member's
    // record alone (1): either way the group's outcome comes from the
    // journal, the rest is copied or run, and the bytes match.
    for (const std::size_t kept : {0u, 1u}) {
        for (const unsigned workers : {1u, 4u}) {
            const std::string partial = dir + "/partial.jsonl";
            {
                std::ofstream out(partial, std::ios::binary);
                out << lines[kept] << '\n';
            }
            campaign::Options options;
            options.jobs = workers;
            options.journalPath = partial;
            const campaign::Report resumed =
                campaign::runCampaign(jobs, options);
            EXPECT_EQ(resumed.toJson(), fresh.toJson())
                << "kept " << kept << ", " << workers << " workers";
            EXPECT_EQ(resumed.toCsv(), fresh.toCsv());
            // Nothing re-ran the journaled group: the other job of it
            // is a copy, with no host time.
            EXPECT_EQ(resumed.jobs[1 - kept].result.hostSeconds, 0.0);
            // The resumed journal now holds every job once.
            std::set<std::size_t> indices;
            for (const campaign::JournalRecord &rec :
                 campaign::loadJournal(partial))
                EXPECT_TRUE(indices.insert(rec.index).second);
            EXPECT_EQ(indices.size(), jobs.size());
            std::filesystem::remove(partial);
        }
    }
}

TEST(CampaignSharing, SlotHalvesMergeToTheWhole)
{
    // The split falls inside a group: job 0 (linear) runs in one half
    // and its ring twin (job 1) in the other, where it runs for real.
    const std::string dir = tempDir("shared_halves");
    const std::vector<campaign::Job> all =
        campaign::parseMatrix(kSharedSpec);
    std::vector<std::string> journals;
    for (const char *slots : {"0", "1-3"}) {
        std::vector<std::size_t> map;
        const std::vector<campaign::Job> half = campaign::parseMatrix(
            std::string(kSharedSpec) + ";slots=" + slots, map);
        campaign::Options options;
        options.jobs = 2;
        options.journalPath = dir + "/half" + slots + ".jsonl";
        options.slotIndexMap = map;
        ASSERT_EQ(campaign::runCampaign(half, options).failed(), 0u);
        journals.push_back(options.journalPath);
    }
    const std::string merged = dir + "/merged.jsonl";
    const campaign::MergeResult result =
        campaign::mergeJournalFiles(journals, all, merged);
    EXPECT_EQ(result.merged, all.size());
    EXPECT_TRUE(result.missingSlots.empty());

    campaign::Options replay;
    replay.journalPath = merged;
    const campaign::Report report = campaign::runCampaign(all, replay);
    EXPECT_EQ(report.toJson(), referenceJson(kSharedSpec));
    EXPECT_EQ(report.toCsv(),
              campaign::runCampaign(all).toCsv());
}

} // namespace
} // namespace ctcp
