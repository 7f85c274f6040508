/**
 * @file
 * Sharded campaign coordinator tests.
 *
 * Unit half (no sockets): the slots= matrix clause, the campaign
 * engine's slotIndexMap journaling (shard journals merge into one
 * resumable file, first-complete-wins on duplicates), and the
 * coordinator's deterministic building blocks — shard hashing, capped
 * jittered backoff, slot-range formatting, torn-chunk parsing, and the
 * offline journal merge.
 *
 * Fault-proof half: real ServiceServer daemons served from in-process
 * threads, with verify::NetFaultProxy injecting each failure mode the
 * coordinator defends against. Every scenario asserts the one
 * defense's counters AND that the final report stays byte-identical
 * to a single-host run — the headline robustness contract.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/journal.hh"
#include "campaign/matrix.hh"
#include "common/sim_error.hh"
#include "tmp_dir.hh"
#include "service/client.hh"
#include "service/http.hh"
#include "service/server.hh"
#include "service/shard_coordinator.hh"
#include "verify/net_fault.hh"

namespace ctcp {
namespace {

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

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** The single-host reference both halves compare against. */
std::string
referenceJson(const std::string &spec)
{
    campaign::Options options;
    options.jobs = 2;
    return campaign::runCampaign(campaign::parseMatrix(spec), options)
        .toJson();
}

// ---- slots= matrix clause ----------------------------------------------

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
    EXPECT_THROW(
        campaign::parseMatrix(std::string(kSpec) + ";slots=4"),
        std::invalid_argument);
    EXPECT_THROW(
        campaign::parseMatrix(std::string(kSpec) + ";slots=3-1"),
        std::invalid_argument);
    EXPECT_THROW(
        campaign::parseMatrix(std::string(kSpec) + ";slots=x"),
        std::invalid_argument);
}

// ---- slotIndexMap journaling -------------------------------------------

TEST(SlotIndexMap, ShardJournalsMergeIntoOneResumableFile)
{
    const std::string dir = tempDir("slotmap");
    const std::string journal = dir + "/merged.jsonl";
    const std::vector<campaign::Job> all = campaign::parseMatrix(kSpec);

    // Run the campaign as two shard subsets journaling global indices
    // into the same file — exactly what two daemons' journals contain.
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

    // ...plus a conflicting record for slot 0, as failover
    // re-execution on a second shard would produce.
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
        out << slurp(clean) << fake_line;
    }
    campaign::Options replay;
    replay.journalPath = dup_after;
    EXPECT_EQ(campaign::runCampaign(all, replay).toJson(), expected);

    // Duplicate before the real record: the first record wins, so the
    // injected failure is what the report shows.
    const std::string dup_before = dir + "/dup_before.jsonl";
    {
        std::ofstream out(dup_before, std::ios::binary);
        out << fake_line << slurp(clean);
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

// ---- Coordinator building blocks ---------------------------------------

TEST(ShardHash, IsFnv1aAndStable)
{
    // Published FNV-1a 64 test vectors.
    EXPECT_EQ(service::shardHash(""), 14695981039346656037ull);
    EXPECT_EQ(service::shardHash("a"), 12638187200555641996ull);
    EXPECT_EQ(service::shardHash("gzip/base"),
              service::shardHash("gzip/base"));
    EXPECT_NE(service::shardHash("gzip/base"),
              service::shardHash("gzip/fdrt"));
    EXPECT_EQ(service::shardOfLabel("anything", 1), 0u);
    for (int i = 0; i < 8; ++i)
        EXPECT_LT(service::shardOfLabel("label" + std::to_string(i), 3),
                  3u);
}

TEST(ShardBackoff, GrowsDoublesCapsAndJitters)
{
    service::ShardPolicy policy;
    policy.backoffBaseSeconds = 0.1;
    policy.backoffCapSeconds = 2.0;
    const double raws[] = {0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0};
    std::uint64_t rng = 42;
    for (unsigned k = 0; k < 7; ++k) {
        const double d =
            service::shardBackoffSeconds(k + 1, policy, rng);
        EXPECT_GE(d, raws[k] / 2 - 1e-12) << "failure " << (k + 1);
        EXPECT_LE(d, raws[k] + 1e-12) << "failure " << (k + 1);
    }

    // Same seed, same sequence — the jitter is deterministic.
    std::uint64_t a = 7, b = 7;
    for (unsigned k = 1; k <= 5; ++k)
        EXPECT_EQ(service::shardBackoffSeconds(k, policy, a),
                  service::shardBackoffSeconds(k, policy, b));
}

TEST(SlotRanges, CompressConsecutiveRuns)
{
    EXPECT_EQ(service::formatSlotRanges({}), "");
    EXPECT_EQ(service::formatSlotRanges({5}), "5");
    EXPECT_EQ(service::formatSlotRanges({0, 1, 2, 3, 7, 9, 10}),
              "0-3,7,9-10");
}

TEST(JournalChunk, ConsumesWholeLinesOnly)
{
    campaign::JobOutcome ok;
    ok.label = "j0";
    ok.status = campaign::JobStatus::Ok;
    const std::string line0 = campaign::encodeJournalRecord(0, ok);
    ok.label = "j1";
    const std::string line1 = campaign::encodeJournalRecord(1, ok);

    // Clean chunk: everything consumed, nothing torn.
    service::ParsedChunk clean =
        service::parseJournalChunk(line0 + line1);
    EXPECT_EQ(clean.entries.size(), 2u);
    EXPECT_EQ(clean.consumedBytes, line0.size() + line1.size());
    EXPECT_FALSE(clean.torn);

    // Torn tail: the partial record is neither consumed nor decoded.
    const std::string torn_tail = line1.substr(0, line1.size() / 2);
    service::ParsedChunk torn =
        service::parseJournalChunk(line0 + torn_tail);
    ASSERT_EQ(torn.entries.size(), 1u);
    EXPECT_EQ(torn.entries[0].record.index, 0u);
    EXPECT_EQ(torn.consumedBytes, line0.size());
    EXPECT_TRUE(torn.torn);

    // A complete-but-corrupt line is consumed (skipping it cannot lose
    // a record: the daemon re-serves real records forever) but counted.
    service::ParsedChunk corrupt =
        service::parseJournalChunk("not json\n" + line1);
    EXPECT_EQ(corrupt.entries.size(), 1u);
    EXPECT_EQ(corrupt.corruptLines, 1u);
    EXPECT_EQ(corrupt.consumedBytes, 9 + line1.size());

    // A nonempty chunk with zero whole lines consumes nothing — the
    // caller treats that as a transport failure, not progress.
    service::ParsedChunk none = service::parseJournalChunk("{\"trunc");
    EXPECT_TRUE(none.entries.empty());
    EXPECT_EQ(none.consumedBytes, 0u);
    EXPECT_TRUE(none.torn);
}

TEST(MergeJournals, DedupesValidatesAndFindsMissing)
{
    const std::string dir = tempDir("merge");
    const std::vector<campaign::Job> all = campaign::parseMatrix(kSpec);

    // Produce real per-shard journals (global indices) for slots
    // {0,2} and {1} — slot 3 is missing, and shard B also re-ran
    // slot 0 (failover duplicate).
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
        // Duplicate + alien record appended to shard B's journal.
        const std::string first_line =
            slurp(a).substr(0, slurp(a).find('\n') + 1);
        campaign::JobOutcome alien;
        alien.label = "not/a/job";
        std::ofstream out(b, std::ios::binary | std::ios::app);
        out << first_line << campaign::encodeJournalRecord(9, alien);
    }

    const std::string merged = dir + "/merged.jsonl";
    service::MergeResult result = service::mergeJournalFiles(
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

// ---- In-process daemons + fault proofs ---------------------------------

/** A real ServiceServer served from an in-process thread. */
class InProcDaemon
{
  public:
    explicit InProcDaemon(const std::string &tag, unsigned workers = 2)
        : dir_(tempDir("d_" + tag))
    {
        service::ServiceServer::Config config;
        config.socketPath = dir_ + "/d.sock";
        config.registry.stateDir = dir_ + "/state";
        config.registry.workers = workers;
        server_ = std::make_unique<service::ServiceServer>(config);
        thread_ = std::thread([this] { server_->serve(stop_); });
        waitReady();
    }

    ~InProcDaemon() { stop(); }

    void stop()
    {
        if (!thread_.joinable())
            return;
        stop_ = true;
        thread_.join();
    }

    std::string socket() const { return dir_ + "/d.sock"; }
    const std::string &dir() const { return dir_; }

  private:
    void waitReady()
    {
        for (int i = 0; i < 100; ++i) {
            service::HttpResponse resp;
            std::string error;
            if (service::httpRequest(socket(), "GET", "/v1/ping", "",
                                     resp, error) &&
                resp.status == 200)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        FAIL() << "in-process daemon never became ready";
    }

    std::string dir_;
    std::unique_ptr<service::ServiceServer> server_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/** Fast-failing policy so fault scenarios converge in milliseconds. */
service::ShardPolicy
quickPolicy()
{
    service::ShardPolicy policy;
    policy.connectTimeoutSeconds = 2.0;
    policy.readTimeoutSeconds = 10.0;
    policy.writeTimeoutSeconds = 5.0;
    policy.pollWaitSeconds = 0.2;
    policy.backoffBaseSeconds = 0.01;
    policy.backoffCapSeconds = 0.05;
    policy.maxConsecutiveFailures = 3;
    policy.jitterSeed = 7;
    policy.localWorkers = 2;
    return policy;
}

TEST(ShardCoordinator, TwoShardsProduceByteIdenticalReport)
{
    InProcDaemon a("happy_a"), b("happy_b");
    service::ShardOptions options;
    options.spec = kSpec;
    options.sockets = {a.socket(), b.socket()};
    options.policy = quickPolicy();

    const service::ShardedReport sharded =
        service::runShardedCampaign(options);
    EXPECT_EQ(sharded.report.toJson(), referenceJson(kSpec));
    EXPECT_EQ(sharded.reassignedSlots, 0u);
    EXPECT_EQ(sharded.locallyRunSlots, 0u);
    std::size_t assigned = 0, completed = 0;
    for (const service::ShardStats &stats : sharded.shards) {
        EXPECT_FALSE(stats.circuitOpen) << stats.socket;
        assigned += stats.assignedSlots;
        completed += stats.completedSlots;
    }
    EXPECT_EQ(assigned, 4u);
    EXPECT_EQ(completed, 4u);
    EXPECT_TRUE(sharded.journalPath.empty()); // temp journal cleaned
}

TEST(ShardCoordinator, RefusedConnectionsRetryWithBackoff)
{
    InProcDaemon upstream("refuse");
    const std::string dir = tempDir("refuse_proxy");
    verify::NetFaultProxy proxy(dir + "/p.sock", upstream.socket());
    std::string error;
    ASSERT_TRUE(proxy.start(error)) << error;
    verify::NetFaultProxy::Plan plan;
    plan.refuseConnections = 2; // below the circuit threshold of 3
    proxy.setPlan(plan);

    service::ShardOptions options;
    options.spec = kSpec;
    options.sockets = {proxy.listenPath()};
    options.policy = quickPolicy();

    const service::ShardedReport sharded =
        service::runShardedCampaign(options);
    // Backoff rode out the refusals: same bytes, no circuit, and the
    // sleeps/failures are visible in the stats.
    EXPECT_EQ(sharded.report.toJson(), referenceJson(kSpec));
    ASSERT_EQ(sharded.shards.size(), 1u);
    EXPECT_FALSE(sharded.shards[0].circuitOpen);
    EXPECT_EQ(sharded.shards[0].transportFailures, 2u);
    EXPECT_EQ(sharded.shards[0].backoffSleeps, 2u);
    EXPECT_EQ(sharded.locallyRunSlots, 0u);
    EXPECT_GE(proxy.stats().refused, 2u);
    proxy.stop();
}

TEST(ShardCoordinator, DeadShardIsCircuitBrokenAndReassigned)
{
    InProcDaemon survivor("dead_a");
    const std::string dead =
        tempDir("dead_sock") + "/never-bound.sock";

    // The hash must give the dead shard (index 1) some slots, or the
    // scenario would not exercise reassignment at all.
    const std::vector<campaign::Job> all = campaign::parseMatrix(kSpec);
    std::size_t dead_slots = 0;
    for (const campaign::Job &job : all)
        if (service::shardOfLabel(job.label, 2) == 1)
            ++dead_slots;
    ASSERT_GT(dead_slots, 0u) << "pick a matrix that hashes to both";

    service::ShardOptions options;
    options.spec = kSpec;
    options.sockets = {survivor.socket(), dead};
    options.policy = quickPolicy();

    const service::ShardedReport sharded =
        service::runShardedCampaign(options);
    EXPECT_EQ(sharded.report.toJson(), referenceJson(kSpec));
    EXPECT_FALSE(sharded.shards[0].circuitOpen);
    EXPECT_EQ(sharded.shards[0].circuitBreaks, 0u);
    EXPECT_TRUE(sharded.shards[1].circuitOpen);
    EXPECT_EQ(sharded.shards[1].circuitBreaks, 1u);
    EXPECT_GE(sharded.shards[1].healthProbes, 1u);
    EXPECT_EQ(sharded.shards[1].completedSlots, 0u);
    EXPECT_GE(sharded.shards[1].transportFailures, 3u);
    EXPECT_EQ(sharded.reassignedSlots, dead_slots);
    EXPECT_EQ(sharded.locallyRunSlots, 0u);
}

TEST(ShardCoordinator, TraceIdReachesEveryShardOnEveryExchange)
{
    InProcDaemon a("trace_a"), b("trace_b");
    const std::string dir = tempDir("trace_proxy");
    // A capturing proxy in front of each daemon shows exactly what
    // crossed the wire, fault-free.
    verify::NetFaultProxy proxy_a(dir + "/a.sock", a.socket());
    verify::NetFaultProxy proxy_b(dir + "/b.sock", b.socket());
    std::string error;
    ASSERT_TRUE(proxy_a.start(error)) << error;
    ASSERT_TRUE(proxy_b.start(error)) << error;

    service::ShardOptions options;
    options.spec = kSpec;
    options.sockets = {proxy_a.listenPath(), proxy_b.listenPath()};
    options.policy = quickPolicy();
    options.traceId = "feedfacecafe0001";

    const service::ShardedReport sharded =
        service::runShardedCampaign(options);
    EXPECT_EQ(sharded.report.toJson(), referenceJson(kSpec));

    for (verify::NetFaultProxy *proxy : {&proxy_a, &proxy_b}) {
        const std::vector<std::string> requests =
            proxy->capturedRequests();
        ASSERT_FALSE(requests.empty()) << proxy->listenPath();
        for (const std::string &request : requests)
            EXPECT_NE(request.find(
                          "X-Ctcp-Trace-Id: feedfacecafe0001\r\n"),
                      std::string::npos)
                << request.substr(0, request.find("\r\n\r\n"));
    }
    proxy_a.stop();
    proxy_b.stop();
}

TEST(ShardCoordinator, TruncatedStreamsCircuitBreakAndReassign)
{
    InProcDaemon direct("trunc_a"), behind("trunc_b");
    const std::string dir = tempDir("trunc_proxy");
    verify::NetFaultProxy proxy(dir + "/p.sock", behind.socket());
    std::string error;
    ASSERT_TRUE(proxy.start(error)) << error;
    verify::NetFaultProxy::Plan plan;
    plan.faultedResponses = 1000; // every response through the proxy
    plan.truncateResponseBytes = 40; // cut inside the status line
    proxy.setPlan(plan);

    service::ShardOptions options;
    options.spec = kSpec;
    options.sockets = {direct.socket(), proxy.listenPath()};
    options.policy = quickPolicy();

    const service::ShardedReport sharded =
        service::runShardedCampaign(options);
    // Truncation is never mistaken for data: the cut shard fails, its
    // circuit opens, and the surviving shard covers its slots with the
    // exact same bytes as a clean single-host run.
    EXPECT_EQ(sharded.report.toJson(), referenceJson(kSpec));
    EXPECT_FALSE(sharded.shards[0].circuitOpen);
    EXPECT_TRUE(sharded.shards[1].circuitOpen);
    EXPECT_GE(sharded.shards[1].transportFailures, 3u);
    EXPECT_EQ(sharded.locallyRunSlots, 0u);
    EXPECT_GE(proxy.stats().faulted, 3u);
    proxy.stop();
}

TEST(ShardCoordinator, DelaysPastDeadlineCircuitBreak)
{
    InProcDaemon direct("delay_a"), behind("delay_b");
    const std::string dir = tempDir("delay_proxy");
    verify::NetFaultProxy proxy(dir + "/p.sock", behind.socket());
    std::string error;
    ASSERT_TRUE(proxy.start(error)) << error;
    verify::NetFaultProxy::Plan plan;
    plan.faultedResponses = 1000;
    plan.responseDelaySeconds = 1.0; // far past the read deadline
    proxy.setPlan(plan);

    service::ShardOptions options;
    options.spec = kSpec;
    options.sockets = {direct.socket(), proxy.listenPath()};
    options.policy = quickPolicy();
    options.policy.readTimeoutSeconds = 0.15;
    options.policy.pollWaitSeconds = 0.1;

    const service::ShardedReport sharded =
        service::runShardedCampaign(options);
    // A daemon slower than the deadline is indistinguishable from a
    // dead one: deadlines fire, the circuit opens, work moves on.
    EXPECT_EQ(sharded.report.toJson(), referenceJson(kSpec));
    EXPECT_TRUE(sharded.shards[1].circuitOpen);
    EXPECT_GE(sharded.shards[1].transportFailures, 3u);
    EXPECT_EQ(sharded.locallyRunSlots, 0u);
    proxy.stop();
}

TEST(ShardCoordinator, AllShardsDeadDegradesToLocalExecution)
{
    const std::string dir = tempDir("alldead");
    service::ShardOptions options;
    options.spec = kSpec;
    options.sockets = {dir + "/a.sock", dir + "/b.sock"};
    options.policy = quickPolicy();

    const service::ShardedReport sharded =
        service::runShardedCampaign(options);
    EXPECT_EQ(sharded.report.toJson(), referenceJson(kSpec));
    EXPECT_EQ(sharded.locallyRunSlots, 4u);
    for (const service::ShardStats &stats : sharded.shards)
        EXPECT_TRUE(stats.circuitOpen) << stats.socket;
}

TEST(ShardCoordinator, NoLocalFallbackSurfacesUndeliveredSlots)
{
    const std::string dir = tempDir("nofallback");
    service::ShardOptions options;
    options.spec = kSpec;
    options.sockets = {dir + "/a.sock"};
    options.policy = quickPolicy();
    options.policy.localFallback = false;
    options.journalPath = dir + "/merged.jsonl";

    EXPECT_THROW(service::runShardedCampaign(options), SimError);
    // The merged journal survives for ctcp_merge recovery.
    EXPECT_TRUE(std::filesystem::exists(options.journalPath));
}

TEST(ShardCoordinator, RejectsBadSpecsUpFront)
{
    service::ShardOptions options;
    options.spec = std::string(kSpec) + ";slots=0";
    options.sockets = {"/tmp/whatever.sock"};
    EXPECT_THROW(service::runShardedCampaign(options), SimError);

    options.spec = kSpec;
    options.sockets.clear();
    EXPECT_THROW(service::runShardedCampaign(options), SimError);
}

TEST(ShardCoordinator, ResumesFromExistingMergedJournal)
{
    InProcDaemon daemon("resume");
    const std::string dir = tempDir("resume_coord");
    const std::string journal = dir + "/merged.jsonl";

    // A previous coordinator got slots 0 and 2 before dying.
    {
        std::vector<std::size_t> map;
        const std::vector<campaign::Job> subset = campaign::parseMatrix(
            std::string(kSpec) + ";slots=0,2", map);
        campaign::Options options;
        options.jobs = 2;
        options.journalPath = journal;
        options.slotIndexMap = map;
        campaign::runCampaign(subset, options);
    }

    service::ShardOptions options;
    options.spec = kSpec;
    options.sockets = {daemon.socket()};
    options.policy = quickPolicy();
    options.journalPath = journal;

    const service::ShardedReport sharded =
        service::runShardedCampaign(options);
    EXPECT_EQ(sharded.report.toJson(), referenceJson(kSpec));
    // Only the two missing slots were handed to the shard.
    EXPECT_EQ(sharded.shards[0].assignedSlots, 2u);
    EXPECT_EQ(sharded.shards[0].completedSlots, 2u);
    EXPECT_EQ(sharded.journalPath, journal);
}

} // namespace
} // namespace ctcp
