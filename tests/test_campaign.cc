/**
 * @file
 * Campaign-engine tests: work-stealing pool correctness, bit-identical
 * determinism of repeated runs, worker-count independence of the
 * aggregated report, per-job failure isolation, matrix-spec parsing,
 * and the sharing contract: jobs that compute the same simulation
 * share one run and report exactly what running alone would.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/matrix.hh"
#include "campaign/work_queue.hh"
#include "config/presets.hh"
#include "prog/builder.hh"
#include "tmp_dir.hh"
#include "workload/workload.hh"

namespace ctcp {
namespace {

SimConfig
quickConfig(std::uint64_t budget = 20'000)
{
    SimConfig cfg = baseConfig();
    cfg.instructionLimit = budget;
    return cfg;
}

/** A tiny self-contained program for builder-injection tests. */
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

TEST(WorkStealingPool, RunsEveryJobExactlyOnce)
{
    constexpr std::size_t njobs = 64;
    std::vector<std::atomic<int>> hits(njobs);
    for (auto &h : hits)
        h = 0;
    campaign::WorkStealingPool pool(4);
    pool.run(njobs, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < njobs; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "job " << i;
}

TEST(WorkStealingPool, MoreWorkersThanJobs)
{
    std::vector<std::atomic<int>> hits(3);
    for (auto &h : hits)
        h = 0;
    campaign::WorkStealingPool pool(16);
    pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(WorkStealingPool, SerialPathPreservesSubmissionOrder)
{
    std::vector<std::size_t> order;
    campaign::WorkStealingPool pool(1);
    pool.run(8, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(WorkStealingPool, ZeroJobsIsANoop)
{
    campaign::WorkStealingPool pool(4);
    pool.run(0, [](std::size_t) { FAIL() << "no job should run"; });
}

TEST(Campaign, SameRunTwiceIsBitIdentical)
{
    // The determinism contract underlying every cached, shared or
    // parallel result: identical (config, workload, budget) =>
    // identical full stat dump, not just headline numbers. Two
    // campaigns, because one campaign runs the pair once.
    const campaign::Job job = campaign::makeJob("a", "gzip", quickConfig());
    const campaign::Report first = campaign::runCampaign({job});
    const campaign::Report second = campaign::runCampaign({job});
    ASSERT_EQ(first.failed(), 0u);
    ASSERT_EQ(second.failed(), 0u);
    const SimResult &a = first.jobs[0].result;
    const SimResult &b = second.jobs[0].result;
    EXPECT_GT(b.hostSeconds, 0.0) << "the second run did not run";
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_EQ(a.statsText, b.statsText);
    EXPECT_FALSE(a.statsText.empty());
}

TEST(Campaign, AggregationIndependentOfWorkerCount)
{
    // A 3-workload x 4-strategy campaign (every scheduler path,
    // including issue-time steering) must aggregate to byte-identical
    // JSON and CSV whether run on 1 worker or 4.
    std::vector<campaign::Job> jobs;
    for (const char *bench : {"gzip", "twolf", "adpcm_enc"}) {
        for (AssignStrategy s :
             {AssignStrategy::BaseSlotOrder, AssignStrategy::Fdrt,
              AssignStrategy::Friendly, AssignStrategy::IssueTime}) {
            SimConfig cfg = quickConfig();
            cfg.assign.strategy = s;
            if (s == AssignStrategy::IssueTime)
                cfg.assign.issueTimeLatency = 4;
            jobs.push_back(campaign::makeJob(
                std::string(bench) + "/" + assignStrategyName(s), bench,
                cfg));
        }
    }

    campaign::Options serial;
    serial.jobs = 1;
    campaign::Options parallel;
    parallel.jobs = 4;
    const campaign::Report r1 = campaign::runCampaign(jobs, serial);
    const campaign::Report r4 = campaign::runCampaign(jobs, parallel);

    ASSERT_EQ(r1.failed(), 0u);
    ASSERT_EQ(r4.failed(), 0u);
    EXPECT_EQ(r1.toJson(), r4.toJson());
    EXPECT_EQ(r1.toCsv(), r4.toCsv());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(r1.jobs[i].label, jobs[i].label);
        EXPECT_EQ(r1.jobs[i].result.statsText,
                  r4.jobs[i].result.statsText);
    }
}

TEST(Campaign, HostTimingExcludedFromDefaultExport)
{
    // Host wall-clock metrics vary run to run; they must stay out of
    // the default (determinism-contract) JSON and only appear when
    // explicitly requested.
    std::vector<campaign::Job> jobs;
    jobs.push_back(campaign::makeJob("gzip/base", "gzip", quickConfig()));
    campaign::Options serial;
    serial.jobs = 1;
    const campaign::Report report = campaign::runCampaign(jobs, serial);
    ASSERT_EQ(report.failed(), 0u);

    const SimResult &r = report.jobs[0].result;
    EXPECT_GT(r.hostSeconds, 0.0);
    EXPECT_GT(r.simInstsPerHostSecond(), 0.0);
    ASSERT_TRUE(r.metrics.count("host.seconds"));
    ASSERT_TRUE(r.metrics.count("host.sim_insts_per_sec"));

    EXPECT_EQ(report.toJson().find("host."), std::string::npos);
    EXPECT_EQ(r.toJson().find("host."), std::string::npos);
    EXPECT_NE(report.toJson(true).find("host.seconds"),
              std::string::npos);
    EXPECT_NE(r.toJson(true).find("host.sim_insts_per_sec"),
              std::string::npos);
}

TEST(Campaign, ThrowingBuilderFailsOnlyItsJob)
{
    std::vector<campaign::Job> jobs;
    jobs.push_back(campaign::makeJob("ok-1", "gzip", quickConfig()));
    campaign::Job bomb;
    bomb.label = "bomb";
    bomb.benchmark = "synthetic";
    bomb.config = quickConfig();
    bomb.builder = []() -> Program {
        throw std::runtime_error("workload builder exploded");
    };
    jobs.push_back(bomb);
    jobs.push_back(campaign::makeJob("ok-2", "twolf", quickConfig()));

    const campaign::Report report = campaign::runCampaign(jobs);
    ASSERT_EQ(report.jobs.size(), 3u);
    EXPECT_EQ(report.failed(), 1u);
    EXPECT_TRUE(report.at("ok-1").ok());
    EXPECT_TRUE(report.at("ok-2").ok());
    EXPECT_GT(report.at("ok-1").result.instructions, 0u);
    EXPECT_GT(report.at("ok-2").result.instructions, 0u);

    const campaign::JobOutcome &failed = report.at("bomb");
    EXPECT_FALSE(failed.ok());
    EXPECT_NE(failed.error.find("workload builder exploded"),
              std::string::npos);

    // The failure is visible in both export formats.
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
    EXPECT_NE(json.find("workload builder exploded"), std::string::npos);
    EXPECT_NE(json.find("\"failed\": 1"), std::string::npos);
    const std::string csv = report.toCsv();
    EXPECT_NE(csv.find("bomb,synthetic,,failed,workload builder "
                       "exploded"),
              std::string::npos);
}

TEST(Campaign, UnknownBenchmarkFailsJobNotProcess)
{
    const std::vector<campaign::Job> jobs = {
        campaign::makeJob("bad", "no_such_bench", quickConfig()),
        campaign::makeJob("good", "gzip", quickConfig()),
    };
    const campaign::Report report = campaign::runCampaign(jobs);
    EXPECT_EQ(report.failed(), 1u);
    EXPECT_FALSE(report.at("bad").ok());
    EXPECT_NE(report.at("bad").error.find("no_such_bench"),
              std::string::npos);
    EXPECT_TRUE(report.at("good").ok());
}

TEST(Campaign, CustomBuilderRunsInsideWorker)
{
    campaign::Job job;
    job.label = "tiny";
    job.benchmark = "tiny";
    job.config = quickConfig(0);   // run to Halt
    job.builder = tinyProgram;

    campaign::Options options;
    options.jobs = 2;
    const campaign::Report report =
        campaign::runCampaign({job, job}, options);
    ASSERT_EQ(report.failed(), 0u);
    EXPECT_EQ(report.jobs[0].result.instructions,
              report.jobs[1].result.instructions);
    EXPECT_GT(report.jobs[0].result.instructions, 10'000u);
}

TEST(Campaign, ProgressReportsEveryJob)
{
    std::vector<campaign::Job> jobs = {
        campaign::makeJob("a", "gzip", quickConfig(5'000)),
        campaign::makeJob("b", "twolf", quickConfig(5'000)),
    };
    campaign::Options options;
    options.jobs = 2;
    std::vector<std::string> lines;
    std::mutex mutex;
    options.progress = [&](const std::string &line) {
        std::lock_guard<std::mutex> lock(mutex);
        lines.push_back(line);
    };
    campaign::runCampaign(jobs, options);
    ASSERT_EQ(lines.size(), 2u);
    // The final line always reports full completion.
    bool saw_final = false;
    for (const std::string &line : lines)
        if (line.find("[2/2]") != std::string::npos)
            saw_final = true;
    EXPECT_TRUE(saw_final);
}

TEST(CampaignMatrix, CrossProductAndLabels)
{
    const std::vector<campaign::Job> jobs = campaign::parseMatrix(
        "bench=gzip,twolf;strategy=base,fdrt;budget=1000");
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(jobs[0].label, "gzip/base/base");
    EXPECT_EQ(jobs[1].label, "gzip/base/fdrt");
    EXPECT_EQ(jobs[2].label, "twolf/base/base");
    EXPECT_EQ(jobs[3].label, "twolf/base/fdrt");
    EXPECT_EQ(jobs[1].config.assign.strategy, AssignStrategy::Fdrt);
    EXPECT_EQ(jobs[0].config.instructionLimit, 1000u);
}

TEST(CampaignMatrix, GroupsAndDefaultsExpand)
{
    // Defaults: bench=six, strategy=base, preset=base, budget=300000.
    const std::vector<campaign::Job> defaults = campaign::parseMatrix("");
    EXPECT_EQ(defaults.size(), 6u);
    EXPECT_EQ(defaults[0].config.instructionLimit, 300'000u);

    const std::vector<campaign::Job> media =
        campaign::parseMatrix("bench=media");
    EXPECT_EQ(media.size(), 14u);

    const std::vector<campaign::Job> all =
        campaign::parseMatrix("bench=all");
    EXPECT_EQ(all.size(), 26u);
}

TEST(CampaignMatrix, IssueTimeLatencySuffix)
{
    const std::vector<campaign::Job> jobs = campaign::parseMatrix(
        "bench=gzip;strategy=issue-time:0,issue-time:4");
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].config.assign.strategy, AssignStrategy::IssueTime);
    EXPECT_EQ(jobs[0].config.assign.issueTimeLatency, 0u);
    EXPECT_EQ(jobs[1].config.assign.issueTimeLatency, 4u);
    EXPECT_EQ(jobs[0].label, "gzip/base/issue-time:0");
}

TEST(CampaignMatrix, TopologyAndClusterDimensions)
{
    const std::vector<campaign::Job> jobs = campaign::parseMatrix(
        "bench=gzip;strategy=adaptive;topology=ring,crossbar;"
        "clusters=2,8;budget=2000");
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(jobs[0].label, "gzip/base/adaptive/ring/c2");
    EXPECT_EQ(jobs[1].label, "gzip/base/adaptive/ring/c8");
    EXPECT_EQ(jobs[2].label, "gzip/base/adaptive/crossbar/c2");
    EXPECT_EQ(jobs[3].label, "gzip/base/adaptive/crossbar/c8");
    EXPECT_EQ(jobs[0].config.assign.strategy, AssignStrategy::Adaptive);
    EXPECT_EQ(jobs[0].config.cluster.topology, Topology::Ring);
    EXPECT_EQ(jobs[2].config.cluster.topology, Topology::Crossbar);
    EXPECT_EQ(jobs[0].config.cluster.numClusters, 2u);
    EXPECT_EQ(jobs[1].config.cluster.numClusters, 8u);
    // Machine width scales with the cluster count.
    EXPECT_EQ(jobs[1].config.frontEnd.fetchWidth,
              8 * jobs[1].config.cluster.clusterWidth);
}

TEST(CampaignMatrix, TopologyOverridesPresetInterconnectFlags)
{
    // topology=... replaces the preset's interconnect (the mesh
    // preset's ring here); the preset's other knobs are kept.
    const std::vector<campaign::Job> jobs = campaign::parseMatrix(
        "bench=gzip;preset=mesh;topology=bus;budget=1000");
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].label, "gzip/mesh/base/bus");
    EXPECT_EQ(jobs[0].config.cluster.topology, Topology::Bus);
}

TEST(CampaignMatrix, AbsentTopologyAndClustersArePassThrough)
{
    // A spec written before the new axes existed must expand to the
    // exact same jobs — same labels, same configs.
    const std::vector<campaign::Job> jobs = campaign::parseMatrix(
        "bench=gzip;strategy=base,fdrt;budget=1000");
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].label, "gzip/base/base");
    EXPECT_EQ(jobs[1].label, "gzip/base/fdrt");
    const SimConfig base = baseConfig();
    EXPECT_EQ(jobs[0].config.cluster.numClusters,
              base.cluster.numClusters);
    EXPECT_EQ(jobs[0].config.cluster.topology, base.cluster.topology);
}

TEST(CampaignMatrix, RejectsBadTopologyAndClusterValues)
{
    EXPECT_THROW(campaign::parseMatrix("topology=torus"),
                 std::invalid_argument);
    EXPECT_THROW(campaign::parseMatrix("clusters=0"),
                 std::invalid_argument);
    EXPECT_THROW(campaign::parseMatrix("clusters=9"),
                 std::invalid_argument);
    EXPECT_THROW(campaign::parseMatrix("clusters=two"),
                 std::invalid_argument);
    EXPECT_THROW(campaign::parseMatrix("clusters="),
                 std::invalid_argument);
}

TEST(CampaignAdaptive, DeterministicAcrossWorkerCounts)
{
    // The adaptive strategy closes a feedback loop through the slot
    // accounting; its interval decisions must still be a pure function
    // of the (config, workload) pair, so an 8-worker campaign over
    // every topology matches the serial one byte for byte.
    const std::vector<campaign::Job> jobs = campaign::parseMatrix(
        "bench=gzip,twolf;strategy=adaptive;"
        "topology=linear,ring,crossbar,hier,bus;budget=20000");
    ASSERT_EQ(jobs.size(), 10u);

    campaign::Options serial;
    serial.jobs = 1;
    campaign::Options parallel;
    parallel.jobs = 8;
    const campaign::Report r1 = campaign::runCampaign(jobs, serial);
    const campaign::Report r8 = campaign::runCampaign(jobs, parallel);

    ASSERT_EQ(r1.failed(), 0u);
    ASSERT_EQ(r8.failed(), 0u);
    EXPECT_EQ(r1.toJson(), r8.toJson());
    EXPECT_EQ(r1.toCsv(), r8.toCsv());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(r1.jobs[i].result.strategy, "adaptive");
        EXPECT_EQ(r1.jobs[i].result.statsText,
                  r8.jobs[i].result.statsText);
        ASSERT_TRUE(r1.jobs[i].result.metrics.count("adaptive.intervals"))
            << jobs[i].label;
        EXPECT_GT(r1.jobs[i].result.metrics.at("adaptive.intervals"), 0.0)
            << jobs[i].label;
    }
}

TEST(CampaignMatrix, PresetDimension)
{
    const std::vector<campaign::Job> jobs = campaign::parseMatrix(
        "bench=gzip;preset=base,mesh,twocluster");
    ASSERT_EQ(jobs.size(), 3u);
    EXPECT_EQ(jobs[1].config.cluster.topology, Topology::Ring);
    EXPECT_EQ(jobs[2].config.cluster.numClusters, 2u);
}

TEST(CampaignMatrix, MultipleBudgetsGetLabelSuffix)
{
    const std::vector<campaign::Job> jobs = campaign::parseMatrix(
        "bench=gzip;budget=1000,2000");
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].label, "gzip/base/base@1000");
    EXPECT_EQ(jobs[1].label, "gzip/base/base@2000");
}

TEST(CampaignMatrix, RejectsBadSpecs)
{
    EXPECT_THROW(campaign::parseMatrix("bench=not_a_bench"),
                 std::invalid_argument);
    EXPECT_THROW(campaign::parseMatrix("strategy=warp-speed"),
                 std::invalid_argument);
    EXPECT_THROW(campaign::parseMatrix("preset=hypercube"),
                 std::invalid_argument);
    EXPECT_THROW(campaign::parseMatrix("budget=0"),
                 std::invalid_argument);
    EXPECT_THROW(campaign::parseMatrix("budget=soon"),
                 std::invalid_argument);
    EXPECT_THROW(campaign::parseMatrix("colour=red"),
                 std::invalid_argument);
    EXPECT_THROW(campaign::parseMatrix("bench"),
                 std::invalid_argument);
}

TEST(CampaignMatrix, ParsedJobsActuallyRun)
{
    const std::vector<campaign::Job> jobs = campaign::parseMatrix(
        "bench=gzip;strategy=base,fdrt;budget=10000");
    const campaign::Report report = campaign::runCampaign(jobs);
    EXPECT_EQ(report.failed(), 0u);
    EXPECT_EQ(report.at("gzip/base/fdrt").result.strategy, "fdrt");
}

TEST(CampaignWorkers, ParseWorkerCountAcceptsValidValues)
{
    EXPECT_EQ(campaign::parseWorkerCount("0"), 0u);   // hardware threads
    EXPECT_EQ(campaign::parseWorkerCount("1"), 1u);
    EXPECT_EQ(campaign::parseWorkerCount("4"), 4u);
    EXPECT_EQ(campaign::parseWorkerCount("4096"), 4096u);
}

TEST(CampaignWorkers, ParseWorkerCountRejectsBadValues)
{
    EXPECT_THROW(campaign::parseWorkerCount("-1"), std::invalid_argument);
    EXPECT_THROW(campaign::parseWorkerCount("-4"), std::invalid_argument);
    EXPECT_THROW(campaign::parseWorkerCount(""), std::invalid_argument);
    EXPECT_THROW(campaign::parseWorkerCount("four"), std::invalid_argument);
    EXPECT_THROW(campaign::parseWorkerCount("4x"), std::invalid_argument);
    EXPECT_THROW(campaign::parseWorkerCount("4.5"), std::invalid_argument);
    EXPECT_THROW(campaign::parseWorkerCount("4097"), std::invalid_argument);
    EXPECT_THROW(campaign::parseWorkerCount("999999999999999999999"),
                 std::invalid_argument);
}

TEST(CampaignReport, CsvQuotesAwkwardFields)
{
    campaign::Job bomb;
    bomb.label = "a,\"b\"";
    bomb.benchmark = "x";
    bomb.config = quickConfig(1'000);
    bomb.builder = []() -> Program {
        throw std::runtime_error("line1\nline2, with comma");
    };
    const campaign::Report report = campaign::runCampaign({bomb});
    const std::string csv = report.toCsv();
    EXPECT_NE(csv.find("\"a,\"\"b\"\"\""), std::string::npos);
    EXPECT_NE(csv.find("\"line1\nline2, with comma\""),
              std::string::npos);
    // JSON escapes the newline instead.
    const std::string json = report.toJson();
    EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
}

// ---- One run per distinct simulation ------------------------------------

/** perfbench's sweep-daemon campaign (180 jobs). */
const char *const kSweep =
    "bench=six;strategy=base,issue-time:4,adaptive;"
    "topology=linear,ring,crossbar,hier,bus;clusters=2,8;budget=20000";

std::size_t
distinctCount(const std::vector<std::size_t> &rep)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < rep.size(); ++i)
        n += rep[i] == i;
    return n;
}

TEST(CampaignSharing, SweepMatchesEveryJobRunAlone)
{
    const std::vector<campaign::Job> jobs = campaign::parseMatrix(kSweep);
    ASSERT_EQ(jobs.size(), 180u);

    // At 2 clusters ring, crossbar and hier build the linear chain's
    // one link: 54 jobs share the run of their linear twin.
    const std::vector<std::size_t> rep = campaign::representatives(jobs);
    EXPECT_EQ(distinctCount(rep), 126u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (rep[i] == i)
            continue;
        std::string twin = jobs[i].label;
        for (const char *topo : {"/ring/", "/crossbar/", "/hier/"})
            if (const std::size_t at = twin.find(topo);
                at != std::string::npos)
                twin.replace(at, std::string(topo).size(), "/linear/");
        EXPECT_NE(jobs[i].label.find("/c2"), std::string::npos)
            << jobs[i].label;
        EXPECT_EQ(jobs[rep[i]].label, twin);
    }

    // Reference: every job alone, in its own single-job campaign.
    campaign::Report alone;
    alone.jobs.resize(jobs.size());
    campaign::WorkStealingPool(4).run(jobs.size(), [&](std::size_t i) {
        campaign::Options one;
        one.jobs = 1;
        alone.jobs[i] = campaign::runCampaign({jobs[i]}, one).jobs[0];
    });
    ASSERT_EQ(alone.failed(), 0u);

    for (const unsigned workers : {1u, 8u}) {
        campaign::Options options;
        options.jobs = workers;
        const campaign::Report shared =
            campaign::runCampaign(jobs, options);
        EXPECT_EQ(shared.toJson(), alone.toJson()) << workers;
        EXPECT_EQ(shared.toCsv(), alone.toCsv()) << workers;
    }
}

TEST(CampaignSharing, SharedJobsReportZeroHostTimeAndProgress)
{
    const std::vector<campaign::Job> jobs = campaign::parseMatrix(
        "bench=gzip;topology=linear,ring,crossbar,hier;clusters=2;"
        "budget=5000");
    ASSERT_EQ(campaign::representatives(jobs),
              (std::vector<std::size_t>{0, 0, 0, 0}));

    campaign::Options options;
    options.jobs = 2;
    std::mutex mutex;
    std::vector<std::string> lines;
    std::set<std::size_t> finished;
    options.progress = [&](const std::string &line) {
        std::lock_guard<std::mutex> lock(mutex);
        lines.push_back(line);
    };
    options.onJobFinished = [&](std::size_t i,
                                const campaign::JobOutcome &) {
        std::lock_guard<std::mutex> lock(mutex);
        finished.insert(i);
    };
    const campaign::Report report = campaign::runCampaign(jobs, options);
    ASSERT_EQ(report.failed(), 0u);
    EXPECT_EQ(finished, (std::set<std::size_t>{0, 1, 2, 3}));
    ASSERT_EQ(lines.size(), 4u);
    std::size_t shared_lines = 0;
    for (const std::string &line : lines)
        shared_lines += line.find("ok (shared)") != std::string::npos;
    EXPECT_EQ(shared_lines, 3u);

    // No cycle loop ran for the members: host time reads 0, also in
    // the --host-timing export, while everything else is the run's.
    const SimResult &run = report.jobs[0].result;
    EXPECT_GT(run.hostSeconds, 0.0);
    for (std::size_t i = 1; i < jobs.size(); ++i) {
        const campaign::JobOutcome &out = report.jobs[i];
        EXPECT_EQ(out.label, jobs[i].label);
        EXPECT_EQ(out.result.hostSeconds, 0.0);
        EXPECT_EQ(out.result.metrics.at("host.seconds"), 0.0);
        EXPECT_EQ(out.result.metrics.at("host.sim_insts_per_sec"), 0.0);
        EXPECT_NE(out.result.toJson(true).find("\"host.seconds\": 0.000000,"),
                  std::string::npos);
        EXPECT_EQ(out.result.toJson(), run.toJson());
        EXPECT_EQ(out.result.statsText, run.statsText);
    }
}

TEST(CampaignSharing, AGroupBuildsOnceAndCallerBuildersAlwaysRun)
{
    // A BenchmarkBuilder's source (ctcpd's cache hook) runs once per
    // distinct simulation...
    std::atomic<int> sourced{0};
    const auto cached = [&sourced] {
        ++sourced;
        return workloads::build("gzip");
    };
    std::vector<campaign::Job> jobs;
    for (const std::uint64_t budget : {4'000u, 4'000u, 4'000u, 6'000u}) {
        campaign::Job job = campaign::makeJob(
            "gzip@" + std::to_string(budget) + "/" +
                std::to_string(jobs.size()),
            "gzip", quickConfig(budget));
        job.builder = campaign::BenchmarkBuilder{"gzip", cached};
        jobs.push_back(job);
    }
    EXPECT_EQ(campaign::representatives(jobs),
              (std::vector<std::size_t>{0, 0, 0, 3}));
    EXPECT_EQ(campaign::runCampaign(jobs).failed(), 0u);
    EXPECT_EQ(sourced.load(), 2);

    // ...while a caller's own builder runs for every job.
    std::atomic<int> built{0};
    for (campaign::Job &job : jobs)
        job.builder = [&built] {
            ++built;
            return workloads::build("gzip");
        };
    EXPECT_EQ(campaign::representatives(jobs),
              (std::vector<std::size_t>{0, 1, 2, 3}));
    EXPECT_EQ(campaign::runCampaign(jobs).failed(), 0u);
    EXPECT_EQ(built.load(), 4);
}

TEST(CampaignSharing, JobsThatWriteFilesAreNeverShared)
{
    const std::vector<campaign::Job> jobs = campaign::parseMatrix(
        "bench=gzip;topology=linear,ring;clusters=2;budget=3000");
    ASSERT_EQ(campaign::representatives(jobs),
              (std::vector<std::size_t>{0, 0}));

    const std::filesystem::path dir = test::tmpPath("sharing_files");
    std::filesystem::create_directories(dir);
    campaign::Options options;
    options.traceEventsDir = dir.string();
    options.intervalDir = dir.string();
    options.intervalCycles = 500;
    EXPECT_EQ(campaign::representatives(jobs, options),
              (std::vector<std::size_t>{0, 1}));
    ASSERT_EQ(campaign::runCampaign(jobs, options).failed(), 0u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string stem = campaign::jobFileStem(jobs[i].label, i);
        EXPECT_TRUE(
            std::filesystem::exists(dir / (stem + ".trace.json")))
            << stem;
        EXPECT_TRUE(
            std::filesystem::exists(dir / (stem + ".intervals.csv")))
            << stem;
    }

    // A file named by the jobs' own configs keeps them apart too, even
    // when both name the same one.
    std::vector<campaign::Job> named = jobs;
    for (campaign::Job &job : named)
        job.config.obs.traceTextPath = (dir / "own.txt").string();
    EXPECT_EQ(campaign::representatives(named),
              (std::vector<std::size_t>{0, 1}));
    campaign::Options serial;   // two jobs, one file: one at a time
    serial.jobs = 1;
    ASSERT_EQ(campaign::runCampaign(named, serial).failed(), 0u);
    EXPECT_TRUE(std::filesystem::exists(dir / "own.txt"));
    std::filesystem::remove_all(dir);
}

TEST(CampaignSharing, OnlyEqualRunConfigsShare)
{
    const campaign::Job linear = campaign::parseMatrix(
        "bench=gzip;clusters=2;budget=3000")[0];
    const auto pair_with = [&](auto edit) {
        campaign::Job other = linear;
        other.label = "other";
        edit(other.config);
        return std::vector<campaign::Job>{linear, other};
    };
    const std::vector<std::size_t> shared = {0, 0};
    const std::vector<std::size_t> apart = {0, 1};

    EXPECT_EQ(campaign::representatives(pair_with([](SimConfig &) {})),
              shared);
    // Budgets, check level, watchdog and deadline are config fields.
    EXPECT_EQ(campaign::representatives(pair_with(
                  [](SimConfig &c) { c.instructionLimit = 3001; })),
              apart);
    EXPECT_EQ(campaign::representatives(
                  pair_with([](SimConfig &c) { c.checkLevel = 1; })),
              apart);
    EXPECT_EQ(campaign::representatives(pair_with(
                  [](SimConfig &c) { c.watchdogCycles = 5000; })),
              apart);
    EXPECT_EQ(campaign::representatives(pair_with(
                  [](SimConfig &c) { c.deadlineSeconds = 60.0; })),
              apart);
    // Accounting on one job only splits; a campaign-wide option puts
    // it on both, which share again.
    const std::vector<campaign::Job> accounted = pair_with(
        [](SimConfig &c) { c.obs.accounting = true; });
    EXPECT_EQ(campaign::representatives(accounted), apart);
    campaign::Options options;
    options.accounting = true;
    EXPECT_EQ(campaign::representatives(accounted, options), shared);
    // A different benchmark is a different program.
    std::vector<campaign::Job> twolf = pair_with([](SimConfig &) {});
    twolf[1] = campaign::makeJob("other", "twolf", linear.config);
    EXPECT_EQ(campaign::representatives(twolf), apart);
}

TEST(CampaignSharing, FailuresAndCancellationReachEveryMember)
{
    // A failing representative fails every member alike: status,
    // error, category and attempts.
    const auto expectSameFailure = [](const campaign::Report &report,
                                      ErrorCategory category,
                                      unsigned attempts) {
        ASSERT_EQ(report.jobs.size(), 2u);
        for (const campaign::JobOutcome &out : report.jobs) {
            EXPECT_FALSE(out.ok()) << out.label;
            EXPECT_EQ(out.category, category) << out.label;
            EXPECT_EQ(out.attempts, attempts) << out.label;
            EXPECT_EQ(out.error, report.jobs[0].error) << out.label;
        }
    };

    campaign::Options retry;
    retry.maxAttempts = 3;
    expectSameFailure(
        campaign::runCampaign(
            {campaign::makeJob("a", "no_such_bench", quickConfig()),
             campaign::makeJob("b", "no_such_bench", quickConfig())},
            retry),
        ErrorCategory::Workload, 3);

    SimConfig invalid = quickConfig();
    invalid.cluster.rsEntries = 0;
    expectSameFailure(
        campaign::runCampaign({campaign::makeJob("a", "gzip", invalid),
                               campaign::makeJob("b", "gzip", invalid)}),
        ErrorCategory::Config, 1);

    campaign::Options deadline;
    deadline.jobDeadlineSeconds = 1e-6;
    deadline.maxAttempts = 2;
    expectSameFailure(
        campaign::runCampaign(
            {campaign::makeJob("a", "gzip", quickConfig(2'000'000)),
             campaign::makeJob("b", "gzip", quickConfig(2'000'000))},
            deadline),
        ErrorCategory::Timeout, 2);

    campaign::Options cancel;
    cancel.cancelRequested = [] { return true; };
    expectSameFailure(
        campaign::runCampaign({campaign::makeJob("a", "gzip", quickConfig()),
                               campaign::makeJob("b", "gzip", quickConfig())},
                              cancel),
        ErrorCategory::Cancelled, 1);
}

} // namespace
} // namespace ctcp
