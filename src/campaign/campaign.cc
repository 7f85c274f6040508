#include "campaign/campaign.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/journal.hh"
#include "cluster/interconnect.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/parse_number.hh"
#include "core/simulator.hh"
#include "workload/workload.hh"

namespace ctcp::campaign {

namespace {

/** Re-indent an embedded JSON block: prefix every line but the first. */
std::string
indentBlock(std::string block, const std::string &indent)
{
    while (!block.empty() &&
           (block.back() == '\n' || block.back() == ' '))
        block.pop_back();
    std::string out;
    out.reserve(block.size());
    for (const char c : block) {
        out += c;
        if (c == '\n')
            out += indent;
    }
    return out;
}

} // namespace

unsigned
parseWorkerCount(const std::string &text)
{
    return static_cast<unsigned>(
        parseUnsigned(text, "worker count", 0, 4096));
}

unsigned
resolveWorkers(unsigned workers)
{
    return workers ? workers
                   : std::max(1u, std::thread::hardware_concurrency());
}

void
runIndexed(std::size_t count, unsigned workers,
           const std::function<void(std::size_t)> &body)
{
    const std::size_t threads =
        std::min<std::size_t>(resolveWorkers(workers), count);
    if (threads <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        while (true) {
            const std::size_t i = next.fetch_add(1);
            if (i >= count)
                return;
            body(i);
        }
    };
    std::vector<std::thread> helpers;
    helpers.reserve(threads - 1);
    try {
        for (std::size_t t = 1; t < threads; ++t)
            helpers.emplace_back(work);
    } catch (const std::system_error &) {
        // The system would start no more threads: the ones running,
        // the caller included, take every index left.
    }
    work();
    for (std::thread &t : helpers)
        t.join();
}

std::string
sanitizeLabel(const std::string &label)
{
    std::string out;
    out.reserve(label.size());
    for (const char c : label) {
        const bool safe = (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
            c == '-' || c == '.' || c == '_';
        out += safe ? c : '_';
    }
    return out.empty() ? "job" : out;
}

std::string
jobFileStem(const std::string &label, std::size_t index)
{
    return sanitizeLabel(label) + "-" + std::to_string(index);
}

Program
BenchmarkBuilder::operator()() const
{
    // workloads::build() fatal()s on unknown names, which would kill
    // the whole campaign; throw instead so only this job fails.
    if (!workloads::exists(benchmark))
        throw std::invalid_argument("unknown benchmark '" + benchmark +
                                    "'");
    return workloads::build(benchmark);
}

Job
makeJob(std::string label, std::string benchmark, SimConfig config)
{
    Job job;
    job.label = std::move(label);
    job.benchmark = std::move(benchmark);
    job.config = std::move(config);
    job.builder = BenchmarkBuilder{job.benchmark};
    return job;
}

std::size_t
Report::failed() const
{
    std::size_t n = 0;
    for (const JobOutcome &out : jobs)
        if (!out.ok())
            ++n;
    return n;
}

const JobOutcome &
Report::at(const std::string &label) const
{
    for (const JobOutcome &out : jobs)
        if (out.label == label)
            return out;
    ctcp_fatal("no campaign job labelled '%s'", label.c_str());
}

std::string
Report::toJson(bool include_host_timing, bool include_accounting) const
{
    std::string out = "{\n";
    out += "  \"campaign\": {\n";
    out += "    \"jobs\": " + std::to_string(jobs.size()) + ",\n";
    out += "    \"failed\": " + std::to_string(failed()) + "\n";
    out += "  },\n";
    out += "  \"results\": [";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobOutcome &job = jobs[i];
        out += i ? ",\n" : "\n";
        out += "    {\n";
        out += "      \"label\": \"" + json::escape(job.label) + "\",\n";
        out += "      \"benchmark\": \"" + json::escape(job.benchmark) +
               "\",\n";
        if (job.ok()) {
            out += "      \"status\": \"ok\",\n";
            // Only emitted when a retry happened: first-try successes
            // keep the exact bytes of the pre-retry format (the
            // golden-stats contract).
            if (job.attempts > 1)
                out += "      \"attempts\": " +
                       std::to_string(job.attempts) + ",\n";
            out += "      \"metrics\": " +
                   indentBlock(job.result.toJson(include_host_timing,
                                                 include_accounting),
                               "      ") + "\n";
        } else {
            out += "      \"status\": \"failed\",\n";
            out += "      \"category\": \"";
            out += errorCategoryName(job.category);
            out += "\",\n";
            out += "      \"attempts\": " +
                   std::to_string(job.attempts) + ",\n";
            out += "      \"error\": \"" + json::escape(job.error) +
                   "\"\n";
        }
        out += "    }";
    }
    out += "\n  ]\n}\n";
    return out;
}

void
progressToStderr(const std::string &line)
{
    // Cross-campaign serialization: each runCampaign() serializes its
    // own progress calls, but campaigns run side by side would not.
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    std::fprintf(stderr, "%s\n", line.c_str());
}

namespace {

/** @p job's config as it runs: the campaign's options overlaid. */
SimConfig
runConfig(const Job &job, std::size_t index, const Options &options)
{
    // Per-job telemetry: overlay the campaign-wide output directories
    // onto the job's own config (which wins when it already names a
    // path).
    SimConfig config = job.config;
    const std::string stem = jobFileStem(job.label, index);
    if (!options.traceEventsDir.empty() &&
        config.obs.traceEventsPath.empty()) {
        config.obs.traceEventsPath =
            options.traceEventsDir + "/" + stem + ".trace.json";
        if (config.obs.traceFilter.empty())
            config.obs.traceFilter = options.traceFilter;
    }
    if (!options.intervalDir.empty() && options.intervalCycles > 0 &&
        config.obs.intervalPath.empty()) {
        config.obs.intervalPath =
            options.intervalDir + "/" + stem + ".intervals.csv";
        config.obs.intervalCycles = options.intervalCycles;
    }
    if (options.accounting)
        config.obs.accounting = true;
    // Campaign-wide deadline; a job-level deadline wins.
    if (config.deadlineSeconds <= 0.0 && options.jobDeadlineSeconds > 0.0)
        config.deadlineSeconds = options.jobDeadlineSeconds;
    return config;
}

/**
 * The registered benchmark @p job builds (an empty builder or a
 * BenchmarkBuilder), or null when its builder is the caller's own.
 */
const std::string *
programOf(const Job &job)
{
    if (!job.builder)
        return &job.benchmark;
    const BenchmarkBuilder *b = job.builder.target<BenchmarkBuilder>();
    return b ? &b->benchmark : nullptr;
}

/** One simulation attempt; fills @p out with the outcome. */
void
runAttempt(const Job &job, std::size_t index, const Options &options,
           JobOutcome &out)
{
    // "Building" distinguishes workload faults (bad benchmark, a
    // throwing builder) from simulator faults when a generic
    // exception carries no category of its own.
    bool building = true;
    try {
        // The Program is built inside the worker — and rebuilt on
        // every retry: builders seed their own Rng locally, so jobs
        // share no RNG state and an attempt starts from scratch.
        Program program = job.builder
            ? job.builder()
            : workloads::build(job.benchmark);
        building = false;
        const SimConfig config = runConfig(job, index, options);
        // Worker-local arena: chunks allocated by the first job on
        // this thread are reset and reused by every later job, so the
        // steady-state cycle loop of a long campaign never touches
        // malloc. Reset happens before the simulator is built and the
        // simulator is destroyed before the next reset, satisfying the
        // Arena lifetime contract.
        thread_local Arena arena;
        arena.reset();
        CtcpSimulator sim(config, program, &arena);
        out.result = sim.run();
        out.status = JobStatus::Ok;
        out.error.clear();
    } catch (const SimError &e) {
        out.status = JobStatus::Failed;
        out.category = e.category();
        out.error = e.what();
    } catch (const std::exception &e) {
        out.status = JobStatus::Failed;
        out.category = building ? ErrorCategory::Workload
                                : ErrorCategory::Internal;
        out.error = e.what();
    } catch (...) {
        out.status = JobStatus::Failed;
        out.category = building ? ErrorCategory::Workload
                                : ErrorCategory::Internal;
        out.error = "unknown exception";
    }
}

/**
 * Turn a copy of another job's outcome into @p job's: its label, and
 * host timing 0, because no cycle loop ran for it.
 */
void
adoptOutcome(const Job &job, JobOutcome &out)
{
    out.label = job.label;
    out.benchmark = job.benchmark;
    out.result.hostSeconds = 0.0;
    for (auto &[name, value] : out.result.metrics)
        if (name.rfind("host.", 0) == 0)
            value = 0.0;
}

} // namespace

std::vector<std::size_t>
representatives(const std::vector<Job> &jobs, const Options &options)
{
    std::vector<std::size_t> rep(jobs.size());
    // (program, configHash) -> the distinct configs seen in it so far,
    // each with the first job that runs it.
    std::map<std::pair<std::string, std::uint64_t>,
             std::vector<std::pair<std::size_t, SimConfig>>>
        buckets;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        rep[i] = i;
        const std::string *program = programOf(jobs[i]);
        if (!program)
            continue;
        SimConfig config = runConfig(jobs[i], i, options);
        if (!config.obs.traceEventsPath.empty() ||
            !config.obs.intervalPath.empty())
            continue;
        SimConfig canonical = canonicalTopology(std::move(config));
        auto &bucket = buckets[{*program, configHash(canonical)}];
        const auto same = std::find_if(
            bucket.begin(), bucket.end(),
            [&](const auto &seen) { return seen.second == canonical; });
        if (same != bucket.end())
            rep[i] = same->first;
        else
            bucket.emplace_back(i, std::move(canonical));
    }
    return rep;
}

Report
runCampaign(const std::vector<Job> &jobs, const Options &options)
{
    Report report;
    report.jobs.resize(jobs.size());

    // Shard support: journal records carry the campaign-wide slot
    // index (slotIndexMap[i]), not the local one, so journals written
    // by different hosts' slots= subsets of one campaign merge by
    // index.
    const std::vector<std::size_t> &slot_map = options.slotIndexMap;
    if (!slot_map.empty() && slot_map.size() != jobs.size())
        throw std::invalid_argument(
            "campaign: slotIndexMap size " +
            std::to_string(slot_map.size()) + " != job count " +
            std::to_string(jobs.size()));
    const auto journal_index = [&](std::size_t i) {
        return slot_map.empty() ? i : slot_map[i];
    };
    // Global journal index -> local job index (identity when unmapped).
    const auto local_index = [&](std::size_t global, std::size_t &local) {
        if (slot_map.empty()) {
            local = global;
            return global < jobs.size();
        }
        for (std::size_t i = 0; i < slot_map.size(); ++i) {
            if (slot_map[i] == global) {
                local = i;
                return true;
            }
        }
        return false;
    };

    // Checkpoint/resume: replay outcomes an earlier (killed) run of
    // the same campaign already journalled, then append new ones.
    // First-complete-wins: when overlapping subsets both journalled
    // one slot, the first record is kept and later duplicates are
    // ignored (deterministic simulation makes them byte-identical
    // anyway).
    std::vector<char> replayed(jobs.size(), 0);
    std::unique_ptr<JournalWriter> journal;
    if (!options.journalPath.empty()) {
        for (JournalRecord &rec : loadJournal(options.journalPath)) {
            std::size_t local = 0;
            if (!local_index(rec.index, local) ||
                rec.outcome.label != jobs[local].label) {
                ctcp_warn("journal %s: record '%s' (index %zu) does "
                          "not match this campaign; ignored",
                          options.journalPath.c_str(),
                          rec.outcome.label.c_str(), rec.index);
                continue;
            }
            if (replayed[local])
                continue;
            report.jobs[local] = std::move(rec.outcome);
            replayed[local] = 1;
        }
        journal = std::make_unique<JournalWriter>(options.journalPath);
    }

    const unsigned max_attempts = options.maxAttempts ?
        options.maxAttempts : 1;

    // One task per distinct simulation: its members in index order,
    // the representative first.
    std::vector<std::vector<std::size_t>> groups;
    {
        const std::vector<std::size_t> rep =
            representatives(jobs, options);
        std::vector<std::size_t> group_of(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (rep[i] == i) {
                group_of[i] = groups.size();
                groups.emplace_back();
            }
            groups[group_of[rep[i]]].push_back(i);
        }
    }

    std::atomic<std::size_t> finished{0};
    std::mutex progress_mutex;

    const auto finish = [&](std::size_t i, const char *origin) {
        const JobOutcome &out = report.jobs[i];
        if (options.onJobFinished)
            options.onJobFinished(i, out);
        const std::size_t done =
            finished.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (options.progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            options.progress(
                "[" + std::to_string(done) + "/" +
                std::to_string(jobs.size()) + "] " + out.label + ": " +
                (out.ok() ? std::string("ok") + origin
                          : "FAILED (" + out.error + ")"));
        }
    };

    const auto body = [&](std::size_t g) {
        const std::vector<std::size_t> &members = groups[g];
        // The group's outcome: one the journal already holds, else the
        // representative's own run.
        const auto held = std::find_if(
            members.begin(), members.end(),
            [&](std::size_t i) { return replayed[i] != 0; });
        const std::size_t source =
            held != members.end() ? *held : members.front();
        bool cancelled = false;
        if (!replayed[source]) {
            const Job &job = jobs[source];
            JobOutcome &out = report.jobs[source];
            out.label = job.label;
            out.benchmark = job.benchmark;
            if (options.cancelRequested && options.cancelRequested()) {
                // Checkpoint semantics: a cancelled job is reported
                // but never journaled, so resuming with the same
                // journal re-runs exactly the jobs that did not
                // finish (see Options::cancelRequested).
                cancelled = true;
                out.status = JobStatus::Failed;
                out.category = ErrorCategory::Cancelled;
                out.error = "cancelled before start";
            } else {
                for (unsigned attempt = 1; ; ++attempt) {
                    out.attempts = attempt;
                    runAttempt(job, source, options, out);
                    if (out.ok() || attempt >= max_attempts ||
                        !errorCategoryRetryable(out.category))
                        break;
                }
                if (journal)
                    journal->append(journal_index(source), out);
            }
            finish(source, "");
        }
        for (const std::size_t i : members) {
            if (replayed[i]) {
                finish(i, " (journal)");
                continue;
            }
            if (i == source)
                continue;
            JobOutcome &out = report.jobs[i];
            out = report.jobs[source];
            adoptOutcome(jobs[i], out);
            if (journal && !cancelled)
                journal->append(journal_index(i), out);
            finish(i, " (shared)");
        }
    };

    runIndexed(groups.size(), options.jobs, body);
    return report;
}

} // namespace ctcp::campaign
