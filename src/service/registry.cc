#include "service/registry.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include <dirent.h>
#include <sys/stat.h>

#include "campaign/journal.hh"
#include "campaign/matrix.hh"
#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/sim_error.hh"
#include "obs/report.hh"
#include "service/http.hh"

namespace ctcp::service {

namespace {

/** mkdir -p: create @p path and any missing parents. */
void
makeDirs(const std::string &path)
{
    std::string prefix;
    std::size_t start = 0;
    while (start <= path.size()) {
        std::size_t end = path.find('/', start);
        if (end == std::string::npos)
            end = path.size();
        prefix = path.substr(0, end);
        if (!prefix.empty() && prefix != "." && prefix != "..") {
            if (::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST)
                throw SimError(ErrorCategory::Config,
                               "cannot create state directory " +
                                   prefix + ": " + std::strerror(errno));
        }
        if (end == path.size())
            break;
        start = end + 1;
    }
}

std::string
slurp(const std::string &path)
{
    std::string text;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0)
        text.append(buf, n);
    std::fclose(file);
    return text;
}

} // namespace

const char *
runStateName(RunState state)
{
    switch (state) {
      case RunState::Queued:    return "queued";
      case RunState::Running:   return "running";
      case RunState::Done:      return "done";
      case RunState::Cancelled: return "cancelled";
      case RunState::Error:     return "error";
    }
    return "error";
}

bool
runStateTerminal(RunState state)
{
    return state == RunState::Done || state == RunState::Cancelled ||
        state == RunState::Error;
}

/** All mutable per-run state; guarded by its own mutex. */
struct RunRegistry::Run
{
    std::string id;
    std::string spec;
    SubmitOptions options;
    std::vector<campaign::Job> jobs;
    /**
     * jobs[i]'s campaign-wide slot index (identity unless the spec
     * carries a slots= shard subset). Journal records use these, so a
     * shard's journal merges into its campaign's by index.
     */
    std::vector<std::size_t> slotMap;
    std::string journalPath;

    mutable std::mutex mutex;
    mutable std::condition_variable cv;
    RunState state = RunState::Queued;
    std::size_t done = 0;
    std::size_t failed = 0;
    std::atomic<bool> cancel{false};
    campaign::Report report; ///< valid once terminal
    std::string error;       ///< valid when state == Error
    std::thread runner;
};

RunRegistry::RunRegistry(Config config)
    : config_(std::move(config)), pool_(config_.workers),
      cache_(config_.cacheEntries)
{
    if (config_.stateDir.empty())
        throw SimError(ErrorCategory::Config,
                       "run registry needs a state directory");
    makeDirs(config_.stateDir);
}

RunRegistry::~RunRegistry()
{
    shutdown();
}

std::string
RunRegistry::journalPath(const std::string &id) const
{
    return config_.stateDir + "/" + id + ".journal.jsonl";
}

std::string
RunRegistry::specPath(const std::string &id) const
{
    return config_.stateDir + "/" + id + ".spec.json";
}

RunRegistry::Run *
RunRegistry::findLocked(const std::string &id) const
{
    const auto it = runs_.find(id);
    return it == runs_.end() ? nullptr : it->second.get();
}

void
RunRegistry::startLocked(Run &run)
{
    // Jobs pull their Programs from the shared cache; the copy keeps
    // the engine's jobs-share-no-mutable-state guarantee, and the
    // cache throws the exact error a batch builder would, so failure
    // reports stay byte-identical too. The builder stays a
    // BenchmarkBuilder, so jobs that compute the same simulation
    // still share one run, as they do in the batch path.
    for (campaign::Job &job : run.jobs) {
        job.builder = campaign::BenchmarkBuilder{
            job.benchmark,
            [this, name = job.benchmark,
             limit = job.config.instructionLimit] {
                return Program(*cache_.get(name, limit));
            }};
    }
    run.runner = std::thread(&RunRegistry::runnerMain, this, &run);
}

void
RunRegistry::runnerMain(Run *run)
{
    {
        std::lock_guard<std::mutex> lock(run->mutex);
        run->state = RunState::Running;
    }
    run->cv.notify_all();

    campaign::Options options;
    options.pool = &pool_;
    options.journalPath = run->journalPath;
    options.slotIndexMap = run->slotMap;
    options.accounting = run->options.accounting;
    options.maxAttempts = run->options.maxAttempts;
    options.jobDeadlineSeconds = run->options.jobDeadlineSeconds;
    options.cancelRequested = [this, run] {
        return run->cancel.load(std::memory_order_relaxed) ||
            shuttingDown_.load(std::memory_order_relaxed);
    };
    options.onJobFinished = [this, run](std::size_t,
                                        const campaign::JobOutcome &out) {
        {
            std::lock_guard<std::mutex> lock(run->mutex);
            ++run->done;
            if (!out.ok())
                ++run->failed;
        }
        jobStats_.completed.fetch_add(1, std::memory_order_relaxed);
        if (out.attempts > 1)
            jobStats_.retried.fetch_add(out.attempts - 1,
                                        std::memory_order_relaxed);
        if (!out.ok()) {
            const auto bucket = static_cast<std::size_t>(out.category);
            if (bucket < 7)
                jobStats_.failed[bucket].fetch_add(
                    1, std::memory_order_relaxed);
        }
        run->cv.notify_all();
    };

    try {
        campaign::Report report = campaign::runCampaign(run->jobs,
                                                        options);
        // Cancelled only when cancellation actually skipped a job: a
        // cancel that lands after the last job finished still yields
        // the complete, final report.
        bool any_cancelled = false;
        for (const campaign::JobOutcome &out : report.jobs)
            if (!out.ok() &&
                out.category == ErrorCategory::Cancelled)
                any_cancelled = true;
        std::lock_guard<std::mutex> lock(run->mutex);
        run->report = std::move(report);
        run->state = any_cancelled ? RunState::Cancelled
                                   : RunState::Done;
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lock(run->mutex);
        run->error = e.what();
        run->state = RunState::Error;
    }
    run->cv.notify_all();
}

std::string
RunRegistry::submit(const std::string &spec, const SubmitOptions &options)
{
    if (shuttingDown_.load())
        throw SimError(ErrorCategory::Cancelled,
                       "daemon is shutting down");
    // Validate before allocating an id: a bad spec must not leave a
    // half-created run behind.
    std::vector<std::size_t> slot_map;
    std::vector<campaign::Job> jobs = campaign::parseMatrix(spec,
                                                            slot_map);

    auto run = std::make_unique<Run>();
    run->spec = spec;
    run->options = options;
    run->jobs = std::move(jobs);
    run->slotMap = std::move(slot_map);

    std::lock_guard<std::mutex> lock(mutex_);
    char id[16];
    std::snprintf(id, sizeof(id), "r%04u", nextId_++);
    run->id = id;
    run->journalPath = journalPath(run->id);

    // Persist the submission first: once submit() returns an id, a
    // daemon restart must be able to resume this run.
    std::string record = "{\"spec\":\"" + jsonEscape(spec) + "\"";
    record += ",\"accounting\":";
    record += options.accounting ? "true" : "false";
    record += ",\"maxAttempts\":" + std::to_string(options.maxAttempts);
    char deadline[64];
    std::snprintf(deadline, sizeof(deadline),
                  ",\"jobDeadlineSeconds\":%.17g}\n",
                  options.jobDeadlineSeconds);
    record += deadline;
    try {
        atomicWriteFile(specPath(run->id), record);
    } catch (const std::exception &e) {
        throw SimError(ErrorCategory::Config,
                       "cannot persist spec: " + std::string(e.what()));
    }

    Run &ref = *run;
    runs_[ref.id] = std::move(run);
    startLocked(ref);
    return ref.id;
}

std::size_t
RunRegistry::resume()
{
    static const std::string suffix = ".spec.json";
    std::vector<std::string> ids;
    if (DIR *dir = ::opendir(config_.stateDir.c_str())) {
        while (const dirent *entry = ::readdir(dir)) {
            const std::string name = entry->d_name;
            if (name.size() > suffix.size() &&
                name.compare(name.size() - suffix.size(),
                             suffix.size(), suffix) == 0)
                ids.push_back(
                    name.substr(0, name.size() - suffix.size()));
        }
        ::closedir(dir);
    }
    std::sort(ids.begin(), ids.end());

    std::size_t resumed = 0;
    for (const std::string &id : ids) {
        const std::string text = slurp(specPath(id));
        SubmitOptions options;
        std::string spec;
        try {
            const json::Value doc = json::parse(text);
            spec = doc.str("spec");
            const json::Value *acc = doc.find("accounting");
            options.accounting = acc && acc->boolean;
            options.maxAttempts = static_cast<unsigned>(
                doc.num("maxAttempts", 1.0));
            options.jobDeadlineSeconds =
                doc.num("jobDeadlineSeconds", 0.0);
        } catch (const std::exception &e) {
            ctcp_warn("state dir: cannot parse %s: %s — skipped",
                      specPath(id).c_str(), e.what());
            continue;
        }

        auto run = std::make_unique<Run>();
        run->id = id;
        run->spec = spec;
        run->options = options;
        run->journalPath = journalPath(id);
        try {
            run->jobs = campaign::parseMatrix(spec, run->slotMap);
        } catch (const std::exception &e) {
            ctcp_warn("state dir: spec of %s no longer parses: %s — "
                      "skipped", id.c_str(), e.what());
            continue;
        }

        std::lock_guard<std::mutex> lock(mutex_);
        if (runs_.count(id))
            continue;
        if (id.size() > 1 && id[0] == 'r') {
            const unsigned n = static_cast<unsigned>(
                std::strtoul(id.c_str() + 1, nullptr, 10));
            if (n >= nextId_)
                nextId_ = n + 1;
        }
        Run &ref = *run;
        runs_[id] = std::move(run);
        // Scrape-visible resume accounting: how many runs came back
        // and how many finished jobs their journals replay.
        jobStats_.resumedRuns.fetch_add(1, std::memory_order_relaxed);
        jobStats_.replayedJobs.fetch_add(
            campaign::loadJournal(ref.journalPath).size(),
            std::memory_order_relaxed);
        startLocked(ref);
        ++resumed;
    }
    return resumed;
}

RunRegistry::JobStats
RunRegistry::jobStats() const
{
    JobStats out;
    out.completed = jobStats_.completed.load(std::memory_order_relaxed);
    out.retried = jobStats_.retried.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < 7; ++i)
        out.failed[i] =
            jobStats_.failed[i].load(std::memory_order_relaxed);
    out.resumedRuns =
        jobStats_.resumedRuns.load(std::memory_order_relaxed);
    out.replayedJobs =
        jobStats_.replayedJobs.load(std::memory_order_relaxed);
    return out;
}

std::uint64_t
RunRegistry::journalBytes() const
{
    std::vector<std::string> paths;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paths.reserve(runs_.size());
        for (const auto &[id, run] : runs_)
            paths.push_back(run->journalPath);
    }
    std::uint64_t total = 0;
    for (const std::string &path : paths) {
        struct stat st;
        if (::stat(path.c_str(), &st) == 0)
            total += static_cast<std::uint64_t>(st.st_size);
    }
    return total;
}

bool
RunRegistry::cancel(const std::string &id)
{
    Run *run;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        run = findLocked(id);
    }
    if (!run)
        return false;
    run->cancel.store(true);
    run->cv.notify_all();
    return true;
}

RunInfo
RunRegistry::snapshot(const Run &run) const
{
    std::lock_guard<std::mutex> lock(run.mutex);
    RunInfo info;
    info.id = run.id;
    info.spec = run.spec;
    info.state = run.state;
    info.totalJobs = run.jobs.size();
    info.doneJobs = run.done;
    info.failedJobs = run.failed;
    info.accounting = run.options.accounting;
    info.maxAttempts = run.options.maxAttempts;
    info.cancelRequested = run.cancel.load();
    info.error = run.error;
    return info;
}

bool
RunRegistry::info(const std::string &id, RunInfo &out) const
{
    Run *run;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        run = findLocked(id);
    }
    if (!run)
        return false;
    out = snapshot(*run);
    return true;
}

std::vector<RunInfo>
RunRegistry::list() const
{
    std::vector<Run *> runs;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        runs.reserve(runs_.size());
        for (const auto &[id, run] : runs_)
            runs.push_back(run.get());
    }
    std::vector<RunInfo> out;
    out.reserve(runs.size());
    for (const Run *run : runs)
        out.push_back(snapshot(*run));
    return out;
}

std::size_t
RunRegistry::runCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return runs_.size();
}

bool
RunRegistry::events(const std::string &id, std::uint64_t offset,
                    double waitSeconds, std::string &bytes,
                    std::uint64_t &next, RunState &state) const
{
    Run *run;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        run = findLocked(id);
    }
    if (!run)
        return false;

    using clock = std::chrono::steady_clock;
    const auto deadline = clock::now() +
        std::chrono::duration_cast<clock::duration>(
            std::chrono::duration<double>(std::max(0.0, waitSeconds)));
    while (true) {
        bytes = campaign::readJournalTail(run->journalPath, offset,
                                          next);
        std::unique_lock<std::mutex> lock(run->mutex);
        state = run->state;
        if (!bytes.empty() || runStateTerminal(state) ||
            shuttingDown_.load() || clock::now() >= deadline)
            return true;
        // Re-check the file at least every 200ms even without a
        // notification: journal appends come from pool workers that
        // only notify this run's cv, not the tail readers of others.
        run->cv.wait_until(
            lock, std::min(deadline,
                           clock::now() +
                               std::chrono::milliseconds(200)));
    }
}

bool
RunRegistry::finalReport(const std::string &id, bool csv,
                         bool host_timing, std::string &out,
                         std::string &error) const
{
    Run *run;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        run = findLocked(id);
    }
    if (!run) {
        error = "no such run '" + id + "'";
        return false;
    }
    std::lock_guard<std::mutex> lock(run->mutex);
    if (run->state != RunState::Done) {
        error = "run " + id + " is " + runStateName(run->state) +
            "; the final report requires state done";
        return false;
    }
    out = csv ? run->report.toCsv(run->options.accounting)
              : run->report.toJson(host_timing,
                                   run->options.accounting);
    return true;
}

bool
RunRegistry::htmlReport(const std::string &id, std::string &html) const
{
    Run *run;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        run = findLocked(id);
    }
    if (!run)
        return false;

    // Snapshot the run as a campaign Report: the stored one when the
    // run is over, otherwise a live view replayed from the journal
    // with not-yet-finished jobs marked pending.
    std::string json_text;
    {
        std::lock_guard<std::mutex> lock(run->mutex);
        if (runStateTerminal(run->state) &&
            run->state != RunState::Error) {
            json_text = run->report.toJson(false, true);
        } else {
            campaign::Report live;
            live.jobs.resize(run->jobs.size());
            for (std::size_t i = 0; i < run->jobs.size(); ++i) {
                live.jobs[i].label = run->jobs[i].label;
                live.jobs[i].benchmark = run->jobs[i].benchmark;
                live.jobs[i].status = campaign::JobStatus::Failed;
                live.jobs[i].error = "pending";
            }
            for (campaign::JournalRecord &rec :
                 campaign::loadJournal(run->journalPath)) {
                // Journal indices are campaign-wide; map them back to
                // this run's local job order (identity without a
                // slots= subset).
                for (std::size_t i = 0; i < run->slotMap.size(); ++i) {
                    if (run->slotMap[i] != rec.index)
                        continue;
                    if (rec.outcome.label == live.jobs[i].label)
                        live.jobs[i] = std::move(rec.outcome);
                    break;
                }
            }
            json_text = live.toJson(false, true);
        }
    }
    html = report::renderHtmlFromJson(json_text, "",
                                      "ctcpd run " + id);
    return true;
}

bool
RunRegistry::wait(const std::string &id, double waitSeconds,
                  RunInfo &out) const
{
    Run *run;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        run = findLocked(id);
    }
    if (!run)
        return false;

    using clock = std::chrono::steady_clock;
    const auto deadline = clock::now() +
        std::chrono::duration_cast<clock::duration>(
            std::chrono::duration<double>(std::max(0.0, waitSeconds)));
    {
        std::unique_lock<std::mutex> lock(run->mutex);
        while (!runStateTerminal(run->state) &&
               !shuttingDown_.load() && clock::now() < deadline)
            run->cv.wait_until(
                lock,
                std::min(deadline, clock::now() +
                                       std::chrono::milliseconds(200)));
    }
    out = snapshot(*run);
    return true;
}

void
RunRegistry::shutdown()
{
    shuttingDown_.store(true);

    std::vector<Run *> runs;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[id, run] : runs_)
            runs.push_back(run.get());
    }
    // Wake every long-poller and cancel-check, then wait for the
    // runner threads: in-flight jobs finish (and hit the journal);
    // queued jobs drain as cancelled without running.
    for (Run *run : runs)
        run->cv.notify_all();
    for (Run *run : runs)
        if (run->runner.joinable())
            run->runner.join();
    pool_.shutdown();
}

} // namespace ctcp::service
