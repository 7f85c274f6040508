/**
 * @file
 * Campaign engine: run an arbitrary matrix of independent
 * (workload x configuration) simulations across a work-stealing thread
 * pool with deterministic aggregation.
 *
 * Guarantees:
 *  - Determinism: every simulation builds its own Program inside its
 *    worker (workload builders seed their own Rng locally, so no RNG
 *    state is shared between jobs) and runs its own CtcpSimulator.
 *    Results are written into a slot preassigned by submission index,
 *    so the aggregated report — including its JSON/CSV serializations
 *    — is byte-identical for any worker count.
 *  - One run per distinct simulation: jobs that would compute the same
 *    result (see representatives()) share the run of the lowest-index
 *    one. Every other member gets a copy of its outcome under its own
 *    label, with host time 0, and is journaled, reported and passed to
 *    Options::onJobFinished as its own job, so every output is the one
 *    running each job alone would give.
 *  - Failure isolation: a job whose builder or simulation throws is
 *    recorded as a per-job error in the report; the remaining jobs
 *    still run to completion. Failures carry an ErrorCategory, and
 *    retryable ones can be re-attempted (Options::maxAttempts).
 *  - Crash safety: with Options::journalPath set, completed outcomes
 *    are checkpointed to an append-only journal and replayed on
 *    restart (campaign/journal.hh), so a killed campaign resumes
 *    without re-running finished jobs.
 */

#ifndef CTCPSIM_CAMPAIGN_CAMPAIGN_HH
#define CTCPSIM_CAMPAIGN_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sim_error.hh"
#include "config/sim_config.hh"
#include "core/sim_result.hh"
#include "prog/program.hh"

namespace ctcp::campaign {

class PersistentPool;

/** One independent simulation in a campaign. */
struct Job
{
    /** Display label, e.g. "gzip/fdrt". Used in reports and exports. */
    std::string label;
    /** Workload name (informational; echoed into the report). */
    std::string benchmark;
    /** Machine configuration (instructionLimit included). */
    SimConfig config;
    /**
     * Builds the job's Program inside the worker thread. When empty,
     * the engine uses workloads::build(benchmark). A throwing builder
     * fails this job only. Any builder but a BenchmarkBuilder is the
     * caller's own: it runs for its job, which never shares a run.
     */
    std::function<Program()> builder;
};

/**
 * The builder makeJob() installs: the registered benchmark's Program.
 * runCampaign() recognizes this type (std::function::target) as the
 * job's program identity, so jobs whose builders name one benchmark
 * may share a run.
 */
struct BenchmarkBuilder
{
    std::string benchmark;
    /**
     * Where the Program comes from when set (ctcpd's workload cache);
     * it must return what workloads::build(benchmark) does.
     */
    std::function<Program()> source = {};

    /** @throws std::invalid_argument for an unknown benchmark */
    Program operator()() const;
};

/** Convenience: a job that simulates a registered benchmark. */
Job makeJob(std::string label, std::string benchmark, SimConfig config);

/** Terminal state of one job. */
enum class JobStatus : std::uint8_t
{
    Ok,
    Failed,
};

/** Per-job outcome, in submission order. */
struct JobOutcome
{
    std::string label;
    std::string benchmark;
    JobStatus status = JobStatus::Failed;
    /** Valid when status == Ok. */
    SimResult result;
    /** Diagnostic when status == Failed. */
    std::string error;
    /** Failure taxonomy bucket (meaningful when status == Failed). */
    ErrorCategory category = ErrorCategory::Internal;
    /** How many times the job ran (> 1 after a retried failure). */
    unsigned attempts = 1;

    bool ok() const { return status == JobStatus::Ok; }
};

/** Aggregated results of a campaign, in submission order. */
struct Report
{
    std::vector<JobOutcome> jobs;

    std::size_t failed() const;

    /** Outcome for @p label; fatal()s when no such job exists. */
    const JobOutcome &at(const std::string &label) const;

    /**
     * JSON array of per-job objects (label, benchmark, status, error,
     * and the headline metrics of successful runs). Byte-identical
     * across worker counts. Pass @p include_host_timing to also export
     * each job's "host." wall-clock metrics — those vary run to run,
     * so they are off by default (determinism/golden contract).
     * @p include_accounting likewise gates each job's cycle-accounting
     * block (SimResult::accounting) behind an explicit opt-in.
     */
    std::string toJson(bool include_host_timing = false,
                       bool include_accounting = false) const;

    /**
     * CSV with one row per job (headline metrics; empty on failure).
     * With @p include_accounting, appends one percentage column per
     * slot-accounting category (share of attributed slot-cycles).
     */
    std::string toCsv(bool include_accounting = false) const;
};

/** Execution knobs for runCampaign(). */
struct Options
{
    /** Worker threads; 0 = one per hardware thread. */
    unsigned jobs = 0;
    /**
     * Progress callback, invoked from worker threads as jobs finish
     * ("[done/total] label: ok|FAILED"). Completion order is
     * scheduling-dependent — progress is observability, not output.
     * Invocations are serialized; null disables reporting.
     */
    std::function<void(const std::string &line)> progress;

    // ---- Per-job telemetry (src/obs) -----------------------------------
    /**
     * When non-empty, every job additionally writes Chrome trace_event
     * JSON to <traceEventsDir>/<jobFileStem>.trace.json. A job whose
     * config already names a trace path keeps it.
     */
    std::string traceEventsDir;
    /** Event-kind filter applied with traceEventsDir (see ObsSink). */
    std::string traceFilter;
    /**
     * When non-empty (and intervalCycles > 0), every job writes an
     * interval CSV to <intervalDir>/<jobFileStem>.intervals.csv.
     */
    std::string intervalDir;
    /** Interval sampling period for intervalDir output. */
    std::uint64_t intervalCycles = 0;
    /**
     * Enable cycle accounting (ObsConfig::accounting) on every job, so
     * each successful outcome carries SimResult::accounting. Off by
     * default: the default exports stay golden-identical either way,
     * but the layer costs a few percent of throughput.
     */
    bool accounting = false;

    // ---- Robustness ----------------------------------------------------
    /**
     * Cooperative per-job wall-clock deadline in seconds (0 = none).
     * Applied to jobs whose config sets no deadline of its own; an
     * overrunning job fails with category Timeout.
     */
    double jobDeadlineSeconds = 0.0;
    /**
     * Total attempts per job (>= 1). A job that fails with a
     * retryable category (see errorCategoryRetryable) is re-run —
     * with a freshly built Program — up to this many times; the
     * report records the last outcome and the attempt count.
     */
    unsigned maxAttempts = 1;
    /**
     * When non-empty, completed outcomes are appended to this JSONL
     * journal as they finish, and outcomes already recorded there are
     * replayed (their jobs skipped) on start — see campaign/journal.hh.
     */
    std::string journalPath;
    /**
     * Optional mapping from local job index to campaign-wide slot
     * index, used when `jobs` is a shard of a larger campaign (a
     * `slots=` matrix subset). Journal records are written with
     * slotIndexMap[i] instead of i, and replay accepts records by
     * their global index, so journals from different shards of one
     * campaign merge into a single resumable file. Empty = identity.
     * When set, its size must equal jobs.size().
     */
    std::vector<std::size_t> slotIndexMap;

    // ---- Service integration (src/service) -----------------------------
    /**
     * External long-lived worker pool to run jobs on instead of a
     * private WorkStealingPool; `jobs` is ignored when set. The ctcpd
     * daemon shares one pool across every submitted campaign. Reports
     * remain byte-identical either way: outcomes land in slots
     * preassigned by submission index regardless of which threads run
     * the jobs or in what order.
     */
    PersistentPool *pool = nullptr;
    /**
     * Cooperative cancellation, polled before each not-yet-run job
     * starts. Once it returns true, pending jobs are recorded as
     * Failed with category Cancelled and are NOT journaled, so a later
     * run with the same journal re-runs exactly those jobs — that is
     * the checkpoint half of graceful shutdown. Jobs already in
     * flight run to completion and are journaled normally.
     */
    std::function<bool()> cancelRequested;
    /**
     * Invoked from worker threads after each job's outcome is final —
     * freshly run, shared, replayed from the journal, or cancelled —
     * with the submission index and the outcome. Unlike `progress`
     * this is not serialized; callers synchronize their own state.
     * Observability only: it must not mutate the outcome.
     */
    std::function<void(std::size_t index, const JobOutcome &outcome)>
        onJobFinished;
};

/**
 * Parse and validate a worker-count argument. Accepts positive
 * integers and 0 ("one worker per hardware thread"); rejects negative
 * values, junk, and counts above 4096.
 * @throws std::invalid_argument with a usable message
 */
unsigned parseWorkerCount(const std::string &text);

/** Filesystem-safe form of a job label ('/' and friends become '_'). */
std::string sanitizeLabel(const std::string &label);

/**
 * Per-job output-file stem: the sanitized label suffixed with the
 * submission index. Distinct jobs always get distinct stems, even
 * when sanitization makes their labels collide (e.g. "gzip/fdrt" and
 * "gzip_fdrt" both sanitize to "gzip_fdrt").
 */
std::string jobFileStem(const std::string &label, std::size_t index);

/**
 * Write "[k/n] label: ok" lines to stderr (an Options::progress).
 * Serialized by an internal mutex: runCampaign() serializes progress
 * calls within one campaign, but concurrent campaigns (ctcpd runs
 * many on one shared pool) would otherwise interleave their lines.
 */
void progressToStderr(const std::string &line);

/**
 * For each job, the index of the job whose run it shares: the lowest
 * index among the jobs that compute the same simulation, itself when
 * none before it does. Two jobs compute the same simulation when they
 * build one registered benchmark (an empty builder or a
 * BenchmarkBuilder), write no per-job files (no trace or interval
 * path, after @p options apply), and their configs as they will run
 * are equal once canonicalTopology() describes their networks. Jobs
 * are bucketed by configHash() and confirmed with operator==.
 */
std::vector<std::size_t> representatives(const std::vector<Job> &jobs,
                                         const Options &options = {});

/**
 * Run each distinct simulation once and aggregate every job's outcome
 * in submission order (see representatives()).
 */
Report runCampaign(const std::vector<Job> &jobs,
                   const Options &options = {});

} // namespace ctcp::campaign

#endif // CTCPSIM_CAMPAIGN_CAMPAIGN_HH
