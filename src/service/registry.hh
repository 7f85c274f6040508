/**
 * @file
 * Run registry: the ctcpd daemon's campaign lifecycle manager.
 *
 * Every submitted matrix spec becomes a Run: a journaled campaign
 * executed by runCampaign() on the run's own runner thread plus
 * Config::workers - 1 more, as `ctcpsim --campaign --jobs N` runs it.
 * The registry persists two files per run under its state
 * directory —
 *
 *   <id>.spec.json       what was submitted (spec + options)
 *   <id>.journal.jsonl   the PR 4 append-only outcome journal
 *
 * — and that pair is the whole durability story: on daemon restart,
 * resume() re-submits every recorded spec and runCampaign() replays
 * the journal, so finished jobs are not re-run and the final report
 * is byte-identical to an uninterrupted campaign. The journal doubles
 * as the event stream (readJournalTail) served to clients.
 *
 * Contract: a campaign submitted here must produce a final report
 * byte-identical to `ctcpsim --campaign` with the same spec — the
 * registry only composes existing campaign-engine pieces (parseMatrix
 * jobs and their builders, runCampaign, the journal).
 */

#ifndef CTCPSIM_SERVICE_REGISTRY_HH
#define CTCPSIM_SERVICE_REGISTRY_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"

namespace ctcp::service {

/** Lifecycle of one submitted campaign. */
enum class RunState : std::uint8_t
{
    Queued,    ///< accepted, jobs not yet dispatched
    Running,   ///< jobs executing on the run's threads
    Done,      ///< every job has a final outcome
    Cancelled, ///< cancelled before completion; journal keeps finished jobs
    Error,     ///< the campaign itself failed (e.g. unopenable journal)
};

const char *runStateName(RunState state);
bool runStateTerminal(RunState state);

/** Status snapshot of one run (what GET /v1/runs/<id> serves). */
struct RunInfo
{
    std::string id;
    std::string spec;
    RunState state = RunState::Queued;
    std::size_t totalJobs = 0;
    std::size_t doneJobs = 0;   ///< outcomes finalized (incl. replayed)
    std::size_t failedJobs = 0; ///< non-ok outcomes so far
    bool accounting = false;
    unsigned maxAttempts = 1;
    bool cancelRequested = false;
    std::string error; ///< diagnostic when state == Error
};

/** Owns every run and its runner thread. */
class RunRegistry
{
  public:
    struct Config
    {
        /** Journals + spec files live here; created if missing. */
        std::string stateDir;
        /**
         * Threads per run, its runner included (campaign::Options::
         * jobs); 0 = one per hardware thread. Runs submitted together
         * use up to this many each.
         */
        unsigned workers = 0;
    };

    struct SubmitOptions
    {
        bool accounting = false;
        unsigned maxAttempts = 1;
        double jobDeadlineSeconds = 0.0;
    };

    /** @throws SimError (Config) when the state dir cannot be created */
    explicit RunRegistry(Config config);
    ~RunRegistry();

    RunRegistry(const RunRegistry &) = delete;
    RunRegistry &operator=(const RunRegistry &) = delete;

    /**
     * Validate @p spec (parseMatrix), persist it, and start its
     * runner thread. @return the new run id ("r0001", ...).
     * @throws std::invalid_argument on a malformed spec
     * @throws SimError when the registry is shutting down or the spec
     *         cannot be persisted
     */
    std::string submit(const std::string &spec,
                       const SubmitOptions &options);

    /**
     * Re-submit every spec recorded in the state directory (daemon
     * restart). Runs whose journal is already complete replay to Done
     * without executing anything; interrupted runs re-run only their
     * missing jobs. @return the number of resumed runs.
     */
    std::size_t resume();

    /** Request cancellation. @return false for an unknown id. */
    bool cancel(const std::string &id);

    /** Status snapshot. @return false for an unknown id. */
    bool info(const std::string &id, RunInfo &out) const;

    /** Snapshots of every run, in id order. */
    std::vector<RunInfo> list() const;

    /**
     * Journal-tail event stream: complete records from byte
     * @p offset. Blocks up to @p waitSeconds for new bytes when none
     * are immediately available and the run is still active (long
     * poll). @p next receives the offset to pass next time.
     * @return false for an unknown id
     */
    bool events(const std::string &id, std::uint64_t offset,
                double waitSeconds, std::string &bytes,
                std::uint64_t &next, RunState &state) const;

    /**
     * The final aggregated report, byte-identical to the batch path.
     * Only available once the run is Done; @return false otherwise
     * (with a diagnostic in @p error).
     */
    bool finalReport(const std::string &id, bool host_timing,
                     std::string &out, std::string &error) const;

    /**
     * Render the live HTML report from the journal as it stands now
     * (pending jobs shown as such); works mid-run.
     * @return false for an unknown id
     */
    bool htmlReport(const std::string &id, std::string &html) const;

    /**
     * Block until @p id reaches a terminal state or @p waitSeconds
     * elapse. @return false for an unknown id.
     */
    bool wait(const std::string &id, double waitSeconds,
              RunInfo &out) const;

    /**
     * Graceful shutdown: cancel every active run (in-flight jobs
     * finish and are journaled; queued jobs are skipped) and join the
     * runner threads. Idempotent.
     */
    void shutdown();

    /** Threads per run, 0 resolved to the hardware thread count. */
    unsigned workers() const { return config_.workers; }

  private:
    struct Run;

    void runnerMain(Run *run);
    std::string journalPath(const std::string &id) const;
    std::string specPath(const std::string &id) const;
    Run *findLocked(const std::string &id) const;
    RunInfo snapshot(const Run &run) const;

    Config config_;
    std::atomic<bool> shuttingDown_{false};

    mutable std::mutex mutex_; ///< guards runs_ / nextId_
    std::map<std::string, std::unique_ptr<Run>> runs_;
    std::uint64_t nextId_ = 1;
};

} // namespace ctcp::service

#endif // CTCPSIM_SERVICE_REGISTRY_HH
