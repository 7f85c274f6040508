/**
 * @file
 * One repetition of a workload, the shape both timed and traced runs
 * repeat: a campaign through runCampaign() (fig6, observed) or a
 * closed-loop client of an in-process daemon (sweep-daemon), plus the
 * output checks every repetition passes through.
 */

#ifndef CTCPSIM_PERFBENCH_RUNS_HH
#define CTCPSIM_PERFBENCH_RUNS_HH

#include <map>
#include <string>
#include <vector>

#include "campaign/journal.hh"
#include "perfbench/perfbench.hh"

namespace ctcp::perfbench {

/** Peak resident memory of this process so far (MB). */
double peakRssMb();

/**
 * One campaign execution. Its jobs' builders point into `clock`, so
 * a rep is filled in place and never copied or moved.
 */
struct CampaignRep
{
    CampaignRep() = default;
    CampaignRep(const CampaignRep &) = delete;
    CampaignRep &operator=(const CampaignRep &) = delete;

    /** Jobs in the (seeded) submission order actually used. */
    std::vector<campaign::Job> jobs;
    campaign::Report report;
    JobClock clock;
    double parseSeconds = 0.0;
    /** runCampaign() wall time. */
    double wallSeconds = 0.0;
    std::uint64_t instructions = 0;
    /** Observability output directory (`observed` only). */
    std::string obsDir;

    /** Matrix parse plus every job's span outside its cycle loop. */
    double setupSeconds() const;
};

/**
 * Parse, shuffle (from @p rng) and run @p w's matrix. With @p log,
 * records campaign.run, campaign.job and workload.build spans.
 */
void runCampaignRep(const Workload &w, Rng &rng, unsigned index,
                    SpanLog *log, unsigned run, CampaignRep &rep);

/** label -> host-free result JSON of @p w's jobs with observability
 *  off (what `observed` jobs must reproduce). */
std::map<std::string, std::string> obsOffReference(const Workload &w);

/** What the `observed` checks read from the output files. */
struct ObsTotals
{
    std::uint64_t traceBytes = 0;
    std::uint64_t intervalRows = 0;
    double slotsTotal = 0.0;
    double slotsUseful = 0.0;
    double slotsIdle = 0.0;
};

/**
 * Count and check every job of @p rep (checkJob, the `observed`
 * file and identity checks, and per-label identity with earlier reps
 * through @p by_label).
 */
void checkCampaignRep(const Workload &w, const CampaignRep &rep,
                      const std::map<std::string, std::string> &obs_off,
                      std::map<std::string, std::string> &by_label,
                      Tally &tally, ObsTotals &totals);

/** One closed-loop daemon session: start, submit, follow, fetch. */
struct DaemonRep
{
    /** Server construction until /v1/ping answers. */
    double startSeconds = 0.0;
    /** POST /v1/runs round trip. */
    double submitSeconds = 0.0;
    /** POST sent until the report is received. */
    double wallSeconds = 0.0;
    /** POST answered until the first journal bytes arrive. */
    double firstEventSeconds = 0.0;
    /** GET report round trip. */
    double reportSeconds = 0.0;
    /** Each events long poll's round trip. */
    std::vector<double> pollSeconds;
    /** Exchanges that got a reply. */
    std::size_t requests = 0;
    std::string report;
    /** Every streamed journal byte. */
    std::string events;
    /** `events` decoded, one record per completed job. */
    std::vector<campaign::JournalRecord> records;
    /** Transport or protocol failure ("" = none). */
    std::string error;
};

/** With @p log, records service.run and one span per httpRequest. */
void runDaemonRep(const std::string &spec, unsigned workers,
                  unsigned index, SpanLog *log, unsigned run,
                  DaemonRep &rep);

/**
 * Run @p jobs through runCampaign() with @p clock attached; with
 * @p log, records campaign.run, campaign.job and workload.build spans.
 * @return runCampaign()'s wall seconds
 */
double runInstrumented(std::vector<campaign::Job> &jobs,
                       campaign::Options options, JobClock &clock,
                       campaign::Report &report, SpanLog *log,
                       unsigned run);

/** runCampaign() of the daemon's spec: what every served report must
 *  equal byte for byte. Filled in place (builders point into clock). */
struct DaemonReference
{
    DaemonReference() = default;
    DaemonReference(const DaemonReference &) = delete;
    DaemonReference &operator=(const DaemonReference &) = delete;

    std::vector<campaign::Job> jobs;
    JobClock clock;
    campaign::Report report;
    std::string json;
    std::uint64_t instructions = 0;
    /** label -> failed checkJob() reason. */
    std::map<std::string, std::string> failures;

    void compute(const std::string &spec, unsigned workers,
                 SpanLog *log = nullptr, unsigned run = 0);
};

void checkDaemonRep(const DaemonReference &ref, const DaemonRep &rep,
                    Tally &tally);

/**
 * sim_insts_per_s over repeated runs of the same jobs, each job taken
 * at its fastest repetition. Co-tenant load on a shared host only ever
 * slows a repetition down, while a slower program slows every one.
 */
class FastestJobs
{
  public:
    /** Job spans, from the Job::builder call to onJobFinished. */
    void add(const CampaignRep &rep);
    /**
     * The streamed jobs' cycle loops (SimResult::hostSeconds); the rest
     * of the session (service, journal, per-job set-up, tail) is kept
     * as one overhead per session.
     */
    void add(const DaemonRep &rep, unsigned workers);

    /** Sum of instructions over (sum of fastest seconds / workers +
     *  median session overhead). */
    double rate(unsigned workers) const;

    const std::vector<double> &overheads() const { return overheads_; }

  private:
    void note(const std::string &label, double seconds,
              std::uint64_t instructions);

    /** label -> (fastest seconds, instructions) */
    std::map<std::string, std::pair<double, std::uint64_t>> fastest_;
    std::vector<double> overheads_;
};

} // namespace ctcp::perfbench

#endif // CTCPSIM_PERFBENCH_RUNS_HH
