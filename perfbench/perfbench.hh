/**
 * @file
 * Shared pieces of the repository benchmark: workload definitions,
 * sample statistics, per-job output checks, the campaign-path clock
 * that both timed and traced runs use, and the in-memory span log of
 * traced runs.
 *
 * Everything here drives the simulator through its public API only
 * (campaign::runCampaign, CtcpSimulator, service::ServiceServer and
 * service::httpRequest); nothing inside src/ is instrumented.
 */

#ifndef CTCPSIM_PERFBENCH_PERFBENCH_HH
#define CTCPSIM_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hh"
#include "common/random.hh"

namespace ctcp::perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Parsed command line (see main.cc for the strict parser). */
struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    unsigned seconds = 0;
    bool trace = false;
};

// ---- Workloads ---------------------------------------------------------

/** One benchmark workload: a campaign matrix and how it is run. */
struct Workload
{
    std::string name;
    /** Matrix clauses (key, values) in canonical order. */
    std::vector<std::pair<std::string, std::vector<std::string>>> clauses;
    /** Observability channels on (the `observed` workload). */
    bool observed = false;
    /** Submitted to an in-process ServiceServer (`sweep-daemon`). */
    bool daemon = false;
    /** Campaign workers (the daemon's pool size when daemon). */
    unsigned workers = 1;
};

/** @return the named workload; false for an unknown name. */
bool findWorkload(const std::string &name, Workload &out);

/** Render clauses as a matrix spec ("k=v1,v2;k2=..."). */
std::string specText(const Workload &w);

/** Shuffle every clause's values (seeded submission order). */
void permuteClauses(Workload &w, Rng &rng);

/** Fisher-Yates shuffle with the repository's deterministic Rng. */
template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** Interval CSV period of the `observed` workload (cycles). */
constexpr std::uint64_t observedIntervalCycles = 2000;
/** Chrome trace-event filter of the `observed` workload. */
constexpr const char *observedTraceFilter = "retire";

// ---- Statistics ----------------------------------------------------------

/**
 * A timing summary: the median plus the highest of p99.9/p99/p95/p90/
 * p75 that has at least ten samples beyond it (none below forty
 * samples), and the sample count.
 */
struct Dist
{
    std::size_t n = 0;
    double median = 0.0;
    /** Percentile rank of `tail` (0 when no rank qualifies). */
    double tailRank = 0.0;
    double tail = 0.0;
};

Dist distOf(std::vector<double> samples);
double medianOf(std::vector<double> samples);
double harmonicMean(const std::vector<double> &v);

/** One reported metric; `dist.n == 0` for counts and ratios. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    Dist dist;
};

/** Metric whose value is the median of @p samples. */
Metric timing(const std::string &name, const std::string &unit,
              std::vector<double> samples);
/** Metric with a single value (a count, ratio or share). */
Metric scalar(const std::string &name, const std::string &unit,
              double value);

// ---- Output checks ---------------------------------------------------------

/** Jobs attempted and failed, with the first failure reasons. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> reasons;

    void fail(const std::string &label, const std::string &why);
};

/**
 * Checks every job of every workload: status ok; retired within
 * [budget, budget + retire width); fetched >= dispatched >= retired;
 * FDRT options A-E plus skipped sum to 100%.
 * @return "" when the job passes, else the first failed check.
 */
std::string checkJob(const campaign::Job &job,
                     const campaign::JobOutcome &out);

/** SimResult::metrics[@p key], or 0 when the run did not report it. */
double metricOf(const SimResult &r, const std::string &key);

/** @p r with the observability layer's own metrics (obs.*, interval.*)
 *  removed: what must equal the same job run with observability off. */
SimResult withoutObsMetrics(SimResult r);

/** The host-free report with jobs in label order. */
std::string labelOrderedJson(const campaign::Report &report);

// ---- Campaign-path clock ---------------------------------------------------

/**
 * Host timestamps around each job of one runCampaign() call: its
 * Job::builder call and its Options::onJobFinished callback. Each
 * index is written by the one worker running that job and read after
 * runCampaign() returns.
 */
struct JobClock
{
    std::vector<Clock::time_point> buildStart;
    std::vector<Clock::time_point> buildEnd;
    std::vector<Clock::time_point> finished;
    std::vector<double> hostSeconds;

    /** Wrap @p jobs' builders and chain onJobFinished in @p options. */
    void attach(std::vector<campaign::Job> &jobs,
                campaign::Options &options);

    /** Job span minus SimResult::hostSeconds (seconds). */
    double overhead(std::size_t i) const;
};

// ---- Span log --------------------------------------------------------------

constexpr std::size_t noParent = std::numeric_limits<std::size_t>::max();

/** Spans of a traced run, kept in memory and written at the end. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    std::size_t open(const std::string &name, std::size_t parent,
                     unsigned run);
    void close(std::size_t id);
    std::size_t add(const std::string &name, std::size_t parent,
                    unsigned run, Clock::time_point start,
                    Clock::time_point end);

    /** Durations in seconds of every closed span named @p name (of run
     *  @p run only, when given). */
    std::vector<double> durations(const std::string &name,
                                  int run = -1) const;
    /** Summed self time (duration minus the union of its children's
     *  intervals) per span name, in seconds. */
    std::map<std::string, double> selfTimes() const;
    /** Span count per name. */
    std::map<std::string, std::size_t> counts() const;
    /** One JSON object per line: name, start/end (us), parent, run. */
    void write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::size_t parent = noParent;
        unsigned run = 0;
        Clock::time_point start;
        Clock::time_point end;
        bool closed = false;
    };

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

// ---- Runs ------------------------------------------------------------------

/** What one benchmark invocation reports. */
struct RunOutput
{
    Tally tally;
    std::vector<Metric> metrics;
    /** Extra detail for the record line: (key, JSON value). */
    std::vector<std::pair<std::string, std::string>> detail;
};

/**
 * Pin this thread, and the threads it starts from now on, to @p count
 * consecutive CPUs of the n this process may use, starting at the
 * (@p i mod n)-th; @p count 0 gives it all n back. Co-tenant load on a
 * shared host slows some cores for minutes at a time; rotating
 * repetitions across cores lets each job's fastest repetition come
 * from an unloaded one.
 */
void placeOnCpus(unsigned i, unsigned count);

/**
 * Scratch directory inside the checkout for this process's sockets,
 * daemon state and observability files (relative, so socket paths
 * stay short); created on first use, removed by the caller.
 */
const std::string &scratchDir();

/** Timed, untraced run: the end-to-end metrics. */
RunOutput timedRun(const Workload &w, const Args &args);

/** Traced run: the per-layer metrics. */
RunOutput tracedRun(const Workload &w, const Args &args);

} // namespace ctcp::perfbench

#endif // CTCPSIM_PERFBENCH_PERFBENCH_HH
