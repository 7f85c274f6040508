/**
 * @file
 * Workload table, statistics, output checks, the campaign-path clock
 * and the span log shared by timed and traced runs.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sched.h>
#include <unistd.h>

#include "perfbench/perfbench.hh"
#include "workload/workload.hh"

namespace ctcp::perfbench {

// ---- Workloads ---------------------------------------------------------

bool
findWorkload(const std::string &name, Workload &out)
{
    // Per-job budgets keep a repetition near one host second, so a run
    // repeats every job some 30 times (see NOTES.md). `observed` is
    // smaller still: each retired instruction writes ~120 bytes of
    // trace JSON, which every repetition parses back.
    if (name == "fig6") {
        out = {name,
               {{"bench", workloads::selectedSix()},
                {"strategy",
                 {"base", "issue-time:0", "issue-time:4", "fdrt",
                  "friendly"}},
                {"budget", {"50000"}}},
               false, false, 1};
        return true;
    }
    if (name == "observed") {
        out = {name,
               {{"bench", workloads::selectedSix()},
                {"strategy", {"base", "fdrt", "friendly"}},
                {"budget", {"10000"}}},
               true, false, 1};
        return true;
    }
    if (name == "sweep-daemon") {
        out = {name,
               {{"bench", workloads::selectedSix()},
                {"strategy", {"base", "issue-time:4", "adaptive"}},
                {"topology", {"linear", "ring", "crossbar", "hier", "bus"}},
                {"clusters", {"2", "8"}},
                {"budget", {"20000"}}},
               false, true, 2};
        return true;
    }
    return false;
}

std::string
specText(const Workload &w)
{
    std::string out;
    for (const auto &[key, values] : w.clauses) {
        if (!out.empty())
            out += ';';
        out += key + '=';
        for (std::size_t i = 0; i < values.size(); ++i)
            out += (i ? "," : "") + values[i];
    }
    return out;
}

void
permuteClauses(Workload &w, Rng &rng)
{
    for (auto &clause : w.clauses)
        shuffle(clause.second, rng);
}

// ---- Statistics ----------------------------------------------------------

namespace {

/** Linear-interpolated quantile of sorted @p v, q in [0, 1]. */
double
quantile(const std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

} // namespace

double
medianOf(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return quantile(samples, 0.5);
}

Dist
distOf(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    Dist d;
    d.n = samples.size();
    d.median = quantile(samples, 0.5);
    for (const double rank : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if ((1.0 - rank / 100.0) * static_cast<double>(d.n) >= 10.0) {
            d.tailRank = rank;
            d.tail = quantile(samples, rank / 100.0);
            break;
        }
    }
    return d;
}

double
harmonicMean(const std::vector<double> &v)
{
    double inv = 0.0;
    for (const double x : v) {
        if (x <= 0.0)
            return 0.0;
        inv += 1.0 / x;
    }
    return v.empty() ? 0.0 : static_cast<double>(v.size()) / inv;
}

Metric
timing(const std::string &name, const std::string &unit,
       std::vector<double> samples)
{
    Metric m{name, unit, 0.0, distOf(std::move(samples))};
    m.value = m.dist.median;
    return m;
}

Metric
scalar(const std::string &name, const std::string &unit, double value)
{
    return Metric{name, unit, value, {}};
}

// ---- Output checks ---------------------------------------------------------

void
Tally::fail(const std::string &label, const std::string &why)
{
    ++failed;
    if (reasons.size() < 20)
        reasons.push_back(label + ": " + why);
}

std::string
checkJob(const campaign::Job &job, const campaign::JobOutcome &out)
{
    if (!out.ok())
        return "status failed (" + out.error + ")";
    const SimResult &r = out.result;
    const std::uint64_t budget = job.config.instructionLimit;
    const std::uint64_t width = job.config.core.retireWidth;
    if (r.instructions < budget || r.instructions >= budget + width)
        return "retired " + std::to_string(r.instructions) +
               " outside [budget, budget + retire width) for budget " +
               std::to_string(budget);

    const double fetched =
        metricOf(r, "fetch.from_tc") + metricOf(r, "fetch.from_ic");
    double dispatched = 0.0;
    for (unsigned c = 0; c < job.config.cluster.numClusters; ++c)
        dispatched +=
            metricOf(r, "cluster" + std::to_string(c) + ".dispatched");
    if (!(fetched >= dispatched &&
          dispatched >= static_cast<double>(r.instructions)))
        return "fetched " + std::to_string(fetched) + " >= dispatched " +
               std::to_string(dispatched) + " >= retired " +
               std::to_string(r.instructions) + " does not hold";

    if (r.strategy == "fdrt") {
        const double sum = r.pctOptionA + r.pctOptionB + r.pctOptionC +
            r.pctOptionD + r.pctOptionE + r.pctSkipped;
        if (std::fabs(sum - 100.0) > 1e-6)
            return "FDRT options A-E plus skipped sum to " +
                   std::to_string(sum) + "%";
    }
    return "";
}

double
metricOf(const SimResult &r, const std::string &key)
{
    const auto it = r.metrics.find(key);
    return it == r.metrics.end() ? 0.0 : it->second;
}

SimResult
withoutObsMetrics(SimResult r)
{
    std::erase_if(r.metrics, [](const auto &kv) {
        return kv.first.rfind("obs.", 0) == 0 ||
               kv.first.rfind("interval.", 0) == 0;
    });
    return r;
}

std::string
labelOrderedJson(const campaign::Report &report)
{
    campaign::Report sorted = report;
    std::sort(sorted.jobs.begin(), sorted.jobs.end(),
              [](const campaign::JobOutcome &a,
                 const campaign::JobOutcome &b) { return a.label < b.label; });
    return sorted.toJson();
}

// ---- Campaign-path clock ---------------------------------------------------

void
JobClock::attach(std::vector<campaign::Job> &jobs,
                 campaign::Options &options)
{
    const std::size_t n = jobs.size();
    buildStart.assign(n, {});
    buildEnd.assign(n, {});
    finished.assign(n, {});
    hostSeconds.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        campaign::Job &job = jobs[i];
        job.builder = [this, i, inner = std::move(job.builder),
                       bench = job.benchmark] {
            buildStart[i] = Clock::now();
            Program program = inner ? inner() : workloads::build(bench);
            buildEnd[i] = Clock::now();
            return program;
        };
    }
    options.onJobFinished =
        [this, chained = std::move(options.onJobFinished)](
            std::size_t i, const campaign::JobOutcome &out) {
            finished[i] = Clock::now();
            hostSeconds[i] = out.result.hostSeconds;
            if (chained)
                chained(i, out);
        };
}

double
JobClock::overhead(std::size_t i) const
{
    return secondsBetween(buildStart[i], finished[i]) - hostSeconds[i];
}

// ---- Span log --------------------------------------------------------------

std::size_t
SpanLog::open(const std::string &name, std::size_t parent, unsigned run)
{
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, parent, run, now, now, false});
    return spans_.size() - 1;
}

void
SpanLog::close(std::size_t id)
{
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id].end = now;
    spans_[id].closed = true;
}

std::size_t
SpanLog::add(const std::string &name, std::size_t parent, unsigned run,
             Clock::time_point start, Clock::time_point end)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, parent, run, start, end, true});
    return spans_.size() - 1;
}

std::vector<double>
SpanLog::durations(const std::string &name, int run) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.closed && s.name == name &&
            (run < 0 || s.run == static_cast<unsigned>(run)))
            out.push_back(secondsBetween(s.start, s.end));
    return out;
}

std::map<std::string, double>
SpanLog::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent != noParent)
            children[spans_[i].parent].push_back(i);

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (!s.closed)
            continue;
        // Union of the children's intervals, clipped to the parent:
        // children on several workers may overlap.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (const std::size_t c : children[i])
            if (spans_[c].closed)
                iv.emplace_back(std::max(spans_[c].start, s.start),
                                std::min(spans_[c].end, s.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point reach = s.start;
        for (const auto &[a, b] : iv) {
            const Clock::time_point from = std::max(a, reach);
            if (b > from) {
                covered += secondsBetween(from, b);
                reach = b;
            }
        }
        self[s.name] += secondsBetween(s.start, s.end) - covered;
    }
    return self;
}

std::map<std::string, std::size_t>
SpanLog::counts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, std::size_t> out;
    for (const Span &s : spans_)
        ++out[s.name];
    return out;
}

void
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path, std::ios::trunc);
    const auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                      "\"end_us\":%.3f,\"parent\":%lld,\"run\":%u}\n",
                      i, s.name.c_str(), us(s.start), us(s.end),
                      s.parent == noParent
                          ? -1LL
                          : static_cast<long long>(s.parent),
                      s.run);
        out << buf;
    }
}

// ---- Placement -------------------------------------------------------------

void
placeOnCpus(unsigned i, unsigned count)
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (::sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    out.push_back(c);
        return out;
    }();
    if (cpus.empty())
        return;
    if (count == 0 || count > cpus.size())
        count = static_cast<unsigned>(cpus.size());
    cpu_set_t set;
    CPU_ZERO(&set);
    for (unsigned k = 0; k < count; ++k)
        CPU_SET(cpus[(i + k) % cpus.size()], &set);
    ::sched_setaffinity(0, sizeof set, &set);
}

// ---- Scratch directory -----------------------------------------------------

const std::string &
scratchDir()
{
    static const std::string dir = [] {
        const std::string d =
            ".bench_build/run-" + std::to_string(::getpid());
        std::filesystem::create_directories(d);
        return d;
    }();
    return dir;
}

} // namespace ctcp::perfbench
