/**
 * @file
 * One repetition of each workload shape — a serial campaign (fig6,
 * observed) or a closed-loop client of an in-process daemon
 * (sweep-daemon) — with its output checks, and the timed run built
 * from them.
 */

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "campaign/matrix.hh"
#include "common/json.hh"
#include "perfbench/runs.hh"
#include "service/client.hh"
#include "service/server.hh"

namespace ctcp::perfbench {

namespace fs = std::filesystem;

double
peakRssMb()
{
    // VmHWM, not getrusage(): ru_maxrss survives execve, so it would
    // report the launching process's peak when that one was larger.
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

// ---- Campaign reps ---------------------------------------------------------

double
CampaignRep::setupSeconds() const
{
    double s = parseSeconds;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        s += clock.overhead(i);
    return s;
}

double
runInstrumented(std::vector<campaign::Job> &jobs,
                campaign::Options options, JobClock &clock,
                campaign::Report &report, SpanLog *log, unsigned run)
{
    clock.attach(jobs, options);
    const std::size_t span =
        log ? log->open("campaign.run", noParent, run) : noParent;
    const Clock::time_point t0 = Clock::now();
    report = campaign::runCampaign(jobs, options);
    const double wall = secondsBetween(t0, Clock::now());
    if (log) {
        log->close(span);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const std::size_t job =
                log->add("campaign.job", span, run, clock.buildStart[i],
                         clock.finished[i]);
            log->add("workload.build", job, run, clock.buildStart[i],
                     clock.buildEnd[i]);
        }
    }
    return wall;
}

void
runCampaignRep(const Workload &w, Rng &rng, unsigned index,
               SpanLog *log, unsigned run, CampaignRep &rep)
{
    const Clock::time_point t0 = Clock::now();
    rep.jobs = campaign::parseMatrix(specText(w));
    rep.parseSeconds = secondsBetween(t0, Clock::now());
    shuffle(rep.jobs, rng);

    campaign::Options options;
    options.jobs = w.workers;
    if (w.observed) {
        rep.obsDir = scratchDir() + "/obs-" + std::to_string(index);
        fs::create_directories(rep.obsDir);
        options.accounting = true;
        options.traceEventsDir = rep.obsDir;
        options.traceFilter = observedTraceFilter;
        options.intervalDir = rep.obsDir;
        options.intervalCycles = observedIntervalCycles;
    }
    rep.wallSeconds = runInstrumented(rep.jobs, options, rep.clock,
                                      rep.report, log, run);
    for (const campaign::JobOutcome &out : rep.report.jobs)
        rep.instructions += out.result.instructions;
}

std::map<std::string, std::string>
obsOffReference(const Workload &w)
{
    campaign::Options options;
    options.jobs = w.workers;
    const campaign::Report report =
        campaign::runCampaign(campaign::parseMatrix(specText(w)), options);
    std::map<std::string, std::string> ref;
    for (const campaign::JobOutcome &out : report.jobs)
        ref[out.label] = out.result.toJson();
    return ref;
}

namespace {

/** Observability-output checks of one `observed` job ("" = pass). */
std::string
checkObservedJob(const campaign::Job &job, std::size_t index,
                 const campaign::JobOutcome &out, const CampaignRep &rep,
                 const std::map<std::string, std::string> &obs_off,
                 ObsTotals &totals)
{
    const SimResult &r = out.result;
    const auto ref = obs_off.find(out.label);
    if (ref == obs_off.end() ||
        withoutObsMetrics(r).toJson() != ref->second)
        return "simulated stats differ from the observability-off run";

    const auto acct = [&](const std::string &key) {
        const auto it = r.accounting.find(key);
        return it == r.accounting.end() ? -1.0 : it->second;
    };
    const double slots = static_cast<double>(r.cycles) *
        job.config.cluster.numClusters * job.config.cluster.clusterWidth;
    if (acct("slots.total") != slots)
        return "slots.total " + std::to_string(acct("slots.total")) +
               " != cycles x clusters x width " + std::to_string(slots);

    const std::string stem =
        rep.obsDir + "/" + campaign::jobFileStem(job.label, index);
    std::string text;
    {
        std::ifstream in(stem + ".trace.json", std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    try {
        json::parse(text);
    } catch (const std::exception &e) {
        return std::string("trace file is not complete JSON: ") + e.what();
    }

    std::ifstream csv(stem + ".intervals.csv");
    std::size_t lines = 0;
    for (std::string line; std::getline(csv, line);)
        ++lines;
    const std::uint64_t rows =
        (r.cycles + observedIntervalCycles - 1) / observedIntervalCycles;
    if (lines != rows + 1)
        return "interval CSV has " + std::to_string(lines) +
               " lines, expected " + std::to_string(rows + 1);

    totals.traceBytes += text.size();
    totals.intervalRows += rows;
    totals.slotsTotal += acct("slots.total");
    totals.slotsUseful += acct("slots.useful");
    totals.slotsIdle += acct("slots.idle");
    return "";
}

} // namespace

void
checkCampaignRep(const Workload &w, const CampaignRep &rep,
                 const std::map<std::string, std::string> &obs_off,
                 std::map<std::string, std::string> &by_label,
                 Tally &tally, ObsTotals &totals)
{
    for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
        const campaign::Job &job = rep.jobs[i];
        const campaign::JobOutcome &out = rep.report.jobs[i];
        ++tally.attempted;
        std::string why = checkJob(job, out);
        if (why.empty() && w.observed)
            why = checkObservedJob(job, i, out, rep, obs_off, totals);
        // Every rep submits in another order; per label the host-free
        // results must not change.
        const std::string json = out.result.toJson();
        const auto [it, first] = by_label.emplace(out.label, json);
        if (why.empty() && !first && it->second != json)
            why = "result differs from an earlier rep's";
        if (!why.empty())
            tally.fail(out.label, why);
    }
}

// ---- Daemon reps -----------------------------------------------------------

namespace {

std::string
header(const service::HttpResponse &resp, const std::string &name)
{
    for (const auto &[key, value] : resp.headers)
        if (key == name)
            return value;
    return "";
}

/** An in-process ServiceServer with its serve() thread; stops and
 *  joins on destruction. */
class ServedDaemon
{
  public:
    explicit ServedDaemon(service::ServiceServer::Config config)
        : server_(std::move(config)),
          thread_([this] { server_.serve(stop_); })
    {}
    ~ServedDaemon()
    {
        stop_ = true;
        thread_.join();
    }
    ServedDaemon(const ServedDaemon &) = delete;
    ServedDaemon &operator=(const ServedDaemon &) = delete;

  private:
    std::atomic<bool> stop_{false};
    service::ServiceServer server_;
    std::thread thread_;
};

} // namespace

void
runDaemonRep(const std::string &spec, unsigned workers, unsigned index,
             SpanLog *log, unsigned run, DaemonRep &rep)
{
    const std::string state = scratchDir() + "/daemon-" +
                              std::to_string(index);
    service::ServiceServer::Config config;
    config.socketPath = state + ".sock";
    config.registry.stateDir = state;
    config.registry.workers = workers;

    const std::size_t run_span =
        log ? log->open("service.run", noParent, run) : noParent;
    // One exchange; spans and counts every request that got a reply.
    const auto exchange = [&](const char *span, const std::string &method,
                              const std::string &target,
                              const std::string &body,
                              service::HttpResponse &resp) {
        const std::size_t id =
            log ? log->open(span, run_span, run) : noParent;
        std::string error;
        service::ClientOptions client;
        client.readTimeoutSeconds = 60.0;
        const bool ok = service::httpRequest(config.socketPath, method,
                                             target, body, client, resp,
                                             error);
        if (log)
            log->close(id);
        if (ok)
            ++rep.requests;
        else
            rep.error = error;
        return ok;
    };

    const Clock::time_point t0 = Clock::now();
    try {
        // The pool's workers rotate over the cores like serial
        // repetitions do (placeOnCpus); the client gets every core back.
        placeOnCpus(index, workers);
        ServedDaemon daemon(config);
        placeOnCpus(0, 0);
        service::HttpResponse resp;
        while (!exchange("service.ping", "GET", "/v1/ping", "", resp) ||
               resp.status != 200) {
            if (secondsBetween(t0, Clock::now()) > 10.0)
                throw std::runtime_error("daemon did not answer /v1/ping: " +
                                         rep.error);
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        rep.error.clear();
        const Clock::time_point ready = Clock::now();
        rep.startSeconds = secondsBetween(t0, ready);

        if (!exchange("service.submit", "POST", "/v1/runs", spec, resp) ||
            resp.status != 201)
            throw std::runtime_error("submit failed: " + resp.body);
        const Clock::time_point submitted = Clock::now();
        rep.submitSeconds = secondsBetween(ready, submitted);
        const std::string id = json::parse(resp.body).str("id");

        // Follow the journal by long poll until the run is terminal
        // and a read that began after that saw no new bytes.
        std::uint64_t from = 0;
        bool terminal = false;
        for (;;) {
            const Clock::time_point a = Clock::now();
            if (!exchange("service.events", "GET",
                          "/v1/runs/" + id + "/events?from=" +
                              std::to_string(from) + "&wait=5",
                          "", resp) ||
                resp.status != 200)
                throw std::runtime_error("events failed: " + resp.body);
            const Clock::time_point b = Clock::now();
            rep.pollSeconds.push_back(secondsBetween(a, b));
            if (!resp.body.empty() && rep.firstEventSeconds == 0.0)
                rep.firstEventSeconds = secondsBetween(submitted, b);
            rep.events += resp.body;
            from = std::stoull(header(resp, "x-ctcp-next-offset"));
            if (terminal && resp.body.empty())
                break;
            const std::string st = header(resp, "x-ctcp-run-state");
            terminal = st == "done" || st == "cancelled" || st == "error";
        }

        const Clock::time_point c = Clock::now();
        if (!exchange("service.report", "GET",
                      "/v1/runs/" + id + "/report?format=json", "", resp) ||
            resp.status != 200)
            throw std::runtime_error("report failed: " + resp.body);
        const Clock::time_point d = Clock::now();
        rep.reportSeconds = secondsBetween(c, d);
        rep.wallSeconds = secondsBetween(ready, d);
        rep.report = std::move(resp.body);
    } catch (const std::exception &e) {
        rep.error = e.what();
        placeOnCpus(0, 0);
    }
    if (log)
        log->close(run_span);
    std::istringstream lines(rep.events);
    for (std::string line; std::getline(lines, line);) {
        campaign::JournalRecord record;
        if (!campaign::decodeJournalRecord(line, record)) {
            rep.error = "undecodable journal record in the event stream";
            break;
        }
        rep.records.push_back(std::move(record));
    }
    std::error_code ec;
    fs::remove_all(state, ec);
    fs::remove(config.socketPath, ec);
}

void
checkDaemonRep(const DaemonReference &ref, const DaemonRep &rep,
               Tally &tally)
{
    // The served report is one artifact: when it is not runCampaign's
    // byte for byte, every job in it fails.
    std::string all;
    if (!rep.error.empty())
        all = "daemon exchange failed: " + rep.error;
    else if (rep.report != ref.json)
        all = "served report differs from runCampaign's";
    std::map<std::string, int> streamed;
    for (const campaign::JournalRecord &rec : rep.records)
        ++streamed[rec.outcome.label];
    for (const campaign::JobOutcome &out : ref.report.jobs) {
        ++tally.attempted;
        const auto failure = ref.failures.find(out.label);
        std::string why =
            failure != ref.failures.end() ? failure->second : all;
        if (why.empty() && streamed[out.label] != 1)
            why = "event stream carried " +
                  std::to_string(streamed[out.label]) +
                  " journal records for this job";
        if (!why.empty())
            tally.fail(out.label, why);
    }
}

void
DaemonReference::compute(const std::string &spec, unsigned workers,
                         SpanLog *log, unsigned run)
{
    jobs = campaign::parseMatrix(spec);
    campaign::Options options;
    options.jobs = workers;
    runInstrumented(jobs, options, clock, report, log, run);
    json = report.toJson();
    instructions = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        instructions += report.jobs[i].result.instructions;
        const std::string why = checkJob(jobs[i], report.jobs[i]);
        if (!why.empty())
            failures[report.jobs[i].label] = why;
    }
}

// ---- Fastest repetitions ---------------------------------------------------

void
FastestJobs::note(const std::string &label, double seconds,
                  std::uint64_t instructions)
{
    auto &f = fastest_[label];
    if (f.first == 0.0 || seconds < f.first)
        f = {seconds, instructions};
}

void
FastestJobs::add(const CampaignRep &rep)
{
    for (std::size_t j = 0; j < rep.jobs.size(); ++j)
        note(rep.report.jobs[j].label,
             secondsBetween(rep.clock.buildStart[j], rep.clock.finished[j]),
             rep.report.jobs[j].result.instructions);
}

void
FastestJobs::add(const DaemonRep &rep, unsigned workers)
{
    double compute = 0.0;
    for (const campaign::JournalRecord &rec : rep.records) {
        compute += rec.outcome.result.hostSeconds;
        note(rec.outcome.label, rec.outcome.result.hostSeconds,
             rec.outcome.result.instructions);
    }
    overheads_.push_back(rep.wallSeconds - compute / workers);
}

double
FastestJobs::rate(unsigned workers) const
{
    double seconds = 0.0, instructions = 0.0;
    for (const auto &[label, f] : fastest_) {
        seconds += f.first;
        instructions += static_cast<double>(f.second);
    }
    const double overhead = overheads_.empty() ? 0.0 : medianOf(overheads_);
    return instructions / (seconds / workers + overhead);
}

// ---- Timed run -------------------------------------------------------------

namespace {

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "\"%016llx\"",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
list(const std::vector<double> &v)
{
    std::string out = "[";
    char buf[32];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.6g", i ? "," : "", v[i]);
        out += buf;
    }
    return out + "]";
}

} // namespace

RunOutput
timedRun(const Workload &workload, const Args &args)
{
    RunOutput out;
    Rng rng(args.seed);
    Workload w = workload;
    std::vector<double> rates, setups, starts;
    FastestJobs fastest;
    std::string digest;
    if (w.daemon) {
        permuteClauses(w, rng);
        const std::string spec = specText(w);
        DaemonReference ref;
        ref.compute(spec, w.workers);
        digest = hex(fnv1a(labelOrderedJson(ref.report)));
        const Clock::time_point start = Clock::now();
        for (unsigned i = 0;
             i == 0 || secondsBetween(start, Clock::now()) < args.seconds;
             ++i) {
            DaemonRep rep;
            runDaemonRep(spec, w.workers, i, nullptr, 0, rep);
            checkDaemonRep(ref, rep, out.tally);
            rates.push_back(static_cast<double>(ref.instructions) /
                            rep.wallSeconds);
            setups.push_back(rep.startSeconds + rep.submitSeconds);
            starts.push_back(rep.startSeconds);
            fastest.add(rep, w.workers);
        }
        out.detail.emplace_back("spec", "\"" + spec + "\"");
        out.detail.emplace_back("rep_start_s", list(starts));
        out.detail.emplace_back("rep_overhead_s",
                                list(fastest.overheads()));
    } else {
        const std::map<std::string, std::string> obs_off =
            w.observed ? obsOffReference(w)
                       : std::map<std::string, std::string>{};
        std::map<std::string, std::string> by_label;
        ObsTotals totals;
        const Clock::time_point start = Clock::now();
        for (unsigned i = 0;
             i == 0 || secondsBetween(start, Clock::now()) < args.seconds;
             ++i) {
            CampaignRep rep;
            placeOnCpus(i, 1);
            runCampaignRep(w, rng, i, nullptr, 0, rep);
            checkCampaignRep(w, rep, obs_off, by_label, out.tally, totals);
            if (!rep.obsDir.empty())
                fs::remove_all(rep.obsDir);
            rates.push_back(static_cast<double>(rep.instructions) /
                            rep.wallSeconds);
            setups.push_back(rep.setupSeconds());
            fastest.add(rep);
            if (i == 0)
                digest = hex(fnv1a(labelOrderedJson(rep.report)));
        }
        out.detail.emplace_back("spec", "\"" + specText(w) + "\"");
    }

    out.metrics.push_back(
        scalar("sim_insts_per_s", "insts/s", fastest.rate(w.workers)));
    out.metrics.push_back(timing("setup_s", "s", setups));
    out.metrics.push_back(scalar("peak_rss_mb", "MB", peakRssMb()));
    out.detail.emplace_back("reps", std::to_string(rates.size()));
    out.detail.emplace_back("rep_insts_per_s", list(rates));
    out.detail.emplace_back("median_rep_insts_per_s",
                            std::to_string(medianOf(rates)));
    out.detail.emplace_back("rep_setup_s", list(setups));
    out.detail.emplace_back("report_digest", digest);
    return out;
}

} // namespace ctcp::perfbench
