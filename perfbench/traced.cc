/**
 * @file
 * The traced run: per-layer metrics from spans the benchmark records
 * around its own calls into each layer's public functions, combined
 * with the deterministic counts every SimResult carries.
 *
 * A traced run is, in order: untraced reps alternating with traced
 * reps of the same shape, at least three pairs and more until
 * --seconds have passed (their rates give bench.trace_overhead_pct),
 * a direct drive of every job's CtcpSimulator (construct, step in
 * batches, assemble; each result must equal the campaign's),
 * Executor::step replayed over each job's instruction count, and each
 * assignment policy's assign() on seeded 16-instruction drafts.
 */

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <memory>
#include <thread>

#include "assign/base_assignment.hh"
#include "assign/fdrt_assignment.hh"
#include "assign/friendly_assignment.hh"
#include "common/arena.hh"
#include "core/simulator.hh"
#include "perfbench/runs.hh"
#include "workload/workload.hh"

namespace ctcp::perfbench {

namespace {

namespace fs = std::filesystem;

/** Cycles per core.step span. */
constexpr unsigned stepBatch = 4096;

/** One job driven directly through CtcpSimulator. */
struct Drive
{
    SimResult result;
    double stepSeconds = 0.0;
    std::uint64_t noRetireCycles = 0;
};

Drive
driveJob(const std::string &benchmark, const SimConfig &config,
         SpanLog &log, unsigned run)
{
    Drive d;
    const std::size_t job = log.open("drive.job", noParent, run);
    Clock::time_point t0 = Clock::now();
    const Program program = workloads::build(benchmark);
    Clock::time_point t1 = Clock::now();
    log.add("workload.build", job, run, t0, t1);

    // The campaign engine's arena discipline: reset before the
    // simulator is built, never while it lives.
    thread_local Arena arena;
    arena.reset();
    auto sim = std::make_unique<CtcpSimulator>(config, program, &arena);
    t0 = Clock::now();
    log.add("core.construct", job, run, t1, t0);

    while (!sim->done()) {
        for (unsigned k = 0; k < stepBatch && !sim->done(); ++k) {
            const std::uint64_t before = sim->retired();
            sim->step();
            d.noRetireCycles += sim->retired() == before;
        }
        t1 = Clock::now();
        log.add("core.step", job, run, t0, t1);
        d.stepSeconds += secondsBetween(t0, t1);
        t0 = t1;
    }
    d.result = sim->run(); // done() already: assembles the result
    log.add("core.assemble", job, run, t0, Clock::now());
    sim.reset();
    log.close(job);
    return d;
}

/** The config runCampaign() gives job @p index under @p w's options. */
SimConfig
campaignConfig(const Workload &w, const campaign::Job &job,
               std::size_t index, const std::string &obs_dir)
{
    SimConfig config = job.config;
    if (w.observed) {
        const std::string stem =
            obs_dir + "/" + campaign::jobFileStem(job.label, index);
        config.obs.accounting = true;
        config.obs.traceEventsPath = stem + ".trace.json";
        config.obs.traceFilter = observedTraceFilter;
        config.obs.intervalPath = stem + ".intervals.csv";
        config.obs.intervalCycles = observedIntervalCycles;
    }
    return config;
}

/** Drive @p jobs on @p workers threads; results by index. */
std::vector<Drive>
driveAll(const std::vector<campaign::Job> &jobs,
         const std::vector<SimConfig> &configs, unsigned workers,
         SpanLog &log, unsigned run)
{
    std::vector<Drive> drives(jobs.size());
    std::atomic<std::size_t> next{0};
    const auto body = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();)
            drives[i] = driveJob(jobs[i].benchmark, configs[i], log, run);
    };
    std::vector<std::thread> threads;
    for (unsigned t = 1; t < workers; ++t)
        threads.emplace_back(body);
    body();
    for (std::thread &t : threads)
        t.join();
    return drives;
}

volatile std::uint64_t replaySink = 0;
volatile std::size_t reportSink = 0;

/** ns per Executor::step, one sample per job. */
std::vector<double>
replayFunc(const std::vector<campaign::Job> &jobs,
           const campaign::Report &report, SpanLog &log, unsigned run)
{
    std::vector<double> samples;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Program program = workloads::build(jobs[i].benchmark);
        Executor exec(program);
        DynInst d;
        const std::uint64_t steps = report.jobs[i].result.instructions;
        std::uint64_t n = 0;
        const Clock::time_point t0 = Clock::now();
        while (n < steps && exec.step(d)) {
            sink += d.pc;
            ++n;
        }
        const Clock::time_point t1 = Clock::now();
        log.add("func.replay", noParent, run, t0, t1);
        if (n > 0)
            samples.push_back(secondsBetween(t0, t1) * 1e9 /
                              static_cast<double>(n));
    }
    replaySink = sink;
    return samples;
}

/** A seeded 16-instruction draft on the base 4x4 machine. */
TraceDraft
seededDraft(Rng &rng)
{
    TraceDraft d;
    d.numClusters = 4;
    d.slotsPerCluster = 4;
    for (int i = 0; i < 16; ++i) {
        DraftInst di;
        di.pc = 100 + static_cast<Addr>(i);
        di.dst = static_cast<RegId>(1 + rng.below(28));
        di.src1 = static_cast<RegId>(1 + rng.below(28));
        di.src2 = rng.chance(1, 2) ? static_cast<RegId>(1 + rng.below(28))
                                   : invalidReg;
        di.writesDst = true;
        di.criticalSrc = 1 + static_cast<int>(rng.below(2));
        di.criticalForwarded = rng.chance(3, 4);
        di.criticalInterTrace = rng.chance(1, 4);
        for (int j = i - 1; j >= 0; --j) {
            if (d.insts[static_cast<std::size_t>(j)].dst == di.src1) {
                di.intraProducer = j;
                d.insts[static_cast<std::size_t>(j)].hasIntraConsumer = true;
                break;
            }
        }
        d.insts.push_back(di);
    }
    return d;
}

/** ns per assign() call, one sample per batch of drafts. */
std::vector<double>
placeSamples(RetireAssignmentPolicy &policy,
             const std::vector<TraceDraft> &drafts, SpanLog &log,
             unsigned run)
{
    constexpr int batches = 200;
    std::vector<double> samples;
    std::vector<TraceDraft> work;
    for (int b = 0; b < batches; ++b) {
        work = drafts;
        const Clock::time_point t0 = Clock::now();
        for (TraceDraft &d : work)
            policy.assign(d);
        const Clock::time_point t1 = Clock::now();
        log.add("assign.place", noParent, run, t0, t1);
        samples.push_back(secondsBetween(t0, t1) * 1e9 /
                          static_cast<double>(work.size()));
    }
    return samples;
}

/** HM over jobs of IPC(strategy) / IPC(base twin); 0 if absent. */
double
speedupHm(const campaign::Report &report, const std::string &strategy)
{
    // Labels read "bench/preset/strategy[/topology][/cN]"; a job's base
    // twin differs only in the strategy segment.
    std::map<std::string, double> ipc;
    for (const campaign::JobOutcome &out : report.jobs)
        ipc[out.label] = out.result.ipc();
    std::vector<double> speedups;
    for (const auto &[label, value] : ipc) {
        const std::size_t b = label.find('/', label.find('/') + 1) + 1;
        const std::size_t e = std::min(label.find('/', b), label.size());
        if (label.compare(b, e - b, strategy) != 0)
            continue;
        const auto base =
            ipc.find(label.substr(0, b) + "base" + label.substr(e));
        if (base != ipc.end() && base->second > 0.0)
            speedups.push_back(value / base->second);
    }
    return harmonicMean(speedups);
}

/** The deterministic per-layer counts of @p report's results. */
void
countMetrics(const campaign::Report &report, std::vector<Metric> &m)
{
    double cycles = 0, insts = 0, hits = 0, misses = 0, from_tc = 0,
           from_ic = 0, fills = 0, dispatched = 0, fwd_inter = 0,
           issue_stalls = 0, rob_stalls = 0, mispredicts = 0, mem = 0;
    std::vector<double> ipcs;
    for (const campaign::JobOutcome &out : report.jobs) {
        const SimResult &r = out.result;
        cycles += static_cast<double>(r.cycles);
        insts += static_cast<double>(r.instructions);
        ipcs.push_back(r.ipc());
        hits += metricOf(r, "tc.hits");
        misses += metricOf(r, "tc.misses");
        from_tc += metricOf(r, "fetch.from_tc");
        from_ic += metricOf(r, "fetch.from_ic");
        fills += metricOf(r, "fill.traces_built");
        for (const auto &[key, value] : r.metrics)
            if (key.rfind("cluster", 0) == 0 &&
                key.size() > 11 &&
                key.compare(key.size() - 11, 11, ".dispatched") == 0)
                dispatched += value;
        fwd_inter += metricOf(r, "fwd.inter_cluster");
        issue_stalls += metricOf(r, "issue_stalls");
        rob_stalls += metricOf(r, "rob_stalls");
        mispredicts += static_cast<double>(r.mispredicts);
        mem += metricOf(r, "dmem.loads") + metricOf(r, "dmem.stores");
    }
    const double kinst = insts / 1000.0;
    m.push_back(scalar("core.sim_cycles", "cycles", cycles));
    m.push_back(scalar("core.ipc_hm", "insts/cycle", harmonicMean(ipcs)));
    m.push_back(scalar("tracecache.hit_pct", "%",
                       100.0 * hits / (hits + misses)));
    m.push_back(scalar("tracecache.from_tc_pct", "%",
                       100.0 * from_tc / (from_tc + from_ic)));
    m.push_back(scalar("tracecache.fills_per_kinst", "fills/kinst",
                       fills / kinst));
    for (const auto &[name, strategy] :
         {std::pair{"assign.issue0_speedup_hm", "issue-time:0"},
          std::pair{"assign.issue4_speedup_hm", "issue-time:4"},
          std::pair{"assign.fdrt_speedup_hm", "fdrt"},
          std::pair{"assign.friendly_speedup_hm", "friendly"}})
        m.push_back(scalar(name, "x", speedupHm(report, strategy)));
    m.push_back(scalar("cluster.dispatched_per_inst", "insts/inst",
                       dispatched / insts));
    m.push_back(scalar("cluster.fwd_inter_per_kinst", "fwds/kinst",
                       fwd_inter / kinst));
    m.push_back(scalar("cluster.issue_stalls_per_kinst", "stalls/kinst",
                       issue_stalls / kinst));
    m.push_back(scalar("cluster.rob_stalls_per_kinst", "stalls/kinst",
                       rob_stalls / kinst));
    m.push_back(scalar("bpred.mispredicts_per_kinst", "misp/kinst",
                       mispredicts / kinst));
    m.push_back(scalar("mem.accesses_per_kinst", "accesses/kinst",
                       mem / kinst));
}

std::vector<double>
scaled(std::vector<double> v, double factor)
{
    for (double &x : v)
        x *= factor;
    return v;
}

double
instructions(const campaign::Report &report)
{
    double n = 0.0;
    for (const campaign::JobOutcome &out : report.jobs)
        n += static_cast<double>(out.result.instructions);
    return n;
}

std::string
selfTimeJson(const SpanLog &log)
{
    const std::map<std::string, std::size_t> counts = log.counts();
    std::string out = "{";
    char buf[160];
    for (const auto &[name, seconds] : log.selfTimes()) {
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\":{\"spans\":%zu,\"self_s\":%.6f}",
                      out.size() > 1 ? "," : "", name.c_str(),
                      counts.at(name), seconds);
        out += buf;
    }
    return out + "}";
}

} // namespace

RunOutput
tracedRun(const Workload &workload, const Args &args)
{
    RunOutput out;
    SpanLog log;
    Rng rng(args.seed);
    Workload w = workload;
    std::vector<Metric> &m = out.metrics;

    // ---- The workload's own shape, untraced and traced in turn -----------
    // `jobs`, `report` and `clock` end up naming the last traced
    // campaign (on sweep-daemon, the reference campaign, which runs at
    // the daemon's worker count).
    // At least three pairs, then more until --seconds have passed.
    const Clock::time_point start = Clock::now();
    const auto more = [&](int k) {
        return k < 3 || secondsBetween(start, Clock::now()) < args.seconds;
    };
    int pairs = 0;
    std::deque<CampaignRep> traced;
    DaemonReference ref;
    const std::vector<campaign::Job> *jobs = nullptr;
    const campaign::Report *report = nullptr;
    FastestJobs plain_fast, traced_fast;
    double host = 0.0, wall = 0.0;
    std::vector<double> overhead_ms;
    ObsTotals obs;
    std::map<std::string, std::string> obs_off;
    std::vector<Metric> service;
    double journal_bytes_per_job = 0.0;

    if (w.daemon) {
        permuteClauses(w, rng);
        const std::string spec = specText(w);
        ref.compute(spec, w.workers, &log, 1);
        jobs = &ref.jobs;
        report = &ref.report;
        for (std::size_t i = 0; i < jobs->size(); ++i)
            overhead_ms.push_back(ref.clock.overhead(i) * 1e3);

        std::vector<double> ready, submit, first_event, polls, fetch;
        double requests = 0.0, bytes = 0.0;
        for (; more(pairs); ++pairs) {
            const unsigned k = static_cast<unsigned>(pairs);
            DaemonRep plain_rep, traced_rep;
            runDaemonRep(spec, w.workers, 2 * k, nullptr, 0, plain_rep);
            checkDaemonRep(ref, plain_rep, out.tally);
            plain_fast.add(plain_rep, w.workers);
            runDaemonRep(spec, w.workers, 2 * k + 1, &log, 2, traced_rep);
            checkDaemonRep(ref, traced_rep, out.tally);
            traced_fast.add(traced_rep, w.workers);

            ready.push_back(traced_rep.startSeconds * 1e3);
            submit.push_back(traced_rep.submitSeconds * 1e3);
            first_event.push_back(traced_rep.firstEventSeconds * 1e3);
            fetch.push_back(traced_rep.reportSeconds * 1e3);
            for (const double p : traced_rep.pollSeconds)
                polls.push_back(p * 1e3);
            requests += static_cast<double>(traced_rep.requests);
            bytes += static_cast<double>(traced_rep.events.size());
            for (const campaign::JournalRecord &rec : traced_rep.records)
                host += rec.outcome.result.hostSeconds;
            wall += traced_rep.wallSeconds;
        }
        const double job_runs = static_cast<double>(pairs * jobs->size());
        journal_bytes_per_job = bytes / job_runs;
        service = {
            timing("service.ready_ms", "ms", ready),
            timing("service.submit_ms", "ms", submit),
            timing("service.first_event_ms", "ms", first_event),
            timing("service.poll_ms", "ms", polls),
            scalar("service.requests_per_job", "requests/job",
                   requests / job_runs),
            timing("service.report_ms", "ms", fetch),
        };
        out.detail.emplace_back("spec", "\"" + spec + "\"");
    } else {
        if (w.observed)
            obs_off = obsOffReference(w);
        std::map<std::string, std::string> by_label;
        ObsTotals ignored;
        for (; more(pairs); ++pairs) {
            const unsigned k = static_cast<unsigned>(pairs);
            placeOnCpus(k, 1);
            CampaignRep plain;
            runCampaignRep(w, rng, 2 * k, nullptr, 0, plain);
            checkCampaignRep(w, plain, obs_off, by_label, out.tally,
                             ignored);
            plain_fast.add(plain);
            CampaignRep &rep = traced.emplace_back();
            runCampaignRep(w, rng, 2 * k + 1, &log, 1, rep);
            // The file totals are per repetition: keep the last one's.
            obs = ObsTotals{};
            checkCampaignRep(w, rep, obs_off, by_label, out.tally, obs);
            traced_fast.add(rep);
            for (const CampaignRep *r : {&plain, &rep})
                if (!r->obsDir.empty())
                    fs::remove_all(r->obsDir);
            for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
                overhead_ms.push_back(rep.clock.overhead(i) * 1e3);
                host += rep.clock.hostSeconds[i];
            }
            wall += rep.wallSeconds;
        }
        jobs = &traced.back().jobs;
        report = &traced.back().report;
        // No daemon in this workload: its service layer does no work.
        for (const auto &[name, unit] :
             {std::pair{"service.ready_ms", "ms"},
              std::pair{"service.submit_ms", "ms"},
              std::pair{"service.first_event_ms", "ms"},
              std::pair{"service.poll_ms", "ms"},
              std::pair{"service.requests_per_job", "requests/job"},
              std::pair{"service.report_ms", "ms"}})
            service.push_back(scalar(name, unit, 0.0));
        out.detail.emplace_back("spec", "\"" + specText(w) + "\"");
    }
    out.detail.emplace_back("pairs", std::to_string(pairs));
    const double busy_pct = 100.0 * host / (w.workers * wall);
    const double untraced_rate = plain_fast.rate(w.workers);
    const double traced_rate = traced_fast.rate(w.workers);
    std::vector<double> report_ms;
    for (int k = 0; k < 11; ++k) {
        const Clock::time_point t0 = Clock::now();
        reportSink = report->toJson().size();
        const Clock::time_point t1 = Clock::now();
        log.add("campaign.report", noParent, 3, t0, t1);
        report_ms.push_back(secondsBetween(t0, t1) * 1e3);
    }

    // ---- Direct drive: core spans, checked against the campaign ------------
    const std::string drive_dir = scratchDir() + "/drive";
    fs::create_directories(drive_dir);
    std::vector<SimConfig> configs;
    for (std::size_t i = 0; i < jobs->size(); ++i)
        configs.push_back(campaignConfig(w, (*jobs)[i], i, drive_dir));
    std::vector<Drive> drives;
    std::vector<double> extra;
    if (w.observed) {
        // Each observed job is followed at once by the same job with
        // observability off, so the pair shares host conditions.
        for (std::size_t i = 0; i < jobs->size(); ++i) {
            const campaign::Job &job = (*jobs)[i];
            drives.push_back(driveJob(job.benchmark, configs[i], log, 4));
            const Drive off = driveJob(job.benchmark, job.config, log, 5);
            ++out.tally.attempted;
            if (off.result.toJson() != obs_off.at(job.label))
                out.tally.fail(job.label, "observability-off drive differs "
                                          "from the campaign's");
            extra.push_back(
                (drives.back().stepSeconds - off.stepSeconds) * 1e9 /
                static_cast<double>(off.result.instructions));
        }
    } else {
        drives = driveAll(*jobs, configs, w.workers, log, 4);
    }
    fs::remove_all(drive_dir);
    std::vector<double> step_inst, step_cycle;
    double cycles = 0.0, no_retire = 0.0;
    for (std::size_t i = 0; i < jobs->size(); ++i) {
        const Drive &d = drives[i];
        ++out.tally.attempted;
        if (d.result.toJson() != report->jobs[i].result.toJson())
            out.tally.fail((*jobs)[i].label,
                           "directly driven result differs from the "
                           "campaign's");
        step_inst.push_back(d.stepSeconds * 1e9 /
                            static_cast<double>(d.result.instructions));
        step_cycle.push_back(d.stepSeconds * 1e9 /
                             static_cast<double>(d.result.cycles));
        cycles += static_cast<double>(d.result.cycles);
        no_retire += static_cast<double>(d.noRetireCycles);
    }

    // ---- func and assign ---------------------------------------------------
    const std::vector<double> func_ns = replayFunc(*jobs, *report, log, 6);
    Rng draft_rng(args.seed ^ 0x5bd1e995u);
    std::vector<TraceDraft> drafts;
    for (int i = 0; i < 256; ++i)
        drafts.push_back(seededDraft(draft_rng));
    const ClusterConfig cluster;
    const Interconnect ic(cluster);
    BaseSlotOrderAssignment base;
    FriendlyAssignment friendly(ic, false);
    FdrtAssignment fdrt(ic, true);

    // ---- Metrics -----------------------------------------------------------
    m.push_back(timing("core.step_ns_per_inst", "ns", step_inst));
    m.push_back(timing("core.step_ns_per_cycle", "ns", step_cycle));
    m.push_back(scalar("core.no_retire_cycle_pct", "%",
                       100.0 * no_retire / cycles));
    m.push_back(timing("core.construct_us", "us",
                       scaled(log.durations("core.construct", 4), 1e6)));
    m.push_back(timing("core.assemble_us", "us",
                       scaled(log.durations("core.assemble", 4), 1e6)));
    m.push_back(timing("workload.build_us", "us",
                       scaled(log.durations("workload.build"), 1e6)));
    m.push_back(timing("func.step_ns", "ns", func_ns));
    m.push_back(timing("assign.base_place_ns", "ns",
                       placeSamples(base, drafts, log, 7)));
    m.push_back(timing("assign.friendly_place_ns", "ns",
                       placeSamples(friendly, drafts, log, 7)));
    m.push_back(timing("assign.fdrt_place_ns", "ns",
                       placeSamples(fdrt, drafts, log, 7)));
    countMetrics(*report, m);
    if (w.observed) {
        m.push_back(timing("obs.extra_ns_per_inst", "ns", extra));
    } else {
        m.push_back(scalar("obs.extra_ns_per_inst", "ns", 0.0));
    }
    const double insts = instructions(*report);
    m.push_back(scalar("obs.trace_bytes_per_inst", "bytes/inst",
                       obs.traceBytes / insts));
    m.push_back(scalar("obs.interval_rows", "rows",
                       static_cast<double>(obs.intervalRows)));
    m.push_back(scalar("obs.useful_slot_pct", "%",
                       obs.slotsTotal > 0
                           ? 100.0 * obs.slotsUseful / obs.slotsTotal : 0.0));
    m.push_back(scalar("obs.idle_slot_pct", "%",
                       obs.slotsTotal > 0
                           ? 100.0 * obs.slotsIdle / obs.slotsTotal : 0.0));
    m.push_back(timing("campaign.job_overhead_ms", "ms", overhead_ms));
    m.push_back(timing("campaign.report_ms", "ms", report_ms));
    m.push_back(scalar("campaign.worker_busy_pct", "%", busy_pct));
    m.push_back(scalar("campaign.journal_bytes_per_job", "bytes/job",
                       journal_bytes_per_job));
    m.insert(m.end(), service.begin(), service.end());
    m.push_back(scalar("bench.trace_overhead_pct", "%",
                       100.0 * (untraced_rate / traced_rate - 1.0)));

    const std::string span_path = ".bench_build/spans-" + w.name + "-seed" +
                                  std::to_string(args.seed) + ".jsonl";
    log.write(span_path);
    out.detail.emplace_back("spans_file", "\"" + span_path + "\"");
    out.detail.emplace_back("self_time", selfTimeJson(log));
    char buf[96];
    std::snprintf(buf, sizeof buf, "{\"untraced\":%.1f,\"traced\":%.1f}",
                  untraced_rate, traced_rate);
    out.detail.emplace_back("sim_insts_per_s", buf);
    return out;
}

} // namespace ctcp::perfbench
