/**
 * @file
 * ctcpsim — command-line driver for the clustered trace cache
 * processor simulator.
 *
 * Runs one benchmark under one machine configuration and prints the
 * full statistics dump. Every Table 7 parameter that the paper varies
 * is exposed as a flag.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "campaign/campaign.hh"
#include "campaign/matrix.hh"
#include "common/atomic_file.hh"
#include "common/parse_number.hh"
#include "common/sim_error.hh"
#include "common/version.hh"
#include "config/presets.hh"
#include "core/simulator.hh"
#include "obs/report.hh"
#include "obs/sink.hh"
#include "stats/interval.hh"
#include "stats/table.hh"
#include "workload/workload.hh"

namespace {

void
usage(const char *prog)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "workload:\n"
        "  --bench NAME          benchmark to run (default gzip)\n"
        "  --list                list available benchmarks and exit\n"
        "  --instructions N      instruction budget (default 2000000)\n"
        "\n"
        "cluster assignment:\n"
        "  --strategy S          base | friendly | fdrt | issue-time |\n"
        "                        adaptive (phase-adaptive chooser; see\n"
        "                        --adaptive-interval)\n"
        "  --adaptive-interval N adaptive: cycles between phase\n"
        "                        evaluations (default 5000)\n"
        "  --issue-latency N     extra front-end stages for issue-time\n"
        "  --no-pinning          FDRT: do not pin chain leaders\n"
        "  --no-chains           FDRT: intra-trace heuristics only\n"
        "  --middle-bias         Friendly: bias toward middle clusters\n"
        "\n"
        "machine:\n"
        "  --clusters N          number of clusters (1-8, default 4);\n"
        "                        the machine width rescales to match\n"
        "  --cluster-width N     issue slots per cluster (default 4);\n"
        "                        the machine width rescales to match\n"
        "                        (clusters x width at most 64)\n"
        "  --hop-latency N       cycles per cluster hop (default 2)\n"
        "  --topology T          linear | ring | crossbar | hier | bus\n"
        "                        (default linear)\n"
        "  --preset P            base | mesh | onecycle | twocluster |\n"
        "                        bus | eightcluster | ring | crossbar |\n"
        "                        hier\n"
        "\n"
        "output:\n"
        "  --json                print headline metrics as JSON\n"
        "  --host-timing         include host wall-clock metrics\n"
        "                        (host.*) in JSON output; off by\n"
        "                        default because they vary run to run.\n"
        "                        A campaign job that shared another\n"
        "                        job's run reports 0\n"
        "\n"
        "observability (src/obs):\n"
        "  --trace-events FILE   write Chrome trace_event JSON (open in\n"
        "                        chrome://tracing or Perfetto); in\n"
        "                        campaign mode FILE is a directory and\n"
        "                        each job writes <label>.trace.json\n"
        "  --trace-text FILE     compact one-line-per-event text trace\n"
        "  --trace-filter KINDS  comma-separated event kinds to record\n"
        "                        (fetch, tc-hit, tc-miss, trace-build,\n"
        "                        assign, rename, issue, execute,\n"
        "                        forward, complete, retire, flush, mem;\n"
        "                        default all)\n"
        "  --interval-stats FILE interval time series (CSV, or JSON\n"
        "                        when FILE ends in .json); in campaign\n"
        "                        mode FILE is a directory and each job\n"
        "                        writes <label>.intervals.csv\n"
        "  --interval N          sampling period in cycles for\n"
        "                        --interval-stats (default 10000)\n"
        "  --accounting          attribute every cluster issue slot to\n"
        "                        a stall taxonomy (useful, operand\n"
        "                        waits by forward hop count, FU/RS/ROB\n"
        "                        pressure, fetch starvation, idle) and\n"
        "                        record the inter-cluster forwarding\n"
        "                        matrix; adds an \"accounting\" block\n"
        "                        to --json / --out output\n"
        "  --report FILE         write a self-contained HTML report\n"
        "                        (cycle-accounting bars, forwarding\n"
        "                        heatmap, IPC sparklines when\n"
        "                        --interval-stats is set); implies\n"
        "                        --accounting\n"
        "\n"
        "campaign mode (runs a workload x config matrix instead):\n"
        "  --campaign MATRIX     submit the matrix to the concurrent\n"
        "                        campaign engine (see below)\n"
        "  --jobs N              worker threads (default: one per\n"
        "                        hardware thread); results do not\n"
        "                        depend on N\n"
        "  --out FILE            write aggregated results to FILE\n"
        "                        (CSV when FILE ends in .csv, else\n"
        "                        JSON)\n"
        "\n"
        "robustness:\n"
        "  --check-invariants    revalidate pipeline invariants every\n"
        "                        cycle (scheduler readiness, ROB order,\n"
        "                        store window, trace lines); a\n"
        "                        violation aborts the run. Slow; for\n"
        "                        debugging and CI\n"
        "  --watchdog N          abort (with a pipeline-state dump) if\n"
        "                        no instruction retires for N cycles\n"
        "                        (default 1000000; 0 disables)\n"
        "  --deadline SECS       per-run wall-clock budget; overruns\n"
        "                        fail with a timeout error (campaign\n"
        "                        mode: applies to each job)\n"
        "  --max-attempts N      campaign mode: re-run a job that\n"
        "                        fails retryably up to N times\n"
        "                        (default 1)\n"
        "  --journal FILE        campaign mode: checkpoint finished\n"
        "                        jobs to an append-only JSONL journal\n"
        "                        and resume from it after a crash\n"
        "                        (completed jobs are not re-run)\n"
        "\n"
        "ablations (Figure 5):\n"
        "  --zero-fwd            no inter-cluster forwarding latency\n"
        "  --zero-crit-fwd       critical input forwards with no latency\n"
        "  --zero-intra-fwd      intra-trace forwards with no latency\n"
        "  --zero-inter-fwd      inter-trace forwards with no latency\n"
        "  --zero-rf             no register-file read latency\n"
        "\n"
        "%s\n"
        "--version prints the version and exits.\n"
        "\n"
        "exit status:\n"
        "  0  simulation (or every campaign job) succeeded\n"
        "  1  the simulation failed, or at least one campaign job did\n"
        "  2  usage or configuration error\n",
        prog, ctcp::campaign::matrixSyntaxHelp());
}

/** Usage / configuration error: exit status 2. */
[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "ctcpsim: %s (try --help)\n", msg.c_str());
    std::exit(2);
}

/** Robustness knobs campaign jobs inherit from the command line. */
struct RobustnessFlags
{
    unsigned checkLevel = 0;
    bool watchdogSet = false;
    std::uint64_t watchdogCycles = 0;
};

/** Render report JSON text into a self-contained HTML file. */
void
writeHtmlReport(const std::string &json_text,
                const std::string &interval_path,
                const std::string &report_path, const std::string &title)
{
    using namespace ctcp;
    try {
        report::ReportView view = report::fromJsonText(json_text);
        if (!interval_path.empty())
            report::loadIntervalSeries(interval_path, view);
        atomicWriteFile(report_path, report::renderHtml(view, title));
    } catch (const std::exception &e) {
        die(std::string("writing --report failed: ") + e.what());
    }
    std::fprintf(stderr, "wrote HTML report to %s\n",
                 report_path.c_str());
}

/** Set by the campaign-mode SIGINT handler; polled between jobs. */
std::atomic<bool> g_interrupted{false};

void
onCampaignInterrupt(int)
{
    g_interrupted.store(true);
}

/** Run a --campaign matrix and export/print the aggregated report. */
int
runCampaignMode(const std::string &matrix, ctcp::campaign::Options options,
                const std::string &out_path,
                const std::string &report_path, bool host_timing,
                const RobustnessFlags &robust)
{
    using namespace ctcp;

    std::vector<campaign::Job> queue;
    try {
        queue = campaign::parseMatrix(matrix, options.slotIndexMap);
    } catch (const std::invalid_argument &e) {
        die(e.what());
    }
    for (campaign::Job &job : queue) {
        if (robust.checkLevel > job.config.checkLevel)
            job.config.checkLevel = robust.checkLevel;
        if (robust.watchdogSet)
            job.config.watchdogCycles = robust.watchdogCycles;
    }

    options.progress = campaign::progressToStderr;

    // Ctrl-C checkpoints instead of killing the batch: in-flight jobs
    // finish and land in the journal, queued jobs are skipped, and
    // re-running with the same --journal resumes only the missing
    // jobs — the same drain path the ctcpd daemon uses on SIGTERM.
    options.cancelRequested = [] { return g_interrupted.load(); };
    struct sigaction sa, old_sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onCampaignInterrupt;
    ::sigaction(SIGINT, &sa, &old_sa);

    campaign::Report report;
    try {
        report = campaign::runCampaign(queue, options);
    } catch (const SimError &e) {
        // Campaign-level SimErrors (e.g. an unopenable journal) are
        // configuration problems; per-job errors never propagate here.
        die(e.what());
    }
    ::sigaction(SIGINT, &old_sa, nullptr);
    if (g_interrupted.load()) {
        if (options.journalPath.empty())
            std::fprintf(stderr,
                         "interrupted: %zu of %zu jobs finished "
                         "(no --journal; finished work is lost)\n",
                         report.jobs.size() - report.failed(),
                         report.jobs.size());
        else
            std::fprintf(stderr,
                         "interrupted: %zu of %zu jobs checkpointed "
                         "to %s; re-run with the same --journal to "
                         "resume\n",
                         report.jobs.size() - report.failed(),
                         report.jobs.size(),
                         options.journalPath.c_str());
    }

    TextTable table({"job", "status", "cycles", "IPC", "% from TC"});
    for (const campaign::JobOutcome &job : report.jobs) {
        table.row(job.label);
        if (job.ok()) {
            table.cell("ok")
                .cell(std::to_string(job.result.cycles))
                .cell(job.result.ipc(), 3)
                .percentCell(job.result.pctFromTraceCache);
        } else {
            table.cell("FAILED: " + job.error).cell("-").cell("-")
                .cell("-");
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("\n%zu jobs, %zu failed\n", report.jobs.size(),
                report.failed());

    if (!out_path.empty()) {
        const bool csv = out_path.size() >= 4 &&
            out_path.compare(out_path.size() - 4, 4, ".csv") == 0;
        try {
            // Staged + renamed: a crash mid-export leaves any
            // previous report intact, never a truncated one.
            atomicWriteFile(
                out_path,
                csv ? report.toCsv(options.accounting)
                    : report.toJson(host_timing, options.accounting));
        } catch (const std::exception &e) {
            die(e.what());
        }
        std::fprintf(stderr, "wrote %s results to %s\n",
                     csv ? "CSV" : "JSON", out_path.c_str());
    }
    if (!report_path.empty())
        writeHtmlReport(report.toJson(host_timing, true),
                        options.intervalDir, report_path,
                        "ctcpsim campaign report");
    return report.failed() ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ctcp;

    std::string bench = "gzip";
    SimConfig cfg = baseConfig();
    std::uint64_t instructions = 2'000'000;
    bool clusters_set = false;
    bool cluster_width_set = false;
    bool json = false;
    bool host_timing = false;
    unsigned clusters = 4;
    unsigned cluster_width = 4;
    std::string campaign_matrix;
    bool campaign_set = false;
    unsigned campaign_jobs = 0;
    std::string out_path;
    std::string trace_events;
    std::string trace_text;
    std::string trace_filter;
    std::string interval_stats;
    Cycle interval_cycles = 10'000;
    bool accounting = false;
    std::string report_path;
    RobustnessFlags robust;
    double deadline_seconds = 0.0;
    unsigned max_attempts = 1;
    std::string journal_path;

    auto next_arg = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            die(std::string("missing value for ") + argv[i]);
        return argv[++i];
    };
    // Numeric values: decimal digits only, within [min, max] (the range
    // of the field they set); anything else is a usage error.
    constexpr std::uint64_t max_unsigned =
        std::numeric_limits<unsigned>::max();
    constexpr std::uint64_t max_u64 =
        std::numeric_limits<std::uint64_t>::max();
    auto number_arg = [&](int &i, std::uint64_t min, std::uint64_t max) {
        const std::string flag = argv[i];
        try {
            return parseUnsigned(next_arg(i), flag, min, max);
        } catch (const std::invalid_argument &e) {
            die(e.what());
        }
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--version") {
            std::printf("ctcpsim %s\n", CTCP_VERSION);
            return 0;
        } else if (arg == "--list") {
            for (const auto &info : workloads::all())
                std::printf("%-12s %-8s %s\n", info.name.c_str(),
                            info.suite == workloads::Suite::SpecInt
                                ? "specint" : "media",
                            info.description.c_str());
            return 0;
        } else if (arg == "--bench") {
            bench = next_arg(i);
        } else if (arg == "--instructions") {
            instructions = number_arg(i, 0, max_u64);
        } else if (arg == "--strategy") {
            const std::string s = next_arg(i);
            if (s == "base")
                cfg.assign.strategy = AssignStrategy::BaseSlotOrder;
            else if (s == "friendly")
                cfg.assign.strategy = AssignStrategy::Friendly;
            else if (s == "fdrt")
                cfg.assign.strategy = AssignStrategy::Fdrt;
            else if (s == "issue-time")
                cfg.assign.strategy = AssignStrategy::IssueTime;
            else if (s == "adaptive")
                cfg.assign.strategy = AssignStrategy::Adaptive;
            else
                die("unknown strategy '" + s + "'");
        } else if (arg == "--adaptive-interval") {
            cfg.assign.adaptiveInterval = number_arg(i, 0, max_u64);
        } else if (arg == "--issue-latency") {
            cfg.assign.issueTimeLatency =
                static_cast<unsigned>(number_arg(i, 0, max_unsigned));
        } else if (arg == "--no-pinning") {
            cfg.assign.fdrtPinning = false;
        } else if (arg == "--no-chains") {
            cfg.assign.fdrtChains = false;
        } else if (arg == "--middle-bias") {
            cfg.assign.friendlyMiddleBias = true;
        } else if (arg == "--clusters") {
            clusters =
                static_cast<unsigned>(number_arg(i, 0, max_unsigned));
            clusters_set = true;
        } else if (arg == "--cluster-width") {
            cluster_width =
                static_cast<unsigned>(number_arg(i, 0, max_unsigned));
            cluster_width_set = true;
        } else if (arg == "--hop-latency") {
            cfg.cluster.hopLatency =
                static_cast<unsigned>(number_arg(i, 0, max_unsigned));
        } else if (arg == "--topology") {
            const std::string t = next_arg(i);
            if (!parseTopology(t, cfg.cluster.topology))
                die("unknown topology '" + t + "'");
        } else if (arg == "--preset") {
            const std::string preset = next_arg(i);
            const PresetFactory make = presetFactory(preset);
            if (!make)
                die("unknown preset '" + preset + "'");
            AssignConfig keep = cfg.assign;
            cfg = make();
            cfg.assign.strategy = keep.strategy;
            cfg.assign.fdrtPinning = keep.fdrtPinning;
            cfg.assign.fdrtChains = keep.fdrtChains;
        } else if (arg == "--campaign") {
            campaign_matrix = next_arg(i);
            campaign_set = true;
        } else if (arg == "--jobs") {
            try {
                campaign_jobs = campaign::parseWorkerCount(next_arg(i));
            } catch (const std::invalid_argument &e) {
                die(e.what());
            }
        } else if (arg == "--out") {
            out_path = next_arg(i);
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--host-timing") {
            host_timing = true;
        } else if (arg == "--trace-events") {
            trace_events = next_arg(i);
        } else if (arg == "--trace-text") {
            trace_text = next_arg(i);
        } else if (arg == "--trace-filter") {
            trace_filter = next_arg(i);
            try {
                ObsSink::parseFilter(trace_filter);   // fail fast
            } catch (const std::invalid_argument &e) {
                die(e.what());
            }
        } else if (arg == "--interval-stats") {
            interval_stats = next_arg(i);
        } else if (arg == "--interval") {
            try {
                interval_cycles = parseIntervalCycles(next_arg(i));
            } catch (const std::invalid_argument &e) {
                die(e.what());
            }
        } else if (arg == "--accounting") {
            accounting = true;
        } else if (arg == "--report") {
            report_path = next_arg(i);
            accounting = true;     // a report needs the taxonomy
        } else if (arg == "--check-invariants") {
            robust.checkLevel = 1;
        } else if (arg == "--watchdog") {
            robust.watchdogCycles = number_arg(i, 0, max_u64);
            robust.watchdogSet = true;
        } else if (arg == "--deadline") {
            char *end = nullptr;
            const char *text = next_arg(i);
            deadline_seconds = std::strtod(text, &end);
            if (end == text || *end != '\0' || deadline_seconds < 0.0)
                die(std::string("invalid --deadline '") + text + "'");
        } else if (arg == "--max-attempts") {
            max_attempts =
                static_cast<unsigned>(number_arg(i, 1, max_unsigned));
        } else if (arg == "--journal") {
            journal_path = next_arg(i);
        } else if (arg == "--zero-fwd") {
            cfg.ablation.zeroAllForwardLatency = true;
        } else if (arg == "--zero-crit-fwd") {
            cfg.ablation.zeroCriticalForwardLatency = true;
        } else if (arg == "--zero-intra-fwd") {
            cfg.ablation.zeroIntraTraceForwardLatency = true;
        } else if (arg == "--zero-inter-fwd") {
            cfg.ablation.zeroInterTraceForwardLatency = true;
        } else if (arg == "--zero-rf") {
            cfg.ablation.zeroRegisterFileLatency = true;
        } else {
            die("unknown option '" + arg + "'");
        }
    }

    if (campaign_set) {
        campaign::Options options;
        options.jobs = campaign_jobs;
        options.traceEventsDir = trace_events;
        options.traceFilter = trace_filter;
        options.intervalDir = interval_stats;
        if (!interval_stats.empty())
            options.intervalCycles = interval_cycles;
        options.jobDeadlineSeconds = deadline_seconds;
        options.maxAttempts = max_attempts;
        options.journalPath = journal_path;
        options.accounting = accounting;
        return runCampaignMode(campaign_matrix, options, out_path,
                               report_path, host_timing, robust);
    }
    if (!journal_path.empty())
        die("--journal requires --campaign");

    if (clusters_set || cluster_width_set)
        applyMachineScale(
            cfg, clusters_set ? clusters : cfg.cluster.numClusters,
            cluster_width_set ? cluster_width
                              : cfg.cluster.clusterWidth);
    cfg.instructionLimit = instructions;
    cfg.checkLevel = robust.checkLevel;
    if (robust.watchdogSet)
        cfg.watchdogCycles = robust.watchdogCycles;
    cfg.deadlineSeconds = deadline_seconds;
    cfg.obs.traceEventsPath = trace_events;
    cfg.obs.traceTextPath = trace_text;
    cfg.obs.traceFilter = trace_filter;
    cfg.obs.intervalPath = interval_stats;
    if (!interval_stats.empty())
        cfg.obs.intervalCycles = interval_cycles;
    cfg.obs.accounting = accounting;

    if (!workloads::exists(bench))
        die("unknown benchmark '" + bench + "' (see --list)");
    try {
        cfg.validate();
    } catch (const SimError &e) {
        die(e.what());
    }

    Program prog = workloads::build(bench);
    try {
        CtcpSimulator sim(cfg, prog);
        SimResult r = sim.run();
        if (json)
            std::printf("%s",
                        r.toJson(host_timing, accounting).c_str());
        else
            std::printf("%s", r.statsText.c_str());
        if (!report_path.empty()) {
            // Sparklines need the CSV flavor of --interval-stats.
            const bool csv_intervals = !interval_stats.empty() &&
                (interval_stats.size() < 5 ||
                 interval_stats.compare(interval_stats.size() - 5, 5,
                                        ".json") != 0);
            writeHtmlReport(r.toJson(host_timing, true),
                            csv_intervals ? interval_stats : "",
                            report_path, "ctcpsim run report: " + bench);
        }
        if (host_timing && !json)
            std::fprintf(stderr,
                         "host: %.3fs, %.0f sim insts/s\n",
                         r.hostSeconds, r.simInstsPerHostSecond());
    } catch (const SimError &e) {
        if (e.category() == ErrorCategory::Config)
            die(e.what());
        std::fprintf(stderr, "ctcpsim: %s error: %s\n",
                     errorCategoryName(e.category()), e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ctcpsim: simulation failed: %s\n",
                     e.what());
        return 1;
    }
    return 0;
}
