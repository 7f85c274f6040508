/**
 * @file
 * Simulator throughput harness: measures host-side performance of the
 * simulator itself (not the simulated machine) on the Figure 6
 * workload mix — six benchmarks x five cluster-assignment configs —
 * and writes BENCH_throughput.json so successive PRs can track the
 * perf trajectory.
 *
 * Three modes are measured:
 *   tracing_off       — the default experiment configuration
 *   tracing_filtered  — observability tracing enabled with a
 *                       retire-only filter (the cheap always-on shape)
 *   accounting_on     — per-slot cycle accounting enabled
 *                       (--accounting); its overhead budget is <= 10%
 *                       over tracing_off
 *
 * Each mode runs one discarded warmup campaign (page cache, branch
 * predictors, allocator arenas) followed by `reps` measured campaigns;
 * the headline sim_insts_per_host_second is the median across reps,
 * with the mean reported alongside so outliers are visible.
 *
 * If the output file already exists, its `history` entries are carried
 * forward and a new timestamped entry is appended, so the checked-in
 * BENCH_throughput.json accumulates the perf trajectory across PRs.
 * The latest numbers always stay in the top-level `modes` array.
 *
 * Usage: perf_throughput [budget] [jobs] [out.json] [reps]
 *   budget  instructions per run (default 300000)
 *   jobs    campaign workers (default 1: serial, the stable number)
 *   out     output path (default BENCH_throughput.json)
 *   reps    measured campaigns per mode after warmup (default 3)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "config/presets.hh"
#include "workload/workload.hh"

namespace {

using namespace ctcp;

/** Instruction budget from argv (default 300k per run). */
std::uint64_t
budgetFromArgs(int argc, char **argv, std::uint64_t fallback = 300'000)
{
    if (argc > 1) {
        const std::uint64_t v = std::strtoull(argv[1], nullptr, 10);
        if (v > 0)
            return v;
    }
    return fallback;
}

/** Base config with a strategy applied. */
SimConfig
withStrategy(SimConfig cfg, AssignStrategy s, unsigned issue_latency = 4)
{
    cfg.assign.strategy = s;
    cfg.assign.issueTimeLatency = issue_latency;
    return cfg;
}

/** Standard header line for a harness. */
void
banner(const char *experiment, const char *paper_summary,
       std::uint64_t budget)
{
    std::printf("== %s ==\n", experiment);
    std::printf("paper reference: %s\n", paper_summary);
    std::printf("instructions per run: %llu\n\n",
                static_cast<unsigned long long>(budget));
}

std::vector<campaign::Job>
fig6Jobs(std::uint64_t budget)
{
    struct Mode
    {
        const char *label;
        AssignStrategy strategy;
        unsigned issueLatency;
    };
    const std::vector<Mode> modes = {
        {"base", AssignStrategy::BaseSlotOrder, 0},
        {"no-lat-issue", AssignStrategy::IssueTime, 0},
        {"issue-time", AssignStrategy::IssueTime, 4},
        {"fdrt", AssignStrategy::Fdrt, 0},
        {"friendly", AssignStrategy::Friendly, 0},
    };
    std::vector<campaign::Job> jobs;
    for (const std::string &bench : workloads::selectedSix()) {
        for (const Mode &m : modes) {
            SimConfig cfg = withStrategy(baseConfig(), m.strategy,
                                         m.issueLatency);
            cfg.instructionLimit = budget;
            jobs.push_back(campaign::makeJob(
                bench + "/" + std::string(m.label), bench,
                std::move(cfg)));
        }
    }
    return jobs;
}

/** One measured campaign execution. */
struct RepResult
{
    std::uint64_t simInstructions = 0;
    double wallSeconds = 0.0;
    double jobHostSeconds = 0.0;

    double
    instsPerSecond() const
    {
        return jobHostSeconds > 0.0
            ? static_cast<double>(simInstructions) / jobHostSeconds
            : 0.0;
    }
};

struct ModeResult
{
    std::string name;
    std::size_t runs = 0;
    std::uint64_t simInstructions = 0;
    std::vector<RepResult> reps;

    double
    medianInstsPerSecond() const
    {
        std::vector<double> rates;
        rates.reserve(reps.size());
        for (const RepResult &r : reps)
            rates.push_back(r.instsPerSecond());
        std::sort(rates.begin(), rates.end());
        if (rates.empty())
            return 0.0;
        const std::size_t n = rates.size();
        return n % 2 == 1 ? rates[n / 2]
                          : 0.5 * (rates[n / 2 - 1] + rates[n / 2]);
    }

    double
    meanInstsPerSecond() const
    {
        if (reps.empty())
            return 0.0;
        double sum = 0.0;
        for (const RepResult &r : reps)
            sum += r.instsPerSecond();
        return sum / static_cast<double>(reps.size());
    }

    /** Mean wall seconds across measured reps. */
    double
    meanWallSeconds() const
    {
        if (reps.empty())
            return 0.0;
        double sum = 0.0;
        for (const RepResult &r : reps)
            sum += r.wallSeconds;
        return sum / static_cast<double>(reps.size());
    }

    /** Mean per-job host seconds across measured reps. */
    double
    meanJobHostSeconds() const
    {
        if (reps.empty())
            return 0.0;
        double sum = 0.0;
        for (const RepResult &r : reps)
            sum += r.jobHostSeconds;
        return sum / static_cast<double>(reps.size());
    }
};

RepResult
runOnce(const std::string &name, const std::vector<campaign::Job> &matrix,
        const campaign::Options &options, std::size_t *runs_out)
{
    const auto start = std::chrono::steady_clock::now();
    const campaign::Report report = campaign::runCampaign(matrix, options);
    RepResult rep;
    rep.wallSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    std::size_t runs = 0;
    for (const campaign::JobOutcome &out : report.jobs) {
        if (!out.ok())
            ctcp_fatal("perf job '%s' failed: %s", out.label.c_str(),
                       out.error.c_str());
        ++runs;
        rep.simInstructions += out.result.instructions;
        rep.jobHostSeconds += out.result.hostSeconds;
    }
    if (runs_out != nullptr)
        *runs_out = runs;
    (void)name;
    return rep;
}

ModeResult
runMode(const std::string &name, std::uint64_t budget,
        const campaign::Options &options, unsigned reps)
{
    const std::vector<campaign::Job> matrix = fig6Jobs(budget);

    // Warmup campaign: first-touch costs (page cache, lazily built
    // workload programs, allocator growth) land here, not in a
    // measured rep. Discarded.
    runOnce(name, matrix, options, nullptr);

    ModeResult mode;
    mode.name = name;
    for (unsigned r = 0; r < reps; ++r) {
        std::size_t runs = 0;
        const RepResult rep = runOnce(name, matrix, options, &runs);
        mode.runs = runs;
        mode.simInstructions = rep.simInstructions;
        mode.reps.push_back(rep);
        std::printf("%-16s rep %u/%u  %9llu insts  %7.3fs wall  "
                    "%7.3fs jobs  %10.0f insts/s\n",
                    name.c_str(), r + 1, reps,
                    static_cast<unsigned long long>(rep.simInstructions),
                    rep.wallSeconds, rep.jobHostSeconds,
                    rep.instsPerSecond());
    }
    std::printf("%-16s median %10.0f insts/s  mean %10.0f insts/s\n",
                name.c_str(), mode.medianInstsPerSecond(),
                mode.meanInstsPerSecond());
    return mode;
}

std::string
modeJson(const ModeResult &m, bool last)
{
    char buf[768];
    std::snprintf(buf, sizeof(buf),
                  "    {\n"
                  "      \"name\": \"%s\",\n"
                  "      \"runs\": %zu,\n"
                  "      \"reps\": %zu,\n"
                  "      \"sim_instructions\": %llu,\n"
                  "      \"wall_seconds\": %.6f,\n"
                  "      \"job_host_seconds\": %.6f,\n"
                  "      \"sim_insts_per_host_second\": %.1f,\n"
                  "      \"median_insts_per_second\": %.1f,\n"
                  "      \"mean_insts_per_second\": %.1f\n"
                  "    }%s\n",
                  m.name.c_str(), m.runs, m.reps.size(),
                  static_cast<unsigned long long>(m.simInstructions),
                  m.meanWallSeconds(), m.meanJobHostSeconds(),
                  m.medianInstsPerSecond(), m.medianInstsPerSecond(),
                  m.meanInstsPerSecond(), last ? "" : ",");
    return buf;
}

/** Re-serialize a parsed JSON value (round-trips our own output). */
void
writeValue(std::ostringstream &out, const json::Value &v)
{
    using Kind = json::Kind;
    switch (v.kind()) {
      case Kind::Null:
        out << "null";
        break;
      case Kind::Bool:
        out << (v.asBool() ? "true" : "false");
        break;
      case Kind::Number:
        out << v.text();   // raw text: exact round-trip
        break;
      case Kind::String:
        out << '"';
        for (char c : v.text()) {
            if (c == '"' || c == '\\')
                out << '\\';
            out << c;
        }
        out << '"';
        break;
      case Kind::Array: {
        out << '[';
        bool first = true;
        for (const json::Value e : v.items()) {
            if (!first)
                out << ", ";
            first = false;
            writeValue(out, e);
        }
        out << ']';
        break;
      }
      case Kind::Object: {
        out << '{';
        bool first = true;
        for (const auto &[key, val] : v.members()) {
            if (!first)
                out << ", ";
            first = false;
            out << '"' << key << "\": ";
            writeValue(out, val);
        }
        out << '}';
        break;
      }
    }
}

/** Prior state recovered from an existing output file. */
struct PriorBench
{
    /** Compact one-line JSON per carried-forward history entry. */
    std::vector<std::string> historyLines;
    /** Most recent tracing_off rate on record (0 = none). */
    double lastTracingOff = 0.0;
    std::string lastTimestamp;
};

double
modeRate(const json::Value &doc, const std::string &mode_name)
{
    const auto modes = doc.find("modes");
    if (!modes)
        return 0.0;
    for (const json::Value m : modes->items()) {
        if (m.str("name") == mode_name)
            return m.num("sim_insts_per_host_second");
    }
    return 0.0;
}

PriorBench
priorFrom(const json::Value &doc)
{
    PriorBench prior;
    if (const auto history = doc.find("history")) {
        for (const json::Value entry : history->items()) {
            std::ostringstream line;
            writeValue(line, entry);
            prior.historyLines.push_back(line.str());
            prior.lastTracingOff = entry.num("tracing_off");
            prior.lastTimestamp = entry.str("timestamp");
        }
    }
    // A pre-history file (written before the history array existed)
    // still holds one measurement in its top-level modes; synthesize a
    // history entry from it so the old record survives the upgrade.
    const double top = modeRate(doc, "tracing_off");
    if (top > 0.0) {
        prior.lastTracingOff = top;
        if (const auto ts = doc.find("generated_at"); ts && ts->isString())
            prior.lastTimestamp = ts->text();
        if (prior.historyLines.empty()) {
            char line[512];
            std::snprintf(line, sizeof(line),
                          "{\"timestamp\": \"%s\", "
                          "\"budget_per_run\": %.0f, \"jobs\": %.0f, "
                          "\"tracing_off\": %.1f, "
                          "\"tracing_filtered\": %.1f, "
                          "\"accounting_on\": %.1f}",
                          prior.lastTimestamp.empty()
                              ? "pre-history"
                              : prior.lastTimestamp.c_str(),
                          doc.num("budget_per_run"), doc.num("jobs"),
                          top, modeRate(doc, "tracing_filtered"),
                          modeRate(doc, "accounting_on"));
            prior.historyLines.emplace_back(line);
        }
    }
    return prior;
}

PriorBench
loadPrior(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return {};
    std::ostringstream text;
    text << in.rdbuf();
    try {
        return priorFrom(json::parse(text.str()));
    } catch (const std::exception &e) {
        std::printf("note: ignoring unparsable %s (%s)\n", path.c_str(),
                    e.what());
        return {};
    }
}

std::string
isoTimestampUtc()
{
    const std::time_t now =
        std::chrono::system_clock::to_time_t(
            std::chrono::system_clock::now());
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

std::string
historyEntry(const std::string &timestamp, std::uint64_t budget,
             unsigned jobs, const ModeResult &off,
             const ModeResult &filtered, const ModeResult &accounted)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"timestamp\": \"%s\", \"budget_per_run\": %llu, "
                  "\"jobs\": %u, \"tracing_off\": %.1f, "
                  "\"tracing_filtered\": %.1f, \"accounting_on\": %.1f}",
                  timestamp.c_str(),
                  static_cast<unsigned long long>(budget), jobs,
                  off.medianInstsPerSecond(),
                  filtered.medianInstsPerSecond(),
                  accounted.medianInstsPerSecond());
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t budget = budgetFromArgs(argc, argv);
    // Serial by default: throughput numbers should not depend on how
    // many cores the measuring machine happens to have.
    unsigned jobs = 1;
    if (argc > 2)
        jobs = static_cast<unsigned>(std::strtoul(argv[2], nullptr, 10));
    if (jobs == 0)
        jobs = 1;
    const std::string out_path =
        argc > 3 ? argv[3] : "BENCH_throughput.json";
    unsigned reps = 3;
    if (argc > 4)
        reps = static_cast<unsigned>(std::strtoul(argv[4], nullptr, 10));
    if (reps == 0)
        reps = 1;

    banner("Simulator throughput (host-side)",
           "fig6 workload mix; sim-insts per host second", budget);
    std::printf("per mode: 1 warmup campaign (discarded) + %u measured\n\n",
                reps);

    const PriorBench prior = loadPrior(out_path);

    campaign::Options plain;
    plain.jobs = jobs;
    const ModeResult off = runMode("tracing_off", budget, plain, reps);

    // Tracing on, filtered down to retire events: the configuration a
    // user keeps enabled while still caring about simulator speed.
    namespace fs = std::filesystem;
    const fs::path trace_dir = fs::temp_directory_path() /
        ("ctcp_perf_traces_" + std::to_string(
            static_cast<unsigned long long>(budget)));
    fs::create_directories(trace_dir);
    campaign::Options traced = plain;
    traced.traceEventsDir = trace_dir.string();
    traced.traceFilter = "retire";
    const ModeResult filtered =
        runMode("tracing_filtered", budget, traced, reps);
    fs::remove_all(trace_dir);

    // Cycle accounting on: the bottleneck-attribution layer the HTML
    // reports are built from. Its cost over tracing_off is the number
    // the <= 10% overhead budget is judged against.
    campaign::Options counted = plain;
    counted.accounting = true;
    const ModeResult accounted =
        runMode("accounting_on", budget, counted, reps);
    if (off.medianInstsPerSecond() > 0.0)
        std::printf("accounting overhead: %.1f%%\n",
                    100.0 * (off.medianInstsPerSecond() -
                             accounted.medianInstsPerSecond()) /
                        off.medianInstsPerSecond());

    if (prior.lastTracingOff > 0.0) {
        std::printf("tracing_off vs previous entry%s%s: %.2fx "
                    "(%.0f -> %.0f insts/s)\n",
                    prior.lastTimestamp.empty() ? "" : " of ",
                    prior.lastTimestamp.c_str(),
                    off.medianInstsPerSecond() / prior.lastTracingOff,
                    prior.lastTracingOff, off.medianInstsPerSecond());
    }

    const std::string timestamp = isoTimestampUtc();

    std::string json = "{\n";
    json += "  \"harness\": \"perf_throughput\",\n";
    json += "  \"workload\": \"fig6-mix\",\n";
    json += "  \"generated_at\": \"" + timestamp + "\",\n";
    json += "  \"budget_per_run\": " + std::to_string(budget) + ",\n";
    json += "  \"jobs\": " + std::to_string(jobs) + ",\n";
    json += "  \"modes\": [\n";
    json += modeJson(off, false);
    json += modeJson(filtered, false);
    json += modeJson(accounted, true);
    json += "  ],\n";
    json += "  \"history\": [\n";
    for (const std::string &line : prior.historyLines)
        json += "    " + line + ",\n";
    json += "    " +
        historyEntry(timestamp, budget, jobs, off, filtered, accounted) +
        "\n";
    json += "  ]\n}\n";

    FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr)
        ctcp_fatal("cannot write '%s'", out_path.c_str());
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
    return 0;
}
