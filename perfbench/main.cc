/**
 * @file
 * The repository benchmark's program.
 *
 *   perfbench --workload fig6|observed|sweep-daemon --seed N
 *             --seconds S --trace 0|1
 *
 * --trace 0 repeats the workload for S seconds with tracing off and
 * reports the end-to-end metrics; --trace 1 makes one traced pass and
 * reports the per-layer metrics. Every job of every repetition is
 * checked (see NOTES.md). Human-readable lines and one full JSON
 * record (seed, host provenance, sample counts) go first; the last
 * stdout line is the result object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Exit codes: 0 every job passed, 1 a job failed, 2 bad arguments.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "func/executor.hh"
#include "perfbench/perfbench.hh"
#include "workload/workload.hh"

namespace {

using namespace ctcp;
using namespace ctcp::perfbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload fig6|observed|sweep-daemon "
                 "--seed N --seconds S --trace 0|1\n",
                 why.c_str());
    std::exit(2);
}

/** Digits only, no sign, no trailing characters, no overflow. */
std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text,
              std::uint64_t max)
{
    if (text.empty() || text.size() > 20)
        usage(flag + " expects a non-negative integer, got '" + text + "'");
    std::uint64_t v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            usage(flag + " expects a non-negative integer, got '" + text +
                  "'");
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (digit > max || v > (max - digit) / 10)
            usage(flag + " value '" + text + "' is out of range");
        v = v * 10 + digit;
    }
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have[4] = {};
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            args.workload = value;
            have[0] = true;
        } else if (flag == "--seed") {
            args.seed = parseUnsigned(flag, value, UINT64_MAX);
            have[1] = true;
        } else if (flag == "--seconds") {
            args.seconds =
                static_cast<unsigned>(parseUnsigned(flag, value, 3600));
            if (args.seconds == 0)
                usage("--seconds must be at least 1");
            have[2] = true;
        } else if (flag == "--trace") {
            const std::uint64_t t = parseUnsigned(flag, value, 1);
            args.trace = t == 1;
            have[3] = true;
        } else {
            usage("unknown argument '" + flag + "'");
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        usage("--workload, --seed, --seconds and --trace are required");
    return args;
}

// ---- Provenance ----------------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    double one = 0.0, five = 0.0, fifteen = 0.0;
    in >> one >> five >> fifteen;
    char buf[64];
    std::snprintf(buf, sizeof buf, "[%.2f,%.2f,%.2f]", one, five, fifteen);
    return buf;
}

volatile std::uint64_t calibrationSink = 0;

/** Host calibration: ns per Executor::step on gzip (median of 5). */
double
calibrationNs()
{
    const Program program = workloads::build("gzip");
    std::vector<double> samples;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        Executor exec(program);
        DynInst d;
        constexpr int steps = 400000;
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < steps && exec.step(d); ++i)
            sink += d.pc;
        samples.push_back(secondsBetween(t0, Clock::now()) * 1e9 / steps);
    }
    calibrationSink = sink;
    return medianOf(samples);
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
distJson(const Dist &d)
{
    if (d.n == 0)
        return "null";
    std::string out = "{\"n\":" + std::to_string(d.n) +
        ",\"median\":" + number(d.median);
    if (d.tailRank > 0.0)
        out += ",\"p" + number(d.tailRank) + "\":" + number(d.tail);
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Workload workload;
    if (!findWorkload(args.workload, workload))
        usage("unknown workload '" + args.workload + "'");

#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: WARNING: built without optimisation "
                         "(%s); host timings are not representative\n",
                 PERFBENCH_BUILD_TYPE);
#endif

    const std::string load_start = loadAverage();
    const double calibration = calibrationNs();
    RunOutput out;
    bool crashed = false;
    try {
        out = args.trace ? tracedRun(workload, args)
                         : timedRun(workload, args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        crashed = true;
    }
    std::error_code ec;
    std::filesystem::remove_all(scratchDir(), ec);
    if (crashed)
        return 1;

    // Human-readable summary.
    std::printf("perfbench %s seed=%llu trace=%d: %llu jobs attempted, "
                "%llu failed\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0,
                static_cast<unsigned long long>(out.tally.attempted),
                static_cast<unsigned long long>(out.tally.failed));
    for (const std::string &why : out.tally.reasons)
        std::printf("  FAILED %s\n", why.c_str());
    for (const Metric &m : out.metrics) {
        std::printf("  %-34s %16.6g %s", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (m.dist.n > 0) {
            std::printf("  (median of %zu", m.dist.n);
            if (m.dist.tailRank > 0.0)
                std::printf(", p%g %.6g", m.dist.tailRank, m.dist.tail);
            std::printf(")");
        }
        std::printf("\n");
    }

    // Full record: provenance, seed, sample counts.
    const char *sha = std::getenv("PERFBENCH_GIT_SHA");
    std::string record = "{\"record\":{\"workload\":" +
        jsonString(args.workload) + ",\"seed\":" + std::to_string(args.seed) +
        ",\"trace\":" + (args.trace ? "1" : "0") +
        ",\"seconds\":" + std::to_string(args.seconds) +
        ",\"provenance\":{\"cpu\":" + jsonString(cpuModel()) +
        ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
        ",\"loadavg_start\":" + load_start +
        ",\"loadavg_end\":" + loadAverage() +
        ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) +
        ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
        ",\"git_sha\":" + jsonString(sha && *sha ? sha : "unknown") +
        ",\"calibration_func_step_ns\":" + number(calibration) + "}";
    for (const auto &[key, value] : out.detail)
        record += ",\"" + key + "\":" + value;
    record += ",\"metrics\":{";
    const char *sep = "";
    for (const Metric &m : out.metrics) {
        record += sep;
        record += jsonString(m.name) + ":{\"value\":" + number(m.value) +
            ",\"unit\":" + jsonString(m.unit) + ",\"dist\":" +
            distJson(m.dist) + "}";
        sep = ",";
    }
    record += "},\"failures\":[";
    sep = "";
    for (const std::string &why : out.tally.reasons) {
        record += sep;
        record += jsonString(why);
        sep = ",";
    }
    record += "]}}";
    std::printf("%s\n", record.c_str());

    // The result line.
    std::string result = std::string("{\"correct\": ") +
        (out.tally.failed == 0 ? "true" : "false") +
        ", \"attempted\": " + std::to_string(out.tally.attempted) +
        ", \"failed\": " + std::to_string(out.tally.failed) +
        ", \"metrics\": {";
    sep = "";
    for (const Metric &m : out.metrics) {
        result += sep;
        result += jsonString(m.name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + jsonString(m.unit) + "}";
        sep = ", ";
    }
    result += "}}";
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return out.tally.failed == 0 ? 0 : 1;
}
