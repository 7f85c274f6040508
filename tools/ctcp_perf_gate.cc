/**
 * @file
 * ctcp_perf_gate — simulator throughput regression gate.
 *
 * Compares a candidate BENCH_throughput.json against a baseline (the
 * checked-in one) and fails when a mode's headline throughput
 * (sim_insts_per_host_second, the median across measured reps) drops
 * by more than the allowed percentage. Made for CI: absolute
 * insts/s varies with the runner, but a large relative drop on the
 * same machine within one job is a real regression signal.
 *
 * Only regressions fail the gate; speedups and baseline modes missing
 * from the candidate (or vice versa) are reported but pass, so the
 * gate never blocks adding or renaming benchmark modes.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace {

void
usage(const char *prog)
{
    std::printf(
        "usage: %s BASELINE.json CANDIDATE.json [options]\n"
        "\n"
        "  --max-regress PCT  maximum allowed throughput drop in percent\n"
        "                     (default 15)\n"
        "  --mode NAME        gate only this mode; repeatable\n"
        "                     (default: tracing_off)\n"
        "\n"
        "exit status:\n"
        "  0  every gated mode within the allowed drop\n"
        "  1  regression beyond the threshold, or a gated mode missing\n"
        "     a usable rate in both files\n"
        "  2  usage error or unreadable/malformed input\n",
        prog);
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "ctcp_perf_gate: %s\n", msg.c_str());
    std::exit(2);
}

ctcp::json::Document
loadJson(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        die("cannot open '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    try {
        return ctcp::json::parse(text.str());
    } catch (const std::exception &e) {
        die("malformed '" + path + "': " + e.what());
    }
}

/** Headline rate for one mode; 0 when the mode is absent. */
double
modeRate(const ctcp::json::Value &doc, const std::string &mode_name)
{
    const auto modes = doc.find("modes");
    if (!modes)
        return 0.0;
    for (const ctcp::json::Value m : modes->items()) {
        if (m.str("name") == mode_name)
            return m.num("sim_insts_per_host_second");
    }
    return 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string base_path;
    std::string cand_path;
    double max_regress_pct = 15.0;
    std::vector<std::string> gated_modes;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--max-regress") {
            if (++i >= argc)
                die("--max-regress needs a value");
            char *end = nullptr;
            max_regress_pct = std::strtod(argv[i], &end);
            if (end == argv[i] || *end != '\0' || max_regress_pct < 0.0)
                die(std::string("invalid --max-regress value '") +
                    argv[i] + "'");
        } else if (arg == "--mode") {
            if (++i >= argc)
                die("--mode needs a name");
            gated_modes.emplace_back(argv[i]);
        } else if (!arg.empty() && arg[0] == '-') {
            die("unknown option '" + arg + "'");
        } else if (base_path.empty()) {
            base_path = arg;
        } else if (cand_path.empty()) {
            cand_path = arg;
        } else {
            die("unexpected argument '" + arg + "'");
        }
    }
    if (cand_path.empty()) {
        usage(argv[0]);
        return 2;
    }
    if (gated_modes.empty())
        gated_modes.emplace_back("tracing_off");

    const ctcp::json::Document baseline = loadJson(base_path);
    const ctcp::json::Document candidate = loadJson(cand_path);

    bool failed = false;
    for (const std::string &mode : gated_modes) {
        const double base = modeRate(baseline, mode);
        const double cand = modeRate(candidate, mode);
        if (base <= 0.0 && cand <= 0.0) {
            std::printf("%-18s missing in both files        FAIL\n",
                        mode.c_str());
            failed = true;
            continue;
        }
        if (base <= 0.0) {
            std::printf("%-18s no baseline rate (new mode)  pass\n",
                        mode.c_str());
            continue;
        }
        if (cand <= 0.0) {
            std::printf("%-18s missing from candidate       FAIL\n",
                        mode.c_str());
            failed = true;
            continue;
        }
        const double delta_pct = 100.0 * (cand - base) / base;
        const bool ok = delta_pct >= -max_regress_pct;
        std::printf("%-18s %10.0f -> %10.0f insts/s  %+6.1f%%  "
                    "(limit -%.1f%%)  %s\n",
                    mode.c_str(), base, cand, delta_pct, max_regress_pct,
                    ok ? "pass" : "FAIL");
        if (!ok)
            failed = true;
    }
    return failed ? 1 : 0;
}
