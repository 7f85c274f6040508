/**
 * @file
 * ctcp_compare — campaign regression comparator.
 *
 * Diffs a candidate run/campaign JSON report against a baseline under
 * per-metric relative tolerances and prints a delta table. Exits 0
 * when every metric is within tolerance and the reports are
 * structurally identical, 1 on drift — made for CI gates against
 * committed golden reports.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/parse_number.hh"
#include "obs/compare.hh"
#include "obs/report.hh"

namespace {

void
usage(const char *prog)
{
    std::printf(
        "usage: %s BASELINE.json CANDIDATE.json [options]\n"
        "\n"
        "  --tol PCT             default relative tolerance in percent\n"
        "                        for every metric (default 0: exact)\n"
        "  --tol-metric NAME=PCT per-metric tolerance override, e.g.\n"
        "                        --tol-metric ipc=0.5; repeatable\n"
        "  -q, --quiet           print nothing when the reports match\n"
        "\n"
        "exit status:\n"
        "  0  reports match within tolerance\n"
        "  1  metric drift or structural mismatch (table on stdout),\n"
        "     or unreadable/malformed input\n"
        "  2  usage error\n",
        prog);
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "ctcp_compare: %s (try --help)\n", msg.c_str());
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** A tolerance in percent: a plain decimal, so nan, inf, -0 and 1e3
 *  exit 2 with @p flag named. */
double
parsePct(const std::string &text, const std::string &flag)
{
    try {
        return ctcp::parseDecimal(text, flag + " value");
    } catch (const std::invalid_argument &e) {
        die(e.what());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string base_path;
    std::string cand_path;
    ctcp::report::Tolerances tol;
    bool quiet = false;

    auto next_arg = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            die(std::string("missing value for ") + argv[i]);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--tol") {
            tol.defaultRelPct = parsePct(next_arg(i), "--tol");
        } else if (arg == "--tol-metric") {
            const std::string spec = next_arg(i);
            const std::size_t eq = spec.find('=');
            if (eq == std::string::npos || eq == 0)
                die("invalid --tol-metric '" + spec +
                    "' (expected NAME=PCT)");
            tol.perMetric[spec.substr(0, eq)] =
                parsePct(spec.substr(eq + 1), "--tol-metric");
        } else if (arg == "-q" || arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            die("unknown option '" + arg + "'");
        } else if (base_path.empty()) {
            base_path = arg;
        } else if (cand_path.empty()) {
            cand_path = arg;
        } else {
            die("unexpected extra argument '" + arg + "'");
        }
    }
    if (base_path.empty() || cand_path.empty())
        die("expected a baseline and a candidate report path");

    ctcp::report::Comparison cmp;
    try {
        const ctcp::report::ReportView baseline =
            ctcp::report::fromJsonText(readFile(base_path));
        const ctcp::report::ReportView candidate =
            ctcp::report::fromJsonText(readFile(cand_path));
        cmp = ctcp::report::compareReports(baseline, candidate, tol);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ctcp_compare: %s\n", e.what());
        return 1;
    }
    if (cmp.ok()) {
        if (!quiet)
            std::printf("%s",
                        ctcp::report::renderDeltaTable(cmp).c_str());
        return 0;
    }
    std::printf("ctcp_compare: %s vs %s\n%s", base_path.c_str(),
                cand_path.c_str(),
                ctcp::report::renderDeltaTable(cmp).c_str());
    return 1;
}
