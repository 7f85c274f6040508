/**
 * @file
 * ctcpctl — CLI client for the ctcpd daemon.
 *
 * Wraps the unix-socket HTTP API in subcommands: submit a campaign
 * spec, watch its event stream (the raw campaign journal), fetch the
 * final report (byte-identical to `ctcpsim --campaign`), render the
 * live HTML report, cancel, and poll daemon stats.
 *
 * Exit status: 0 success, 1 daemon-side failure (HTTP error status,
 * run ended cancelled/errored), 2 usage or transport error.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/json.hh"
#include "common/parse_number.hh"
#include "common/version.hh"
#include "service/client.hh"
#include "service/http.hh"

namespace {

using ctcp::service::HttpResponse;

std::string g_socket;

void
usage(const char *prog)
{
    std::printf(
        "usage: %s --socket PATH COMMAND [args]\n"
        "\n"
        "commands:\n"
        "  ping                       check the daemon is alive\n"
        "  stats [--json]             pool / run / cache counters as\n"
        "                             an aligned table (--json: the\n"
        "                             daemon's raw JSON)\n"
        "  top [--interval S]         live metrics dashboard polling\n"
        "      [--iterations N]       GET /v1/metrics every S seconds\n"
        "                             (default 2; N=0 runs forever)\n"
        "  submit SPECFILE            submit a campaign matrix spec\n"
        "                             (- reads stdin); prints the run\n"
        "                             id. Options: --accounting,\n"
        "                             --max-attempts N, --deadline S,\n"
        "                             --trace-id ID (sent as the\n"
        "                             X-Ctcp-Trace-Id correlation id;\n"
        "                             the daemon mints one otherwise)\n"
        "  list                       status of every run\n"
        "  status ID                  status of one run\n"
        "  events ID [--follow]       print journal records from the\n"
        "                             run; --follow streams until the\n"
        "                             run finishes\n"
        "  cancel ID                  request cancellation\n"
        "  wait ID [--timeout S]      block until the run finishes\n"
        "  report ID [--csv]          final aggregated report\n"
        "         [--host-timing]     (byte-identical to the batch\n"
        "         [--out FILE]        path); 1 while not finished\n"
        "  html ID --out FILE         live HTML report snapshot\n"
        "\n"
        "--version prints the version and exits.\n"
        "exit status: 0 ok, 1 daemon-side failure, 2 usage/transport\n",
        prog);
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "ctcpctl: %s\n", msg.c_str());
    std::exit(2);
}

/** One exchange; transport failures exit 2 with a diagnostic. */
HttpResponse
request(const std::string &method, const std::string &target,
        const std::string &body = std::string(),
        const ctcp::service::ClientOptions &options = {})
{
    HttpResponse resp;
    std::string error;
    if (!ctcp::service::httpRequest(g_socket, method, target, body,
                                    options, resp, error))
        die(error);
    return resp;
}

/** Report a non-2xx response on stderr and return exit code 1. */
int
failFrom(const HttpResponse &resp)
{
    // Error bodies are {"error": "..."} — surface just the message.
    std::string message = resp.body;
    try {
        const ctcp::json::Value doc = ctcp::json::parse(resp.body);
        if (doc.isObject() && doc.find("error"))
            message = doc.str("error");
    } catch (const std::exception &) {
        // Not JSON; print the body as-is.
    }
    std::fprintf(stderr, "ctcpctl: HTTP %d: %s\n", resp.status,
                 message.c_str());
    return 1;
}

bool
writeOut(const std::string &path, const std::string &bytes)
{
    if (path.empty() || path == "-") {
        std::fwrite(bytes.data(), 1, bytes.size(), stdout);
        return true;
    }
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out) {
        std::fprintf(stderr, "ctcpctl: cannot write %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

/** A numeric flag value; anything but an unsigned decimal exits 2. */
unsigned
unsignedArg(const std::string &text, const std::string &flag)
{
    try {
        return static_cast<unsigned>(ctcp::parseUnsigned(
            text, flag, 0, std::numeric_limits<unsigned>::max()));
    } catch (const std::invalid_argument &e) {
        die(e.what());
    }
}

/** A seconds value, parsed as strictly as the daemon parses it. */
double
parseSeconds(const std::string &text, const std::string &what)
{
    try {
        return ctcp::parseDecimal(text, what);
    } catch (const std::invalid_argument &e) {
        die(e.what());
    }
}

/**
 * Sum every sample of @p family in a Prometheus exposition,
 * optionally keeping only lines containing @p labelFilter (e.g.
 * "state=\"running\""). Histograms are not addressable this way —
 * their sample names carry _bucket/_sum/_count suffixes.
 */
double
metricSum(const std::string &text, const std::string &family,
          const std::string &labelFilter = std::string())
{
    double total = 0.0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.compare(0, family.size(), family) != 0 ||
            line.size() <= family.size())
            continue;
        const char next = line[family.size()];
        if (next != ' ' && next != '{')
            continue;
        if (!labelFilter.empty() &&
            line.find(labelFilter) == std::string::npos)
            continue;
        const std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos)
            continue;
        total += std::strtod(line.c_str() + sp + 1, nullptr);
    }
    return total;
}

/** Live dashboard over GET /v1/metrics. */
int
cmdTop(double intervalSeconds, unsigned iterations)
{
    // Only a real terminal gets the ANSI clear, so `top --iterations 1`
    // stays greppable in scripts and CI.
    const bool tty = ::isatty(STDOUT_FILENO) != 0;
    for (unsigned frame = 0; iterations == 0 || frame < iterations;
         ++frame) {
        if (frame)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(intervalSeconds));
        const HttpResponse resp = request("GET", "/v1/metrics");
        if (resp.status != 200)
            return failFrom(resp);
        const std::string &m = resp.body;
        if (tty)
            std::printf("\033[H\033[2J");
        std::printf("ctcpd @ %s\n", g_socket.c_str());
        std::printf(
            "  runs     queued %.0f  running %.0f  done %.0f  "
            "cancelled %.0f  error %.0f\n",
            metricSum(m, "ctcpd_runs", "state=\"queued\""),
            metricSum(m, "ctcpd_runs", "state=\"running\""),
            metricSum(m, "ctcpd_runs", "state=\"done\""),
            metricSum(m, "ctcpd_runs", "state=\"cancelled\""),
            metricSum(m, "ctcpd_runs", "state=\"error\""));
        std::printf(
            "  pool     %.0f/%.0f workers busy, %.0f queued, "
            "%.0f tasks executed\n",
            metricSum(m, "ctcpd_pool_busy_workers"),
            metricSum(m, "ctcpd_pool_workers"),
            metricSum(m, "ctcpd_pool_queue_depth"),
            metricSum(m, "ctcpd_pool_jobs_executed_total"));
        std::printf(
            "  jobs     %.0f completed, %.0f retried, %.0f failed\n",
            metricSum(m, "ctcpd_jobs_completed_total"),
            metricSum(m, "ctcpd_jobs_retried_total"),
            metricSum(m, "ctcpd_jobs_failed_total"));
        std::printf(
            "  cache    %.0f hits, %.0f misses, %.0f evictions, "
            "%.0f entries\n",
            metricSum(m, "ctcpd_workload_cache_hits_total"),
            metricSum(m, "ctcpd_workload_cache_misses_total"),
            metricSum(m, "ctcpd_workload_cache_evictions_total"),
            metricSum(m, "ctcpd_workload_cache_entries"));
        std::printf(
            "  http     %.0f requests, %.0f active, %.0f body bytes "
            "out\n",
            metricSum(m, "ctcpd_http_requests_total"),
            metricSum(m, "ctcpd_http_active_connections"),
            metricSum(m, "ctcpd_http_response_bytes_total"));
        std::printf("  journal  %.0f bytes\n",
                    metricSum(m, "ctcpd_journal_bytes"));
        std::fflush(stdout);
    }
    return 0;
}

/** `stats` as an aligned table (the default; --json = raw body). */
int
cmdStatsTable(const std::string &body)
{
    try {
        const ctcp::json::Value doc = ctcp::json::parse(body);
        const ctcp::json::Value *cache = doc.find("workloadCache");
        if (!doc.isObject() || !cache || !cache->isObject())
            throw std::runtime_error("not a stats object");
        const auto row = [](const char *name, double v) {
            std::printf("%-16s %llu\n", name,
                        static_cast<unsigned long long>(v));
        };
        row("workers", doc.num("workers"));
        row("runs", doc.num("runs"));
        row("cache hits", cache->num("hits"));
        row("cache misses", cache->num("misses"));
        row("cache evictions", cache->num("evictions"));
        row("cache entries", cache->num("entries"));
    } catch (const std::exception &) {
        die("malformed stats response: " + body);
    }
    return 0;
}

int
cmdSubmit(const std::vector<std::string> &args)
{
    std::string spec_path;
    std::string query;
    ctcp::service::ClientOptions client;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--accounting") {
            query += query.empty() ? "?" : "&";
            query += "accounting=1";
        } else if (args[i] == "--max-attempts" && i + 1 < args.size()) {
            unsignedArg(args[i + 1], "--max-attempts");
            query += query.empty() ? "?" : "&";
            query += "max_attempts=" + args[++i];
        } else if (args[i] == "--deadline" && i + 1 < args.size()) {
            parseSeconds(args[i + 1], "--deadline value");
            query += query.empty() ? "?" : "&";
            query += "deadline=" + args[++i];
        } else if (args[i] == "--trace-id" && i + 1 < args.size()) {
            client.headers.emplace_back(ctcp::service::traceIdHeader,
                                        args[++i]);
        } else if (!args[i].empty() && args[i][0] == '-' &&
                   args[i] != "-") {
            die("unknown submit option '" + args[i] + "'");
        } else if (spec_path.empty()) {
            spec_path = args[i];
        } else {
            die("submit takes one spec file");
        }
    }
    if (spec_path.empty())
        die("submit needs a spec file (or - for stdin)");

    std::string spec;
    if (spec_path == "-") {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        spec = buffer.str();
    } else {
        std::ifstream in(spec_path, std::ios::binary);
        if (!in)
            die("cannot read spec file '" + spec_path + "'");
        std::ostringstream buffer;
        buffer << in.rdbuf();
        spec = buffer.str();
    }
    // Spec files may use one clause per line; the matrix grammar is
    // semicolon-separated and skips empty clauses, so newlines map
    // cleanly onto ';'. The daemon then sees the exact one-line spec
    // you would pass to `ctcpsim --campaign`.
    for (char &c : spec)
        if (c == '\n' || c == '\r')
            c = ';';

    const HttpResponse resp =
        request("POST", "/v1/runs" + query, spec, client);
    if (resp.status != 201)
        return failFrom(resp);
    try {
        const ctcp::json::Value doc = ctcp::json::parse(resp.body);
        std::printf("%s\n", doc.str("id").c_str());
    } catch (const std::exception &) {
        die("malformed submit response: " + resp.body);
    }
    return 0;
}

int
cmdEvents(const std::string &id, bool follow)
{
    std::uint64_t offset = 0;
    for (;;) {
        std::string target = "/v1/runs/" + id +
            "/events?from=" + std::to_string(offset);
        if (follow)
            target += "&wait=10";
        const HttpResponse resp = request("GET", target);
        if (resp.status != 200)
            return failFrom(resp);

        std::fwrite(resp.body.data(), 1, resp.body.size(), stdout);
        std::fflush(stdout);

        std::string next, state;
        for (const auto &h : resp.headers) {
            // parseResponse lower-cases header names.
            if (h.first == "x-ctcp-next-offset")
                next = h.second;
            else if (h.first == "x-ctcp-run-state")
                state = h.second;
        }
        try {
            offset = ctcp::parseUnsigned(next, "X-Ctcp-Next-Offset");
        } catch (const std::invalid_argument &e) {
            std::fprintf(stderr, "ctcpctl: malformed events response: %s\n",
                         e.what());
            return 1;
        }

        const bool terminal = state == "done" || state == "cancelled" ||
            state == "error";
        if (!follow || (terminal && resp.body.empty()))
            return state == "error" || state == "cancelled" ? 1 : 0;
    }
}

int
cmdWait(const std::string &id, double timeoutSeconds)
{
    // The server caps one ?wait at its long-poll ceiling; loop client
    // side so arbitrarily long campaigns can be awaited.
    double remaining = timeoutSeconds;
    for (;;) {
        const double slice =
            timeoutSeconds <= 0 ? 10.0 : std::min(remaining, 10.0);
        const HttpResponse resp = request(
            "GET", "/v1/runs/" + id + "?wait=" + std::to_string(slice));
        if (resp.status != 200)
            return failFrom(resp);
        try {
            const ctcp::json::Value doc = ctcp::json::parse(resp.body);
            const std::string state = doc.str("state");
            if (state == "done") {
                std::printf("%s\n", resp.body.c_str());
                return 0;
            }
            if (state == "cancelled" || state == "error") {
                std::printf("%s\n", resp.body.c_str());
                return 1;
            }
        } catch (const std::exception &) {
            die("malformed status response: " + resp.body);
        }
        if (timeoutSeconds > 0) {
            remaining -= slice;
            if (remaining <= 0) {
                std::fprintf(stderr,
                             "ctcpctl: run %s still active after %g "
                             "seconds\n",
                             id.c_str(), timeoutSeconds);
                return 1;
            }
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string command;
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--version") {
            std::printf("ctcpctl %s\n", CTCP_VERSION);
            return 0;
        } else if (arg == "--socket") {
            if (i + 1 >= argc)
                die("missing value for --socket");
            g_socket = argv[++i];
        } else if (command.empty()) {
            command = arg;
        } else {
            args.push_back(arg);
        }
    }
    if (command.empty()) {
        usage(argv[0]);
        return 2;
    }
    if (g_socket.empty())
        die("--socket is required");

    auto flag = [&](const std::string &name) {
        for (const auto &a : args)
            if (a == name)
                return true;
        return false;
    };
    auto value = [&](const std::string &name,
                     const std::string &fallback) {
        for (std::size_t i = 0; i + 1 < args.size(); ++i)
            if (args[i] == name)
                return args[i + 1];
        return fallback;
    };
    auto positional = [&]() -> std::string {
        for (const auto &a : args)
            if (a.empty() || a[0] != '-')
                return a;
        return std::string();
    };

    if (command == "ping") {
        const HttpResponse resp = request("GET", "/v1/ping");
        if (resp.status != 200)
            return failFrom(resp);
        std::printf("%s\n", resp.body.c_str());
        return 0;
    }
    if (command == "stats") {
        const HttpResponse resp = request("GET", "/v1/stats");
        if (resp.status != 200)
            return failFrom(resp);
        if (flag("--json")) {
            std::printf("%s\n", resp.body.c_str());
            return 0;
        }
        return cmdStatsTable(resp.body);
    }
    if (command == "top")
        return cmdTop(parseSeconds(value("--interval", "2"),
                                   "--interval value"),
                      unsignedArg(value("--iterations", "0"),
                                  "--iterations"));
    if (command == "submit")
        return cmdSubmit(args);
    if (command == "list") {
        const HttpResponse resp = request("GET", "/v1/runs");
        if (resp.status != 200)
            return failFrom(resp);
        std::printf("%s\n", resp.body.c_str());
        return 0;
    }

    // Everything below addresses one run.
    const std::string id = positional();
    if (id.empty())
        die(command + " needs a run id");

    if (command == "status") {
        const HttpResponse resp = request("GET", "/v1/runs/" + id);
        if (resp.status != 200)
            return failFrom(resp);
        std::printf("%s\n", resp.body.c_str());
        return 0;
    }
    if (command == "events")
        return cmdEvents(id, flag("--follow"));
    if (command == "cancel") {
        const HttpResponse resp =
            request("POST", "/v1/runs/" + id + "/cancel");
        if (resp.status != 202)
            return failFrom(resp);
        std::printf("%s\n", resp.body.c_str());
        return 0;
    }
    if (command == "wait")
        return cmdWait(id, parseSeconds(value("--timeout", "0"),
                                        "--timeout"));
    if (command == "report") {
        std::string target = "/v1/runs/" + id + "/report";
        target += flag("--csv") ? "?format=csv" : "?format=json";
        if (flag("--host-timing"))
            target += "&host_timing=1";
        const HttpResponse resp = request("GET", target);
        if (resp.status != 200)
            return failFrom(resp);
        return writeOut(value("--out", "-"), resp.body) ? 0 : 2;
    }
    if (command == "html") {
        const std::string out = value("--out", "");
        if (out.empty())
            die("html needs --out FILE");
        const HttpResponse resp =
            request("GET", "/v1/runs/" + id + "/html");
        if (resp.status != 200)
            return failFrom(resp);
        return writeOut(out, resp.body) ? 0 : 2;
    }

    die("unknown command '" + command + "'");
}
