/**
 * @file
 * ctcpctl — CLI client for the ctcpd daemon.
 *
 * Wraps the unix-socket HTTP API in subcommands: submit a campaign
 * spec, watch its event stream (the raw campaign journal), fetch the
 * final report (byte-identical to `ctcpsim --campaign`), render the
 * live HTML report, and cancel.
 *
 * Exit status: 0 success, 1 daemon-side failure (HTTP error status,
 * run ended cancelled/errored), 2 usage or transport error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

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
        "  report ID [--host-timing]  final aggregated report JSON\n"
        "         [--out FILE]        (byte-identical to the batch\n"
        "                             path); 1 while not finished\n"
        "  html ID --out FILE         live HTML report snapshot\n"
        "\n"
        "A flag the command does not read is an error (exit 2).\n"
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
        const ctcp::json::Document doc = ctcp::json::parse(resp.body);
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

/** A flag a per-run command reads, and whether a value follows it. */
struct RunFlag
{
    const char *name;
    bool takesValue;
};

/** The per-run commands and the flags each reads. */
const std::map<std::string, std::vector<RunFlag>> runCommands = {
    {"status", {}},
    {"events", {{"--follow", false}}},
    {"cancel", {}},
    {"wait", {{"--timeout", true}}},
    {"report", {{"--host-timing", false}, {"--out", true}}},
    {"html", {{"--out", true}}},
};

/**
 * Split a per-run command's @p args into its run id and its flags
 * (name -> value, "" for a switch). A flag @p known does not list, a
 * flag without its value, a second id or no id exits 2.
 */
std::map<std::string, std::string>
parseRunArgs(const std::string &command, const std::vector<std::string> &args,
             const std::vector<RunFlag> &known, std::string &id)
{
    std::map<std::string, std::string> flags;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.empty() || arg[0] != '-') {
            if (!id.empty())
                die(command + " takes one run id");
            id = arg;
            continue;
        }
        const auto flag = std::find_if(
            known.begin(), known.end(),
            [&](const RunFlag &f) { return arg == f.name; });
        if (flag == known.end())
            die("unknown " + command + " option '" + arg + "'");
        if (!flag->takesValue) {
            flags[arg];
        } else if (i + 1 < args.size()) {
            flags[arg] = args[++i];
        } else {
            die("missing value for " + arg);
        }
    }
    if (id.empty())
        die(command + " needs a run id");
    return flags;
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
        const ctcp::json::Document doc = ctcp::json::parse(resp.body);
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
            const ctcp::json::Document doc = ctcp::json::parse(resp.body);
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

    if ((command == "ping" || command == "list") && !args.empty())
        die(command + " takes no arguments");
    if (command == "ping") {
        const HttpResponse resp = request("GET", "/v1/ping");
        if (resp.status != 200)
            return failFrom(resp);
        std::printf("%s\n", resp.body.c_str());
        return 0;
    }
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
    const auto known = runCommands.find(command);
    if (known == runCommands.end())
        die("unknown command '" + command + "'");
    std::string id;
    const std::map<std::string, std::string> flags =
        parseRunArgs(command, args, known->second, id);
    auto flag = [&](const std::string &name) {
        return flags.count(name) != 0;
    };
    auto value = [&](const std::string &name,
                     const std::string &fallback) {
        const auto it = flags.find(name);
        return it != flags.end() ? it->second : fallback;
    };

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
        std::string target = "/v1/runs/" + id + "/report?format=json";
        if (flag("--host-timing"))
            target += "&host_timing=1";
        const HttpResponse resp = request("GET", target);
        if (resp.status != 200)
            return failFrom(resp);
        return writeOut(value("--out", "-"), resp.body) ? 0 : 2;
    }
    // html
    const std::string out = value("--out", "");
    if (out.empty())
        die("html needs --out FILE");
    const HttpResponse resp = request("GET", "/v1/runs/" + id + "/html");
    if (resp.status != 200)
        return failFrom(resp);
    return writeOut(out, resp.body) ? 0 : 2;
}
