/**
 * @file
 * ctcpd — the simulation-as-a-service daemon.
 *
 * Listens on a unix-domain socket (HTTP/1.1, see src/service/server),
 * accepts campaign matrix specs, runs them on one persistent worker
 * pool shared across submissions, streams per-job results as they
 * finish (the campaign journal is the wire format), and serves final
 * reports byte-identical to `ctcpsim --campaign` with the same spec.
 *
 * SIGTERM/SIGINT trigger a graceful shutdown: the daemon stops
 * accepting, in-flight jobs finish and are checkpointed to their
 * run's journal, queued jobs are skipped, and the process exits 0.
 * Restarting with the same --state-dir resumes every interrupted run
 * from its journal.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "campaign/campaign.hh"
#include "common/logging.hh"
#include "common/parse_number.hh"
#include "common/sim_error.hh"
#include "common/version.hh"
#include "service/server.hh"

namespace {

/**
 * Upper bound of --cache-entries. The registry holds ~26 programs and
 * each budget is its own cache key, so this is far above any real use.
 */
constexpr std::uint64_t maxCacheEntries = 4096;

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

void
usage(const char *prog)
{
    std::printf(
        "usage: %s --socket PATH [options]\n"
        "\n"
        "  --socket PATH       unix-domain socket to listen on\n"
        "                      (required; an existing socket file is\n"
        "                      replaced)\n"
        "  --state-dir DIR     spec + journal storage (default:\n"
        "                      <socket>.state; the socket's directory\n"
        "                      must exist). Restarting with the\n"
        "                      same directory resumes interrupted\n"
        "                      runs from their journals\n"
        "  --workers N         persistent pool size shared by every\n"
        "                      run (default: one per hardware\n"
        "                      thread); accepts the same values as\n"
        "                      ctcpsim --jobs\n"
        "  --cache-entries N   workload setup cache capacity,\n"
        "                      1..4096 (default 64)\n"
        "  --io-deadline SECS  per-connection budget for reading one\n"
        "                      request and writing one response\n"
        "                      (default 30; 0 = unbounded). A stalled\n"
        "                      client is cut off instead of wedging a\n"
        "                      server thread\n"
        "  --verbose           log requests and lifecycle to stderr\n"
        "  --log-file PATH     append structured JSONL log records\n"
        "                      (one JSON object per line: timestamp,\n"
        "                      level, component, trace id, message)\n"
        "  --log-level LEVEL   debug, info, warn or error (default\n"
        "                      info); only applies to --log-file\n"
        "  --version           print the version and exit\n"
        "\n"
        "API (see README \"Running as a service\"): POST /v1/runs\n"
        "submits a campaign matrix spec; GET /v1/runs/<id>/events\n"
        "streams journal records; GET /v1/runs/<id>/report serves the\n"
        "final JSON/CSV report, byte-identical to the batch path.\n"
        "Drive it with ctcpctl.\n"
        "\n"
        "exit status:\n"
        "  0  clean shutdown (SIGTERM/SIGINT)\n"
        "  2  usage or configuration error\n",
        prog);
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "ctcpd: %s (try --help)\n", msg.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ctcp;

    service::ServiceServer::Config config;
    unsigned long cache_entries = 64;
    std::string log_file;
    LogLevel log_level = LogLevel::Info;

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
        } else if (arg == "--version") {
            std::printf("ctcpd %s\n", CTCP_VERSION);
            return 0;
        } else if (arg == "--socket") {
            config.socketPath = next_arg(i);
        } else if (arg == "--state-dir") {
            config.registry.stateDir = next_arg(i);
        } else if (arg == "--workers") {
            // Same parser, bounds, and messages as ctcpsim --jobs.
            try {
                config.registry.workers =
                    campaign::parseWorkerCount(next_arg(i));
            } catch (const std::invalid_argument &e) {
                die(e.what());
            }
        } else if (arg == "--cache-entries") {
            try {
                cache_entries = parseUnsigned(next_arg(i),
                                              "--cache-entries", 1,
                                              maxCacheEntries);
            } catch (const std::invalid_argument &e) {
                die(e.what());
            }
        } else if (arg == "--io-deadline") {
            char *end = nullptr;
            const char *text = next_arg(i);
            config.ioDeadlineSeconds = std::strtod(text, &end);
            if (end == text || *end != '\0' ||
                config.ioDeadlineSeconds < 0.0)
                die(std::string("invalid --io-deadline '") + text +
                    "'");
        } else if (arg == "--log-file") {
            log_file = next_arg(i);
        } else if (arg == "--log-level") {
            const char *text = next_arg(i);
            if (!parseLogLevel(text, log_level))
                die(std::string("invalid --log-level '") + text + "'");
        } else if (arg == "--verbose") {
            config.verbose = true;
        } else {
            die("unknown option '" + arg + "'");
        }
    }
    if (config.socketPath.empty())
        die("--socket is required");
    if (config.registry.stateDir.empty()) {
        // The default state directory is made with its parents, so a
        // mistyped socket directory would be created, not reported.
        std::filesystem::path dir =
            std::filesystem::path(config.socketPath).parent_path();
        if (dir.empty())
            dir = ".";
        std::error_code ec;
        if (!std::filesystem::is_directory(dir, ec))
            die("socket directory '" + dir.string() + "' does not exist");
        config.registry.stateDir = config.socketPath + ".state";
    }
    config.registry.cacheEntries = cache_entries;
    if (!log_file.empty()) {
        std::string log_error;
        if (!logOpen(log_file, log_level, log_error))
            die(log_error);
    }

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN); // a vanished client must not kill us

    try {
        const std::string socket = config.socketPath;
        const std::string state_dir = config.registry.stateDir;
        service::ServiceServer server(std::move(config));
        std::fprintf(stderr,
                     "ctcpd %s: socket %s, state %s, %u workers, "
                     "cache %lu\n",
                     CTCP_VERSION, socket.c_str(), state_dir.c_str(),
                     server.registry().workers(), cache_entries);
        logRecord(LogLevel::Info, "server", "",
                  std::string("ctcpd ") + CTCP_VERSION + " starting",
                  {{"version", CTCP_VERSION},
                   {"socket", socket},
                   {"stateDir", state_dir},
                   {"workers",
                    std::to_string(server.registry().workers())},
                   {"cacheEntries", std::to_string(cache_entries)}});
        const std::size_t resumed = server.registry().resume();
        if (resumed)
            std::fprintf(stderr,
                         "ctcpd: resumed %zu run%s from the state "
                         "directory\n",
                         resumed, resumed == 1 ? "" : "s");
        return server.serve(g_stop);
    } catch (const SimError &e) {
        die(e.what());
    } catch (const std::exception &e) {
        die(e.what());
    }
}
