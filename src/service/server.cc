#include "service/server.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/parse_number.hh"
#include "common/sim_error.hh"

namespace ctcp::service {

namespace {

HttpResponse
errorResponse(int status, const std::string &message)
{
    HttpResponse resp;
    resp.status = status;
    resp.body = "{\"error\":\"" + json::escape(message) + "\"}\n";
    return resp;
}

std::string
runInfoJson(const RunInfo &info)
{
    std::string out = "{";
    out += "\"id\":\"" + json::escape(info.id) + "\",";
    out += "\"state\":\"" + std::string(runStateName(info.state)) +
        "\",";
    out += "\"spec\":\"" + json::escape(info.spec) + "\",";
    out += "\"jobs\":" + std::to_string(info.totalJobs) + ",";
    out += "\"done\":" + std::to_string(info.doneJobs) + ",";
    out += "\"failed\":" + std::to_string(info.failedJobs) + ",";
    out += std::string("\"accounting\":") +
        (info.accounting ? "true" : "false") + ",";
    out += "\"maxAttempts\":" + std::to_string(info.maxAttempts) + ",";
    out += std::string("\"cancelRequested\":") +
        (info.cancelRequested ? "true" : "false");
    if (!info.error.empty())
        out += ",\"error\":\"" + json::escape(info.error) + "\"";
    out += "}";
    return out;
}

/** Split "/v1/runs/r0001/events" into segments after "/v1/". */
std::vector<std::string>
pathSegments(const std::string &path)
{
    std::vector<std::string> out;
    std::size_t start = 1; // skip leading '/'
    while (start <= path.size()) {
        std::size_t end = path.find('/', start);
        if (end == std::string::npos)
            end = path.size();
        if (end > start)
            out.push_back(path.substr(start, end - start));
        if (end == path.size())
            break;
        start = end + 1;
    }
    return out;
}

/** A malformed query parameter: route() answers it with a 400. */
struct BadParameter : std::invalid_argument
{
    using std::invalid_argument::invalid_argument;
};

/** The unsigned query parameter @p name in [min, max], strictly parsed. */
std::uint64_t
unsignedParam(const HttpRequest &req, const std::string &name,
              const std::string &fallback, std::uint64_t min,
              std::uint64_t max)
{
    try {
        return parseUnsigned(req.queryParam(name, fallback), name, min,
                             max);
    } catch (const std::invalid_argument &e) {
        throw BadParameter(e.what());
    }
}

/** The seconds-valued query parameter @p name (default 0). */
double
secondsParam(const HttpRequest &req, const std::string &name)
{
    try {
        return parseDecimal(req.queryParam(name, "0"), name);
    } catch (const std::invalid_argument &e) {
        throw BadParameter(e.what());
    }
}

bool
flagParam(const HttpRequest &req, const std::string &name)
{
    const std::string v = req.queryParam(name, "0");
    return v == "1" || v == "true" || v == "yes";
}

} // namespace

ServiceServer::ServiceServer(Config config)
    : config_(std::move(config)), registry_(config_.registry)
{}

ServiceServer::~ServiceServer() = default;

HttpResponse
ServiceServer::handle(const HttpRequest &req)
{
    HttpResponse resp = route(req);
    // Echo the correlation id so a client can stitch this exchange
    // into the fleet-wide trace.
    const std::string trace = req.header("x-ctcp-trace-id");
    if (!trace.empty())
        resp.headers.emplace_back(traceIdHeader, trace);
    return resp;
}

HttpResponse
ServiceServer::route(const HttpRequest &req)
{
    const std::vector<std::string> seg = pathSegments(req.path);
    if (seg.size() < 2 || seg[0] != "v1")
        return errorResponse(404, "unknown path " + req.path);

    try {
        if (seg[1] == "ping" && seg.size() == 2) {
            if (req.method != "GET")
                return errorResponse(405, "ping is GET-only");
            HttpResponse resp;
            resp.body = "{\"status\":\"ok\"}\n";
            return resp;
        }

        if (seg[1] != "runs")
            return errorResponse(404, "unknown path " + req.path);

        // POST /v1/runs — submit a campaign spec.
        if (seg.size() == 2 && req.method == "POST") {
            std::string spec = req.body;
            while (!spec.empty() &&
                   (spec.back() == '\n' || spec.back() == '\r' ||
                    spec.back() == ' '))
                spec.pop_back();
            if (spec.empty())
                return errorResponse(
                    400, "empty spec (send the matrix text as the "
                         "request body)");
            RunRegistry::SubmitOptions options;
            options.accounting = flagParam(req, "accounting");
            options.maxAttempts = static_cast<unsigned>(unsignedParam(
                req, "max_attempts", "1", 1,
                std::numeric_limits<unsigned>::max()));
            options.jobDeadlineSeconds = secondsParam(req, "deadline");

            std::string id;
            try {
                id = registry_.submit(spec, options);
            } catch (const std::invalid_argument &e) {
                return errorResponse(400, e.what());
            } catch (const SimError &e) {
                return errorResponse(
                    e.category() == ErrorCategory::Cancelled ? 503
                                                             : 500,
                    e.what());
            }
            RunInfo info;
            registry_.info(id, info);
            HttpResponse resp;
            resp.status = 201;
            resp.body = "{\"id\":\"" + id + "\",\"jobs\":" +
                std::to_string(info.totalJobs) + "}\n";
            return resp;
        }

        // GET /v1/runs — list.
        if (seg.size() == 2 && req.method == "GET") {
            std::string body = "{\"runs\":[";
            bool first = true;
            for (const RunInfo &info : registry_.list()) {
                if (!first)
                    body += ",";
                first = false;
                body += runInfoJson(info);
            }
            body += "]}\n";
            HttpResponse resp;
            resp.body = body;
            return resp;
        }
        if (seg.size() == 2)
            return errorResponse(405, "runs supports GET and POST");

        const std::string &id = seg[2];

        // GET /v1/runs/<id> — status (with optional ?wait=SECS).
        if (seg.size() == 3) {
            if (req.method != "GET")
                return errorResponse(405, "run status is GET-only");
            const double wait =
                std::min(secondsParam(req, "wait"), config_.maxWaitSeconds);
            RunInfo info;
            const bool found = wait > 0.0
                ? registry_.wait(id, wait, info)
                : registry_.info(id, info);
            if (!found)
                return errorResponse(404, "no such run '" + id + "'");
            HttpResponse resp;
            resp.body = runInfoJson(info) + "\n";
            return resp;
        }

        if (seg.size() != 4)
            return errorResponse(404, "unknown path " + req.path);
        const std::string &verb = seg[3];

        if (verb == "events") {
            if (req.method != "GET")
                return errorResponse(405, "events is GET-only");
            const std::uint64_t from = unsignedParam(
                req, "from", "0", 0,
                std::numeric_limits<std::uint64_t>::max());
            const double wait =
                std::min(secondsParam(req, "wait"), config_.maxWaitSeconds);
            std::string bytes;
            std::uint64_t next = from;
            RunState state = RunState::Queued;
            if (!registry_.events(id, from, wait, bytes, next, state))
                return errorResponse(404, "no such run '" + id + "'");
            HttpResponse resp;
            resp.contentType = "application/x-ndjson";
            resp.headers.emplace_back("X-Ctcp-Next-Offset",
                                      std::to_string(next));
            resp.headers.emplace_back("X-Ctcp-Run-State",
                                      runStateName(state));
            resp.body = std::move(bytes);
            return resp;
        }

        if (verb == "cancel") {
            if (req.method != "POST")
                return errorResponse(405, "cancel is POST-only");
            if (!registry_.cancel(id))
                return errorResponse(404, "no such run '" + id + "'");
            HttpResponse resp;
            resp.status = 202;
            resp.body = "{\"id\":\"" + id +
                "\",\"status\":\"cancelling\"}\n";
            return resp;
        }

        if (verb == "report") {
            if (req.method != "GET")
                return errorResponse(405, "report is GET-only");
            const std::string format =
                req.queryParam("format", "json");
            if (format != "json")
                return errorResponse(400, "unknown format '" + format +
                                              "' (the report is json)");
            std::string out, error;
            if (!registry_.finalReport(id, flagParam(req, "host_timing"),
                                       out, error)) {
                const bool missing =
                    error.compare(0, 11, "no such run") == 0;
                return errorResponse(missing ? 404 : 409, error);
            }
            HttpResponse resp;
            resp.contentType = "application/json";
            resp.body = std::move(out);
            return resp;
        }

        if (verb == "html") {
            if (req.method != "GET")
                return errorResponse(405, "html is GET-only");
            std::string html;
            if (!registry_.htmlReport(id, html))
                return errorResponse(404, "no such run '" + id + "'");
            HttpResponse resp;
            resp.contentType = "text/html; charset=utf-8";
            resp.body = std::move(html);
            return resp;
        }

        return errorResponse(404, "unknown path " + req.path);
    } catch (const BadParameter &e) {
        return errorResponse(400, e.what());
    } catch (const std::exception &e) {
        return errorResponse(500, e.what());
    }
}

void
ServiceServer::handleConnection(int fd)
{
    HttpRequest req;
    std::string error;
    HttpResponse resp;
    if (readRequest(fd, req, config_.ioDeadlineSeconds, error)) {
        // Every request carries a correlation id — the client's when
        // supplied, a fresh one otherwise — injected before routing so
        // handle() (and the log record below) always sees one.
        if (req.header("x-ctcp-trace-id").empty())
            req.headers.emplace_back("x-ctcp-trace-id", makeTraceId());
        const auto start = std::chrono::steady_clock::now();
        resp = handle(req);
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (config_.verbose)
            std::fprintf(stderr, "ctcpd: %s %s -> %d\n",
                         req.method.c_str(), req.path.c_str(),
                         resp.status);
        if (logEnabled()) {
            char secs[32];
            std::snprintf(secs, sizeof(secs), "%.6f", seconds);
            logRecord(LogLevel::Info, "http",
                      req.header("x-ctcp-trace-id"),
                      req.method + " " + req.path + " -> " +
                          std::to_string(resp.status),
                      {{"method", req.method},
                       {"path", req.path},
                       {"status", std::to_string(resp.status)},
                       {"seconds", secs}});
        }
    } else {
        resp = errorResponse(400, error);
        logRecord(LogLevel::Warn, "http", "",
                  "unreadable request: " + error);
    }
    std::string write_error;
    if (!writeAll(fd, serializeResponse(resp),
                  config_.ioDeadlineSeconds, write_error) &&
        config_.verbose)
        std::fprintf(stderr, "ctcpd: dropping reply to %s %s (%s)\n",
                     req.method.c_str(), req.path.c_str(),
                     write_error.c_str());
    ::close(fd);
}

int
ServiceServer::serve(const std::atomic<bool> &stop)
{
    std::string error;
    const int listen_fd = listenUnix(config_.socketPath, error);
    if (listen_fd < 0) {
        std::fprintf(stderr, "ctcpd: %s\n", error.c_str());
        return 2;
    }
    if (config_.verbose)
        std::fprintf(stderr, "ctcpd: listening on %s\n",
                     config_.socketPath.c_str());
    logRecord(LogLevel::Info, "server", "",
              "listening on " + config_.socketPath,
              {{"socket", config_.socketPath}});

    while (!stop.load(std::memory_order_relaxed)) {
        pollfd pfd{};
        pfd.fd = listen_fd;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, 200);
        if (ready <= 0)
            continue; // timeout, EINTR (signal) — re-check stop
        const int conn = ::accept(listen_fd, nullptr, nullptr);
        if (conn < 0)
            continue;
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            ++activeConnections_;
        }
        std::thread([this, conn] {
            handleConnection(conn);
            std::lock_guard<std::mutex> lock(connMutex_);
            if (--activeConnections_ == 0)
                connIdle_.notify_all();
        }).detach();
    }

    // Graceful shutdown: stop accepting, let the registry checkpoint
    // and drain, then wait for any request still being answered.
    ::close(listen_fd);
    registry_.shutdown();
    {
        std::unique_lock<std::mutex> lock(connMutex_);
        connIdle_.wait_for(lock, std::chrono::seconds(35), [this] {
            return activeConnections_ == 0;
        });
    }
    ::unlink(config_.socketPath.c_str());
    if (config_.verbose)
        std::fprintf(stderr, "ctcpd: shut down cleanly\n");
    logRecord(LogLevel::Info, "server", "", "shut down cleanly");
    return 0;
}

} // namespace ctcp::service
