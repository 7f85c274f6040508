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
    resp.body = "{\"error\":\"" + jsonEscape(message) + "\"}\n";
    return resp;
}

std::string
runInfoJson(const RunInfo &info)
{
    std::string out = "{";
    out += "\"id\":\"" + jsonEscape(info.id) + "\",";
    out += "\"state\":\"" + std::string(runStateName(info.state)) +
        "\",";
    out += "\"spec\":\"" + jsonEscape(info.spec) + "\",";
    out += "\"jobs\":" + std::to_string(info.totalJobs) + ",";
    out += "\"done\":" + std::to_string(info.doneJobs) + ",";
    out += "\"failed\":" + std::to_string(info.failedJobs) + ",";
    out += std::string("\"accounting\":") +
        (info.accounting ? "true" : "false") + ",";
    out += "\"maxAttempts\":" + std::to_string(info.maxAttempts) + ",";
    out += std::string("\"cancelRequested\":") +
        (info.cancelRequested ? "true" : "false");
    if (!info.error.empty())
        out += ",\"error\":\"" + jsonEscape(info.error) + "\"";
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

/**
 * Collapse a request path to a bounded endpoint label so the
 * per-endpoint metric families stay low-cardinality: run ids become
 * "{id}", anything unroutable becomes "other".
 */
std::string
normalizeEndpoint(const std::string &path)
{
    const std::vector<std::string> seg = pathSegments(path);
    if (seg.size() < 2 || seg[0] != "v1")
        return "other";
    if (seg.size() == 2 &&
        (seg[1] == "ping" || seg[1] == "stats" ||
         seg[1] == "metrics" || seg[1] == "runs"))
        return "/v1/" + seg[1];
    if (seg[1] != "runs")
        return "other";
    if (seg.size() == 3)
        return "/v1/runs/{id}";
    if (seg.size() == 4 &&
        (seg[3] == "events" || seg[3] == "cancel" ||
         seg[3] == "report" || seg[3] == "html"))
        return "/v1/runs/{id}/" + seg[3];
    return "other";
}

} // namespace

ServiceServer::ServiceServer(Config config)
    : config_(std::move(config)), registry_(config_.registry)
{
    // Declare every family up front so a fresh daemon's first scrape
    // (and the CI family grep) sees the whole catalogue before any
    // request or job exists.
    metrics_.declareCounter("ctcpd_http_requests_total",
                            "Requests answered, by endpoint, method "
                            "and status.");
    metrics_.declareHistogram(
        "ctcpd_http_request_seconds",
        "Wall time from parsed request to routed response.",
        obs::MetricsRegistry::defaultLatencyBuckets());
    metrics_.declareCounter("ctcpd_http_response_bytes_total",
                            "Response body bytes written, by endpoint.");
    metrics_.gauge("ctcpd_http_active_connections",
                   "Connections currently being served.");
    metrics_
        .gauge("ctcpd_pool_workers",
               "Worker threads in the shared pool.")
        .set(static_cast<double>(registry_.workers()));
    metrics_.gauge("ctcpd_pool_busy_workers",
                   "Workers executing a job right now.");
    metrics_.gauge("ctcpd_pool_queue_depth",
                   "Jobs queued and not yet picked up.");
    metrics_.counter("ctcpd_pool_jobs_executed_total",
                     "Pool tasks fully executed.");
    metrics_.counter("ctcpd_jobs_completed_total",
                     "Campaign jobs with a finalized outcome.");
    metrics_.counter("ctcpd_jobs_retried_total",
                     "Extra attempts beyond each job's first.");
    for (int c = 0; c <= static_cast<int>(ErrorCategory::Cancelled);
         ++c)
        metrics_.counter(
            "ctcpd_jobs_failed_total",
            "Failed campaign jobs, by error category.",
            {{"category",
              errorCategoryName(static_cast<ErrorCategory>(c))}});
    for (int s = 0; s <= static_cast<int>(RunState::Error); ++s)
        metrics_.gauge(
            "ctcpd_runs", "Runs in the registry, by state.",
            {{"state", runStateName(static_cast<RunState>(s))}});
    metrics_.gauge("ctcpd_journal_bytes",
                   "On-disk bytes across every run's journal.");
    metrics_.counter("ctcpd_resumed_runs_total",
                     "Runs re-submitted by startup resume.");
    metrics_.counter("ctcpd_resume_replayed_jobs_total",
                     "Journal outcomes replayed instead of re-run.");
    metrics_.counter("ctcpd_workload_cache_hits_total",
                     "Workload cache hits.");
    metrics_.counter("ctcpd_workload_cache_misses_total",
                     "Workload cache misses.");
    metrics_.counter("ctcpd_workload_cache_evictions_total",
                     "Workload cache evictions.");
    metrics_.gauge("ctcpd_workload_cache_entries",
                   "Workloads currently cached.");
}

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

        if (seg[1] == "stats" && seg.size() == 2) {
            if (req.method != "GET")
                return errorResponse(405, "stats is GET-only");
            const WorkloadCache::Stats cache = registry_.cacheStats();
            HttpResponse resp;
            resp.body = "{\"workers\":" +
                std::to_string(registry_.workers()) +
                ",\"runs\":" + std::to_string(registry_.runCount()) +
                ",\"workloadCache\":{\"hits\":" +
                std::to_string(cache.hits) +
                ",\"misses\":" + std::to_string(cache.misses) +
                ",\"evictions\":" + std::to_string(cache.evictions) +
                ",\"entries\":" + std::to_string(cache.entries) +
                "}}\n";
            return resp;
        }

        if (seg[1] == "metrics" && seg.size() == 2) {
            if (req.method != "GET")
                return errorResponse(405, "metrics is GET-only");
            HttpResponse resp;
            resp.contentType =
                "text/plain; version=0.0.4; charset=utf-8";
            resp.body = metricsExposition();
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
            if (format != "json" && format != "csv")
                return errorResponse(400, "unknown format '" + format +
                                              "' (json or csv)");
            std::string out, error;
            if (!registry_.finalReport(id, format == "csv",
                                       flagParam(req, "host_timing"),
                                       out, error)) {
                const bool missing =
                    error.compare(0, 11, "no such run") == 0;
                return errorResponse(missing ? 404 : 409, error);
            }
            HttpResponse resp;
            resp.contentType = format == "csv"
                ? "text/csv"
                : "application/json";
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

std::string
ServiceServer::metricsExposition()
{
    // Scrape-time sync: sources that already keep their own monotonic
    // counts (pool, registry, workload cache) are mirrored into the
    // metrics registry here via incTo()/set(), so the campaign layer
    // never gains an obs dependency. Help strings live with the
    // declarations in the constructor; "" on re-lookup is ignored.
    const campaign::PersistentPool::Snapshot pool =
        registry_.poolSnapshot();
    metrics_.gauge("ctcpd_pool_workers", "")
        .set(static_cast<double>(pool.workers));
    metrics_.gauge("ctcpd_pool_busy_workers", "")
        .set(static_cast<double>(pool.busyWorkers));
    metrics_.gauge("ctcpd_pool_queue_depth", "")
        .set(static_cast<double>(pool.queuedTasks));
    metrics_.counter("ctcpd_pool_jobs_executed_total", "")
        .incTo(pool.executedTasks);

    const RunRegistry::JobStats jobs = registry_.jobStats();
    metrics_.counter("ctcpd_jobs_completed_total", "")
        .incTo(jobs.completed);
    metrics_.counter("ctcpd_jobs_retried_total", "")
        .incTo(jobs.retried);
    for (int c = 0; c <= static_cast<int>(ErrorCategory::Cancelled);
         ++c)
        metrics_
            .counter("ctcpd_jobs_failed_total", "",
                     {{"category", errorCategoryName(
                                       static_cast<ErrorCategory>(c))}})
            .incTo(jobs.failed[c]);
    metrics_.counter("ctcpd_resumed_runs_total", "")
        .incTo(jobs.resumedRuns);
    metrics_.counter("ctcpd_resume_replayed_jobs_total", "")
        .incTo(jobs.replayedJobs);

    std::size_t byState[static_cast<int>(RunState::Error) + 1] = {};
    for (const RunInfo &info : registry_.list())
        ++byState[static_cast<std::size_t>(info.state)];
    for (int s = 0; s <= static_cast<int>(RunState::Error); ++s)
        metrics_
            .gauge("ctcpd_runs", "",
                   {{"state", runStateName(static_cast<RunState>(s))}})
            .set(static_cast<double>(byState[s]));
    metrics_.gauge("ctcpd_journal_bytes", "")
        .set(static_cast<double>(registry_.journalBytes()));

    const WorkloadCache::Stats cache = registry_.cacheStats();
    metrics_.counter("ctcpd_workload_cache_hits_total", "")
        .incTo(cache.hits);
    metrics_.counter("ctcpd_workload_cache_misses_total", "")
        .incTo(cache.misses);
    metrics_.counter("ctcpd_workload_cache_evictions_total", "")
        .incTo(cache.evictions);
    metrics_.gauge("ctcpd_workload_cache_entries", "")
        .set(static_cast<double>(cache.entries));

    return metrics_.exposition();
}

void
ServiceServer::recordRequest(const HttpRequest &req,
                             const HttpResponse &resp, double seconds)
{
    const std::string endpoint = normalizeEndpoint(req.path);
    metrics_
        .counter("ctcpd_http_requests_total", "",
                 {{"endpoint", endpoint},
                  {"method", req.method},
                  {"status", std::to_string(resp.status)}})
        .inc();
    metrics_
        .histogram("ctcpd_http_request_seconds", "",
                   obs::MetricsRegistry::defaultLatencyBuckets(),
                   {{"endpoint", endpoint}})
        .observe(seconds);
    metrics_
        .counter("ctcpd_http_response_bytes_total", "",
                 {{"endpoint", endpoint}})
        .inc(resp.body.size());
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
        recordRequest(req, resp, seconds);
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
        metrics_
            .counter("ctcpd_http_requests_total", "",
                     {{"endpoint", "other"},
                      {"method", "invalid"},
                      {"status", "400"}})
            .inc();
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
            metrics_.gauge("ctcpd_http_active_connections", "")
                .set(static_cast<double>(activeConnections_));
        }
        std::thread([this, conn] {
            handleConnection(conn);
            std::lock_guard<std::mutex> lock(connMutex_);
            metrics_.gauge("ctcpd_http_active_connections", "")
                .set(static_cast<double>(activeConnections_ - 1));
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
