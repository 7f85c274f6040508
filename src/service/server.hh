/**
 * @file
 * ctcpd's HTTP front end: routing plus the unix-socket accept loop.
 *
 * Endpoints (all JSON unless noted):
 *
 *   GET  /v1/ping                 liveness probe
 *   POST /v1/runs                 body = matrix spec text; query:
 *                                 accounting=1, max_attempts=N,
 *                                 deadline=SECS. 201 + {"id": ...}
 *   GET  /v1/runs                 all runs' status snapshots
 *   GET  /v1/runs/<id>            one run's status snapshot
 *   GET  /v1/runs/<id>/events     journal tail from ?from=<offset>,
 *                                 long-polling up to ?wait=<secs>;
 *                                 body is raw journal JSONL and
 *                                 X-Ctcp-Next-Offset names the next
 *                                 ?from to pass
 *   POST /v1/runs/<id>/cancel     request cancellation
 *   GET  /v1/runs/<id>/report     final report JSON (?format=json
 *                                 is the only format; any other is
 *                                 400), ?host_timing=1; 409 until done.
 *                                 Byte-identical to the batch path.
 *   GET  /v1/runs/<id>/html       live HTML report (text/html)
 *
 * handle() is a pure HttpRequest -> HttpResponse function so every
 * route is unit-testable without sockets; serve() owns the listening
 * socket and runs one short-lived thread per connection (one request,
 * one response, close — ctcpctl reconnects per call).
 *
 * Correlation: every connection gets an X-Ctcp-Trace-Id (the client's
 * if supplied, generated otherwise), echoed in the response and
 * attached to the request's structured log record, so one campaign's
 * activity can be grepped across a whole daemon fleet's logs. Logs and
 * trace ids are operational side channels only — they never touch
 * reports, journals, or the simulator hot path (DESIGN decision 13).
 */

#ifndef CTCPSIM_SERVICE_SERVER_HH
#define CTCPSIM_SERVICE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>

#include "service/http.hh"
#include "service/registry.hh"

namespace ctcp::service {

class ServiceServer
{
  public:
    struct Config
    {
        std::string socketPath;
        RunRegistry::Config registry;
        /** Log one line per request to stderr. */
        bool verbose = false;
        /** Long-poll ceiling for ?wait= (seconds). */
        double maxWaitSeconds = 30.0;
        /**
         * Per-connection I/O deadline (seconds, <= 0 = none): the
         * budget for reading one request and, separately, for writing
         * one response. A client that stops sending or draining is
         * cut off instead of wedging a server thread (and stalling
         * graceful shutdown, which waits for active connections).
         * Long polls don't count against it: they run inside
         * handle(), between the request read and the response write,
         * so each side of the deadline only covers honest I/O time.
         */
        double ioDeadlineSeconds = 30.0;
    };

    /** @throws SimError (Config) when the state dir cannot be set up */
    explicit ServiceServer(Config config);
    ~ServiceServer();

    ServiceServer(const ServiceServer &) = delete;
    ServiceServer &operator=(const ServiceServer &) = delete;

    /** Route one request (pure; no socket involved). */
    HttpResponse handle(const HttpRequest &req);

    /**
     * Bind the socket and serve until @p stop becomes true (typically
     * set by a SIGTERM/SIGINT handler). On return the socket file is
     * removed and the registry has been shut down gracefully:
     * in-flight jobs journaled, queued jobs skipped.
     * @return 0 on clean shutdown, 2 when the socket cannot be bound
     */
    int serve(const std::atomic<bool> &stop);

    RunRegistry &registry() { return registry_; }

  private:
    void handleConnection(int fd);
    /** The routing switch handle() wraps with trace-id echoing. */
    HttpResponse route(const HttpRequest &req);

    Config config_;
    RunRegistry registry_;

    std::mutex connMutex_;
    std::condition_variable connIdle_;
    std::size_t activeConnections_ = 0;
};

} // namespace ctcp::service

#endif // CTCPSIM_SERVICE_SERVER_HH
