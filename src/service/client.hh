/**
 * @file
 * Minimal client for the ctcpd unix-socket API: one connection per
 * exchange (the server closes after each response), shared by
 * ctcpctl and the service end-to-end tests.
 *
 * Every exchange is bounded by connect/write/read deadlines
 * (ClientOptions) so a wedged daemon fails the call with a transport
 * error instead of hanging the client forever, and all writes use
 * MSG_NOSIGNAL so a daemon that died mid-exchange surfaces as an
 * error return rather than a SIGPIPE process death.
 */

#ifndef CTCPSIM_SERVICE_CLIENT_HH
#define CTCPSIM_SERVICE_CLIENT_HH

#include <string>
#include <utility>
#include <vector>

#include "service/http.hh"

namespace ctcp::service {

/** Per-exchange deadlines, in seconds; <= 0 disables one. */
struct ClientOptions
{
    double connectTimeoutSeconds = 10.0;
    double writeTimeoutSeconds = 30.0;
    /**
     * Overall deadline for the response. Callers long-polling
     * /v1/runs/<id>/events must leave headroom above the server-side
     * `wait` they request, or the poll looks like a dead daemon.
     */
    double readTimeoutSeconds = 120.0;
    /**
     * Extra request headers, sent verbatim after the standard ones —
     * e.g. {X-Ctcp-Trace-Id, <id>} so the daemon's logs correlate
     * this exchange with the campaign that caused it.
     */
    std::vector<std::pair<std::string, std::string>> headers;
};

/**
 * Perform one request against the daemon at @p socketPath.
 * @return false with a transport diagnostic in @p error (cannot
 *         connect, deadline exceeded, short response, unparseable
 *         response); an HTTP error status is a *successful* exchange —
 *         check @p resp.status.
 */
bool httpRequest(const std::string &socketPath,
                 const std::string &method, const std::string &target,
                 const std::string &body, const ClientOptions &options,
                 HttpResponse &resp, std::string &error);

/** As above with default ClientOptions deadlines. */
bool httpRequest(const std::string &socketPath,
                 const std::string &method, const std::string &target,
                 const std::string &body, HttpResponse &resp,
                 std::string &error);

} // namespace ctcp::service

#endif // CTCPSIM_SERVICE_CLIENT_HH
