/**
 * @file
 * Hand-rolled HTTP/1.1 over unix-domain sockets for the ctcpd service.
 *
 * Like src/common/json, this is deliberately not a general
 * implementation: it parses the requests ctcpctl (and curl
 * --unix-socket) send and writes plain Content-Length responses —
 * no chunked transfer, no keep-alive (every exchange is one
 * request, one response, Connection: close), no TLS, no external
 * dependencies. The parsing half is pure string-in/struct-out so the
 * protocol is unit-testable without sockets; the fd helpers wrap the
 * blocking socket I/O both binaries share.
 */

#ifndef CTCPSIM_SERVICE_HTTP_HH
#define CTCPSIM_SERVICE_HTTP_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ctcp::service {

/** Hard caps keeping a misbehaving peer from ballooning memory. */
constexpr std::size_t maxHeaderBytes = 64 * 1024;
constexpr std::size_t maxBodyBytes = 4 * 1024 * 1024;

/** One parsed request: method, split target, headers, body. */
struct HttpRequest
{
    std::string method;               // "GET", "POST", ...
    std::string path;                 // "/v1/runs/r0001", %-decoded
    /** Query parameters in order of appearance, %-decoded. */
    std::vector<std::pair<std::string, std::string>> query;
    /** Headers in order of appearance; names lower-cased. */
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    /** Header value by (case-insensitive) name, "" when absent. */
    std::string header(const std::string &name) const;
    /** Query parameter value, @p fallback when absent. */
    std::string queryParam(const std::string &name,
                           const std::string &fallback = "") const;
};

/** One response to serialize. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    /**
     * Extra headers (e.g. X-Ctcp-Next-Offset for event paging).
     * Serialized with the casing given here; parseResponse() fills
     * names lower-cased (header names are case-insensitive, and the
     * parser is shared with the request side), so clients match
     * against "x-ctcp-next-offset".
     */
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;
};

/** Canonical reason phrase ("OK", "Not Found", ...). */
const char *statusText(int status);

/**
 * Parse a complete request (head + body) from @p raw.
 * @return false with a diagnostic in @p error on malformed input,
 *         oversized sections, or a body shorter than Content-Length
 */
bool parseRequest(const std::string &raw, HttpRequest &req,
                  std::string &error);

/** Serialize @p resp with Content-Length and Connection: close. */
std::string serializeResponse(const HttpResponse &resp);

/**
 * Parse a serialized response (the client half). Without a
 * Content-Length the body is everything after the head.
 * @return false with a diagnostic in @p error on malformed input, a
 *         malformed Content-Length, or a body shorter than it
 */
bool parseResponse(const std::string &raw, HttpResponse &resp,
                   std::string &error);

/** Decode %xx escapes and '+' (query components). */
std::string percentDecode(const std::string &text);

/**
 * A fresh correlation id for the X-Ctcp-Trace-Id header: 16 lowercase
 * hex digits, unique per process lifetime (seeded from the clock and
 * pid, advanced per call). Operational side channel only — trace ids
 * never influence run output.
 */
std::string makeTraceId();

/** The header every request/response carries once traced. */
inline constexpr const char *traceIdHeader = "X-Ctcp-Trace-Id";

// ---- Unix-socket I/O ---------------------------------------------------
//
// Every helper taking a @p timeoutSeconds applies it as an overall
// deadline for the whole operation (not per chunk); <= 0 means "no
// deadline". All socket writes use MSG_NOSIGNAL, so a peer that went
// away surfaces as a clean EPIPE error instead of killing the process
// with SIGPIPE.

/**
 * Create, bind and listen on a unix-domain socket at @p path (an
 * existing socket file is unlinked first — the daemon owns its path).
 * @return the listening fd, or -1 with a diagnostic in @p error
 */
int listenUnix(const std::string &path, std::string &error);

/**
 * Connect to the daemon's socket, giving up after @p timeoutSeconds.
 * @return the connected fd, or -1 with a diagnostic in @p error
 */
int connectUnix(const std::string &path, double timeoutSeconds,
                std::string &error);

/**
 * Read one complete request from @p fd (headers, then Content-Length
 * body bytes), failing once @p timeoutSeconds elapse mid-read.
 * @return false on EOF, I/O error, timeout, or malformed input.
 */
bool readRequest(int fd, HttpRequest &req, double timeoutSeconds,
                 std::string &error);

/**
 * Write all of @p bytes, failing once @p timeoutSeconds elapse — a
 * reader that stops draining its socket cannot wedge the writer.
 */
bool writeAll(int fd, const std::string &bytes, double timeoutSeconds,
              std::string &error);

/**
 * Read until EOF (the peer closes after one response), with a
 * deadline. @return false (with partial bytes in @p out) on timeout or
 * I/O error.
 */
bool readAll(int fd, double timeoutSeconds, std::string &out,
             std::string &error);

} // namespace ctcp::service

#endif // CTCPSIM_SERVICE_HTTP_HH
