#include "service/http.hh"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/parse_number.hh"

namespace ctcp::service {

namespace {

std::string
toLower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return s;
}

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/** Split "a=1&b=2" into decoded pairs. */
std::vector<std::pair<std::string, std::string>>
parseQuery(const std::string &text)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find('&', start);
        if (end == std::string::npos)
            end = text.size();
        const std::string item = text.substr(start, end - start);
        if (!item.empty()) {
            const std::size_t eq = item.find('=');
            if (eq == std::string::npos)
                out.emplace_back(percentDecode(item), "");
            else
                out.emplace_back(percentDecode(item.substr(0, eq)),
                                 percentDecode(item.substr(eq + 1)));
        }
        if (end == text.size())
            break;
        start = end + 1;
    }
    return out;
}

/**
 * Split the head into lines and parse "Name: value" headers into
 * @p headers. @p head excludes the blank separator line.
 */
bool
parseHeaderLines(const std::string &head, std::size_t first_line_end,
                 std::vector<std::pair<std::string, std::string>> &headers,
                 std::string &error)
{
    std::size_t pos = first_line_end;
    while (pos < head.size()) {
        std::size_t end = head.find("\r\n", pos);
        if (end == std::string::npos)
            end = head.size();
        const std::string line = head.substr(pos, end - pos);
        pos = end + 2;
        if (line.empty())
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) {
            error = "malformed header line '" + line + "'";
            return false;
        }
        std::string value = line.substr(colon + 1);
        std::size_t v0 = 0;
        while (v0 < value.size() &&
               (value[v0] == ' ' || value[v0] == '\t'))
            ++v0;
        std::size_t v1 = value.size();
        while (v1 > v0 &&
               (value[v1 - 1] == ' ' || value[v1 - 1] == '\t' ||
                value[v1 - 1] == '\r'))
            --v1;
        headers.emplace_back(toLower(line.substr(0, colon)),
                             value.substr(v0, v1 - v0));
    }
    return true;
}

/**
 * The declared body length into @p length: empty without a
 * Content-Length header. A value that is not a decimal number fails
 * with @p error.
 */
bool
contentLength(const std::vector<std::pair<std::string, std::string>> &hs,
              std::optional<std::size_t> &length, std::string &error)
{
    length.reset();
    for (const auto &[name, value] : hs) {
        if (name != "content-length")
            continue;
        try {
            length = parseUnsigned(value, "Content-Length", 0,
                                   std::numeric_limits<std::size_t>::max());
        } catch (const std::invalid_argument &e) {
            error = e.what();
            return false;
        }
        return true;
    }
    return true;
}

/**
 * The code of status line @p line ("HTTP/1.1 200 OK"): the decimal
 * number between the first space and the next space or the line's
 * end, in 100..599. 0 when @p line has no such code.
 */
int
statusCode(const std::string &line)
{
    const std::size_t sp1 = line.find(' ');
    if (line.compare(0, 5, "HTTP/") != 0 || sp1 == std::string::npos)
        return 0;
    const std::size_t sp2 = line.find(' ', sp1 + 1);
    try {
        return static_cast<int>(parseUnsigned(
            line.substr(sp1 + 1, sp2 - sp1 - 1), "status", 100, 599));
    } catch (const std::invalid_argument &) {
        return 0;
    }
}

} // namespace

std::string
HttpRequest::header(const std::string &name) const
{
    const std::string key = toLower(name);
    for (const auto &[n, v] : headers)
        if (n == key)
            return v;
    return {};
}

std::string
HttpRequest::queryParam(const std::string &name,
                        const std::string &fallback) const
{
    for (const auto &[n, v] : query)
        if (n == name)
            return v;
    return fallback;
}

const char *
statusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 201: return "Created";
      case 202: return "Accepted";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 409: return "Conflict";
      case 413: return "Payload Too Large";
      case 500: return "Internal Server Error";
      case 503: return "Service Unavailable";
      default:  return "Unknown";
    }
}

std::string
percentDecode(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '+') {
            out += ' ';
        } else if (c == '%' && i + 2 < text.size() &&
                   hexDigit(text[i + 1]) >= 0 &&
                   hexDigit(text[i + 2]) >= 0) {
            out += static_cast<char>(hexDigit(text[i + 1]) * 16 +
                                     hexDigit(text[i + 2]));
            i += 2;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
makeTraceId()
{
    // splitmix64 over a process-unique seed + per-call counter: cheap,
    // collision-resistant enough for correlation ids, and free of any
    // dependency on the deterministic simulation RNGs.
    static std::atomic<std::uint64_t> counter{0};
    std::uint64_t x =
        static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count()) ^
        (static_cast<std::uint64_t>(::getpid()) << 32) ^
        (counter.fetch_add(1, std::memory_order_relaxed) * 0x9e3779b97f4a7c15ull);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(x));
    return buf;
}

bool
parseRequest(const std::string &raw, HttpRequest &req, std::string &error)
{
    const std::size_t head_end = raw.find("\r\n\r\n");
    if (head_end == std::string::npos) {
        error = "truncated request (no header terminator)";
        return false;
    }
    if (head_end > maxHeaderBytes) {
        error = "request head too large";
        return false;
    }
    const std::string head = raw.substr(0, head_end + 2);

    std::size_t line_end = head.find("\r\n");
    const std::string request_line = head.substr(0, line_end);
    const std::size_t sp1 = request_line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
        error = "malformed request line '" + request_line + "'";
        return false;
    }
    HttpRequest parsed;
    parsed.method = request_line.substr(0, sp1);
    const std::string target =
        request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string version = request_line.substr(sp2 + 1);
    if (version.compare(0, 5, "HTTP/") != 0) {
        error = "malformed request line '" + request_line + "'";
        return false;
    }
    const std::size_t qmark = target.find('?');
    if (qmark == std::string::npos) {
        parsed.path = percentDecode(target);
    } else {
        parsed.path = percentDecode(target.substr(0, qmark));
        parsed.query = parseQuery(target.substr(qmark + 1));
    }
    if (!parseHeaderLines(head, line_end + 2, parsed.headers, error))
        return false;

    std::optional<std::size_t> declared;
    if (!contentLength(parsed.headers, declared, error))
        return false;
    const std::size_t length = declared.value_or(0);
    if (length > maxBodyBytes) {
        error = "request body too large";
        return false;
    }
    if (raw.size() - (head_end + 4) < length) {
        error = "truncated request body";
        return false;
    }
    parsed.body = raw.substr(head_end + 4, length);
    req = std::move(parsed);
    return true;
}

std::string
serializeResponse(const HttpResponse &resp)
{
    std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
        statusText(resp.status) + "\r\n";
    out += "Content-Type: " + resp.contentType + "\r\n";
    out += "Content-Length: " + std::to_string(resp.body.size()) +
        "\r\n";
    for (const auto &[name, value] : resp.headers)
        out += name + ": " + value + "\r\n";
    out += "Connection: close\r\n\r\n";
    out += resp.body;
    return out;
}

bool
parseResponse(const std::string &raw, HttpResponse &resp,
              std::string &error)
{
    const std::size_t head_end = raw.find("\r\n\r\n");
    if (head_end == std::string::npos) {
        error = "truncated response (no header terminator)";
        return false;
    }
    const std::string head = raw.substr(0, head_end + 2);
    const std::size_t line_end = head.find("\r\n");
    const std::string status_line = head.substr(0, line_end);
    HttpResponse parsed;
    parsed.status = statusCode(status_line);
    if (parsed.status == 0) {
        error = "malformed status line '" + status_line + "'";
        return false;
    }
    if (!parseHeaderLines(head, line_end + 2, parsed.headers, error))
        return false;
    for (const auto &[name, value] : parsed.headers)
        if (name == "content-type")
            parsed.contentType = value;
    // A Content-Length must parse, and the body must hold that many
    // bytes. Only a response without one reads to EOF, which is what
    // Connection: close implies.
    std::optional<std::size_t> length;
    if (!contentLength(parsed.headers, length, error))
        return false;
    const std::size_t available = raw.size() - (head_end + 4);
    if (length && *length > available) {
        error = "truncated response body (" + std::to_string(available) +
            " of " + std::to_string(*length) + " bytes)";
        return false;
    }
    parsed.body = raw.substr(head_end + 4, length.value_or(available));
    resp = std::move(parsed);
    return true;
}

// ---- Unix-socket I/O ---------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

/**
 * One absolute deadline shared by every poll/read/send of an
 * operation; timeoutSeconds <= 0 disables it.
 */
struct Deadline
{
    bool armed = false;
    Clock::time_point when;

    explicit Deadline(double timeoutSeconds)
    {
        if (timeoutSeconds > 0.0) {
            armed = true;
            when = Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(timeoutSeconds));
        }
    }

    bool expired() const { return armed && Clock::now() >= when; }

    /** Remaining budget as a poll() timeout (-1 = infinite). */
    int pollMillis() const
    {
        if (!armed)
            return -1;
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                when - Clock::now()).count();
        if (left <= 0)
            return 0;
        return static_cast<int>(left > 60'000 ? 60'000 : left);
    }
};

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/**
 * Wait for @p events on @p fd. @return 1 ready, 0 deadline expired,
 * -1 poll error.
 */
int
waitFd(int fd, short events, const Deadline &deadline)
{
    while (true) {
        if (deadline.expired())
            return 0;
        pollfd p{};
        p.fd = fd;
        p.events = events;
        const int r = ::poll(&p, 1, deadline.pollMillis());
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (r > 0)
            return 1;
        // r == 0: poll's clamped slice elapsed — loop back and
        // re-check the deadline.
    }
}

} // namespace

int
listenUnix(const std::string &path, std::string &error)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
        error = "socket path too long (max " +
            std::to_string(sizeof(addr.sun_path) - 1) + " bytes): " +
            path;
        return -1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    ::unlink(path.c_str());
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        error = "bind " + path + ": " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    if (::listen(fd, 64) != 0) {
        error = "listen " + path + ": " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

int
connectUnix(const std::string &path, double timeoutSeconds,
            std::string &error)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
        error = "socket path too long: " + path;
        return -1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    if (!setNonBlocking(fd)) {
        error = std::string("fcntl: ") + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (errno != EINPROGRESS && errno != EAGAIN) {
            error = "connect " + path + ": " + std::strerror(errno);
            ::close(fd);
            return -1;
        }
        const Deadline deadline(timeoutSeconds);
        const int ready = waitFd(fd, POLLOUT, deadline);
        if (ready <= 0) {
            error = "connect " + path + ": " +
                (ready == 0 ? "timed out" : std::strerror(errno));
            ::close(fd);
            return -1;
        }
        int soerr = 0;
        socklen_t len = sizeof(soerr);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
            soerr != 0) {
            error = "connect " + path + ": " +
                std::strerror(soerr ? soerr : errno);
            ::close(fd);
            return -1;
        }
    }
    // The fd stays non-blocking; readRequest/writeAll/readAll all go
    // through poll() and handle EAGAIN.
    return fd;
}

bool
readRequest(int fd, HttpRequest &req, double timeoutSeconds,
            std::string &error)
{
    setNonBlocking(fd);
    const Deadline deadline(timeoutSeconds);
    std::string raw;
    char buf[4096];
    std::size_t head_end = std::string::npos;
    std::size_t want = 0; // total bytes once the head is known
    while (true) {
        if (head_end == std::string::npos) {
            head_end = raw.find("\r\n\r\n");
            if (head_end != std::string::npos) {
                // Peek at Content-Length to know how much body to
                // expect; full validation happens in parseRequest. A
                // malformed length ends the read.
                std::vector<std::pair<std::string, std::string>> hs;
                std::string ignored;
                const std::size_t line_end = raw.find("\r\n");
                parseHeaderLines(raw.substr(0, head_end + 2),
                                 line_end + 2, hs, ignored);
                std::optional<std::size_t> length;
                if (!contentLength(hs, length, error))
                    return false;
                if (length.value_or(0) > maxBodyBytes) {
                    error = "request body too large";
                    return false;
                }
                want = head_end + 4 + length.value_or(0);
            } else if (raw.size() > maxHeaderBytes) {
                error = "request head too large";
                return false;
            }
        }
        if (head_end != std::string::npos && raw.size() >= want)
            break;
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                const int ready = waitFd(fd, POLLIN, deadline);
                if (ready == 1)
                    continue;
                error = ready == 0
                    ? "read: timed out"
                    : std::string("poll: ") + std::strerror(errno);
                return false;
            }
            error = std::string("read: ") + std::strerror(errno);
            return false;
        }
        if (n == 0) {
            error = raw.empty() ? "empty request"
                                : "connection closed mid-request";
            return false;
        }
        raw.append(buf, static_cast<std::size_t>(n));
    }
    return parseRequest(raw, req, error);
}

bool
writeAll(int fd, const std::string &bytes, double timeoutSeconds,
         std::string &error)
{
    setNonBlocking(fd);
    const Deadline deadline(timeoutSeconds);
    std::size_t off = 0;
    while (off < bytes.size()) {
        // MSG_NOSIGNAL: a vanished reader yields EPIPE, not SIGPIPE.
        const ssize_t n = ::send(fd, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                const int ready = waitFd(fd, POLLOUT, deadline);
                if (ready == 1)
                    continue;
                error = ready == 0
                    ? "write: timed out"
                    : std::string("poll: ") + std::strerror(errno);
                return false;
            }
            error = std::string("write: ") + std::strerror(errno);
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
readAll(int fd, double timeoutSeconds, std::string &out,
        std::string &error)
{
    setNonBlocking(fd);
    const Deadline deadline(timeoutSeconds);
    char buf[4096];
    while (true) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                const int ready = waitFd(fd, POLLIN, deadline);
                if (ready == 1)
                    continue;
                error = ready == 0
                    ? "read: timed out"
                    : std::string("poll: ") + std::strerror(errno);
                return false;
            }
            error = std::string("read: ") + std::strerror(errno);
            return false;
        }
        if (n == 0)
            return true;
        out.append(buf, static_cast<std::size_t>(n));
    }
}

} // namespace ctcp::service
