#include "common/logging.hh"

#include <cerrno>
#include <cstdarg>
#include <cstring>
#include <ctime>
#include <mutex>
#include <vector>

#include <sys/time.h>

#include "common/json.hh"

namespace ctcp {

// ---- Structured JSONL sink ---------------------------------------------

namespace {

struct LogSink
{
    std::mutex mutex;
    std::FILE *file = nullptr;
    LogLevel level = LogLevel::Info;
};

LogSink &
sink()
{
    static LogSink s;
    return s;
}

/** UTC timestamp with millisecond precision, RFC 3339. */
std::string
logTimestamp()
{
    timeval tv{};
    ::gettimeofday(&tv, nullptr);
    std::tm tm{};
    const time_t secs = tv.tv_sec;
    ::gmtime_r(&secs, &tm);
    char buf[48];
    std::snprintf(buf, sizeof(buf),
                  "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                  tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday,
                  tm.tm_hour, tm.tm_min, tm.tm_sec,
                  static_cast<int>(tv.tv_usec / 1000) % 1000);
    return buf;
}

} // namespace

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info:  return "info";
      case LogLevel::Warn:  return "warn";
      case LogLevel::Error: return "error";
    }
    return "info";
}

bool
parseLogLevel(const std::string &text, LogLevel &out)
{
    if (text == "debug")
        out = LogLevel::Debug;
    else if (text == "info")
        out = LogLevel::Info;
    else if (text == "warn" || text == "warning")
        out = LogLevel::Warn;
    else if (text == "error")
        out = LogLevel::Error;
    else
        return false;
    return true;
}

bool
logOpen(const std::string &path, LogLevel level, std::string &error)
{
    std::FILE *file = std::fopen(path.c_str(), "ab");
    if (!file) {
        error = "cannot open log file " + path + ": " +
            std::strerror(errno);
        return false;
    }
    LogSink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.file)
        std::fclose(s.file);
    s.file = file;
    s.level = level;
    return true;
}

void
logClose()
{
    LogSink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.file) {
        std::fclose(s.file);
        s.file = nullptr;
    }
}

bool
logEnabled()
{
    LogSink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.file != nullptr;
}

void
logRecord(LogLevel level, const std::string &component,
          const std::string &traceId, const std::string &msg,
          const LogFields &fields)
{
    LogSink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.file || level < s.level)
        return;
    std::string line = "{\"ts\":\"" + logTimestamp() + "\",\"level\":\"";
    line += logLevelName(level);
    line += "\",\"component\":\"" + json::escape(component) + "\"";
    if (!traceId.empty())
        line += ",\"trace\":\"" + json::escape(traceId) + "\"";
    line += ",\"msg\":\"" + json::escape(msg) + "\"";
    for (const auto &[key, value] : fields)
        line += ",\"" + json::escape(key) + "\":\"" +
            json::escape(value) + "\"";
    line += "}\n";
    std::fwrite(line.data(), 1, line.size(), s.file);
    // One flush per record, like the campaign journal: a crashed
    // daemon may tear the final line but never loses earlier ones.
    std::fflush(s.file);
}

namespace detail {

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args_copy);
        return fmt;
    }
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

} // namespace detail

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    logRecord(LogLevel::Error, "core", "",
              "panic: " + msg + " (" + file + ":" +
                  std::to_string(line) + ")");
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    logRecord(LogLevel::Error, "core", "",
              "fatal: " + msg + " (" + file + ":" +
                  std::to_string(line) + ")");
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
    logRecord(LogLevel::Warn, "core", "", msg);
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stdout, "info: %s\n", msg.c_str());
    logRecord(LogLevel::Info, "core", "", msg);
}

} // namespace ctcp
