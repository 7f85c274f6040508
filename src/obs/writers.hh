/**
 * @file
 * Standard event writers.
 *
 * ChromeTraceWriter emits the Chrome trace_event JSON array format
 * (one event object per line inside "traceEvents"), loadable in
 * chrome://tracing and Perfetto. Track layout: tid 0 is the front end
 * (fetch, trace cache, fill unit, assignment, rename, flush), tid 1 is
 * commit (complete/retire), tid 2 is the data memory system, and tid
 * 10+c is execution cluster c (issue/execute/forward). Execute events
 * are duration ("X") slices; everything else is an instant. Each
 * event sits on a line of its own, so `grep '"cat":"tc-miss"'` lists
 * one kind.
 *
 * The writer opens its file on construction and throws
 * std::runtime_error on failure (a campaign job with an unwritable
 * telemetry path fails in isolation instead of killing the process).
 *
 * Output is crash-safe: events are staged in "<path>.tmp" and the
 * file is renamed over the target only when end() finishes writing
 * the trailer. A process killed mid-run leaves any previous trace at
 * the target path intact instead of a truncated, unloadable one.
 *
 * The bytes are a contract (DESIGN decision 13), pinned by
 * tests/test_obs.cc against a printf reference.
 */

#ifndef CTCPSIM_OBS_WRITERS_HH
#define CTCPSIM_OBS_WRITERS_HH

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/atomic_file.hh"
#include "obs/sink.hh"

namespace ctcp {

/**
 * Fixed-size byte buffer in front of an AtomicFile. Literals are
 * copied and integers formatted with std::to_chars straight into it,
 * and whenever the next piece does not fit, the buffer is handed to
 * the file and starts over. Memory stays at capacity bytes.
 */
class TraceBuffer
{
  public:
    static constexpr std::size_t capacity = 64 * 1024;

    /** @throws std::runtime_error when the staging file cannot be opened */
    explicit TraceBuffer(const std::string &path);

    void
    put(std::string_view text)
    {
        if (text.size() > room())
            spill(text);
        else
            cur_ = std::copy(text.begin(), text.end(), cur_);
    }

    void
    put(char c)
    {
        if (room() == 0)
            drain();
        *cur_++ = c;
    }

    /** Decimal, as printf's %d / PRIu64 / PRId64. */
    template <typename Int>
    void
    dec(Int value)
    {
        if (room() < maxDigits)
            drain();
        cur_ = std::to_chars(cur_, end_, value).ptr;
    }

    /** Drain the rest and publish the file (see AtomicFile::commit). */
    void commit();

  private:
    /** Enough for any 64-bit integer in decimal, sign included. */
    static constexpr std::size_t maxDigits = 20;

    std::size_t room() const { return static_cast<std::size_t>(end_ - cur_); }
    void drain();
    void spill(std::string_view text);

    AtomicFile out_;
    std::unique_ptr<char[]> buf_;
    char *cur_;
    char *end_;
};

/** Chrome trace_event JSON ("traceEvents" array) writer. */
class ChromeTraceWriter : public ObsWriter
{
  public:
    explicit ChromeTraceWriter(const std::string &path);
    ~ChromeTraceWriter() override;

    void begin() override;
    void write(const ObsEvent &event) override;
    void end() override;

  private:
    void nameThread(int tid);

    TraceBuffer out_;
    bool ended_ = false;
    /**
     * Tracks whose metadata is already out. A tid is 0-2 or 10 + an
     * int8 cluster id: 256 distinct values at most, so its low byte
     * is a unique index.
     */
    std::array<bool, 256> namedTids_{};
};

} // namespace ctcp

#endif // CTCPSIM_OBS_WRITERS_HH
