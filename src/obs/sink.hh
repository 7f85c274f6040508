/**
 * @file
 * The event sink: a runtime kind filter in front of one writer. Each
 * recorded event goes straight to the writer, in record order; the
 * writer buffers its own output bytes. The simulator's writer is the
 * Chrome trace (obs/writers.hh); tests plug in their own to capture
 * events.
 *
 * Overhead contract: every instrumented component holds a raw
 * `ObsSink *` that is null when observability is off, and each emission
 * site is guarded as
 *
 *     if (obs_ && obs_->enabled(ObsKind::X)) { ... record ... }
 *
 * so a disabled build path costs one predictable branch and no event
 * construction. The sink itself is single-threaded by design: one
 * simulator owns one sink (campaign jobs each get their own).
 */

#ifndef CTCPSIM_OBS_SINK_HH
#define CTCPSIM_OBS_SINK_HH

#include <cstdint>
#include <memory>
#include <string>

#include "obs/event.hh"

namespace ctcp {

/** Destination for recorded events. */
class ObsWriter
{
  public:
    virtual ~ObsWriter() = default;
    /** Called once before the first event. */
    virtual void begin() {}
    /** Called for every event, in record order. */
    virtual void write(const ObsEvent &event) = 0;
    /** Called once after the last event (flush/close the output). */
    virtual void end() {}
};

/** Filtered event sink. */
class ObsSink
{
  public:
    /** Take ownership of @p writer and begin() it. */
    explicit ObsSink(std::unique_ptr<ObsWriter> writer);
    ~ObsSink();

    ObsSink(const ObsSink &) = delete;
    ObsSink &operator=(const ObsSink &) = delete;

    /** Bitmask with every kind enabled. */
    static constexpr std::uint32_t
    allKinds()
    {
        return (1u << numObsKinds) - 1;
    }

    /**
     * Parse a filter spec: a comma-separated list of kind names
     * ("fetch,tc-hit,retire"), or "all" / "" for everything.
     * @throws std::invalid_argument on an unknown kind name
     */
    static std::uint32_t parseFilter(const std::string &spec);

    void setFilter(std::uint32_t mask) { mask_ = mask; }

    /** Recording @p kind right now? (Inline: this is the hot gate.) */
    bool
    enabled(ObsKind kind) const
    {
        return (mask_ >> static_cast<unsigned>(kind)) & 1u;
    }

    /** Record one event (caller must have checked enabled()). */
    void
    record(const ObsEvent &event)
    {
        if (!enabled(event.kind))
            return;
        ++recordedPerKind_[static_cast<std::size_t>(event.kind)];
        writer_->write(event);
    }

    /** end() the writer; idempotent. */
    void finish();

    /** Total events recorded (post-filter). */
    std::uint64_t recorded() const;

    /** Events recorded of one kind. */
    std::uint64_t
    recorded(ObsKind kind) const
    {
        return recordedPerKind_[static_cast<std::size_t>(kind)];
    }

  private:
    std::unique_ptr<ObsWriter> writer_;
    std::uint32_t mask_ = allKinds();
    std::uint64_t recordedPerKind_[numObsKinds] = {};
    bool finished_ = false;
};

} // namespace ctcp

#endif // CTCPSIM_OBS_SINK_HH
