/**
 * @file
 * Interval (epoch) statistics: periodic snapshots of simulator counters
 * turned into a time series.
 *
 * An IntervalRecorder owns a list of named columns, each backed by a
 * probe (a callable returning the current cumulative value of some
 * counter). Every N cycles the simulator calls sample(), which turns
 * the probes into one row:
 *
 *   - gauge columns report the probe value as-is (e.g. occupancy),
 *   - rate columns report the probe's delta divided by the elapsed
 *     cycles (e.g. IPC),
 *   - ratio columns report delta(numerator) / delta(denominator)
 *     (e.g. trace-cache hit rate, forwards per instruction).
 *
 * Rows accumulate in memory and render as CSV at end of run.
 * A run of C cycles sampled every N produces exactly ceil(C / N) rows:
 * one per full interval plus one trailing partial row. Output is
 * deterministic: identical runs produce byte-identical files.
 */

#ifndef CTCPSIM_STATS_INTERVAL_HH
#define CTCPSIM_STATS_INTERVAL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ctcp {

/**
 * Parse and validate an interval period argument (--interval): a
 * positive cycle count. Rejects zero, negative values, junk, and
 * periods above 1e12 cycles.
 * @throws std::invalid_argument with a usable message
 */
Cycle parseIntervalCycles(const std::string &text);

/** Fixed-cadence counter snapshotter producing a CSV time series. */
class IntervalRecorder
{
  public:
    /** Returns the current cumulative value of some statistic. */
    using Probe = std::function<double()>;

    /** @param interval sampling period in cycles (must be positive) */
    explicit IntervalRecorder(Cycle interval);

    /** Instantaneous value column (reported as sampled). */
    void addGauge(const std::string &name, Probe probe);

    /** Per-cycle rate column: delta(probe) / elapsed cycles. */
    void addRate(const std::string &name, Probe probe);

    /** Delta-ratio column: delta(num) / delta(den); 0 when flat. */
    void addRatio(const std::string &name, Probe num, Probe den);

    Cycle interval() const { return interval_; }

    /** Is a sample due at @p now? (now is the post-increment cycle.) */
    bool due(Cycle now) const { return now % interval_ == 0; }

    /**
     * Append one row stamped @p now. Ignored if @p now was already
     * sampled, so the end-of-run trailing sample cannot double-count
     * a run whose length is a multiple of the interval.
     */
    void sample(Cycle now);

    std::size_t rows() const { return rows_.size(); }

    /** Header plus one line per row. */
    std::string toCsv() const;

    /**
     * Write toCsv() to @p path.
     * @throws std::runtime_error if the file cannot open
     */
    void writeFile(const std::string &path) const;

  private:
    enum class Kind { Gauge, Rate, Ratio };

    struct Column
    {
        std::string name;
        Kind kind;
        Probe a;
        Probe b;        // denominator (Ratio only)
        double prevA = 0.0;
        double prevB = 0.0;
    };

    struct Row
    {
        Cycle cycle;
        std::vector<double> values;
    };

    Cycle interval_;
    Cycle lastSampled_ = 0;
    bool sampledYet_ = false;
    std::vector<Column> columns_;
    std::vector<Row> rows_;
};

} // namespace ctcp

#endif // CTCPSIM_STATS_INTERVAL_HH
