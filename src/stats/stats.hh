/**
 * @file
 * Lightweight statistics package used by every simulated structure.
 *
 * Models register named scalar counters, ratio formulas and bounded
 * histograms into a StatGroup; benches and examples render groups as
 * aligned text tables. The design intentionally mirrors the shape (not
 * the implementation) of the gem5/SimpleScalar stats packages: stats are
 * owned by the model that increments them, and groups provide uniform
 * dumping.
 */

#ifndef CTCPSIM_STATS_STATS_HH
#define CTCPSIM_STATS_STATS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"

namespace ctcp {

/** A named monotonically increasing scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Bounded histogram with fixed-width buckets plus an overflow bucket. */
class Histogram
{
  public:
    /**
     * @param buckets  number of regular buckets
     * @param bucket_width  width of each bucket in sample units
     */
    Histogram(std::size_t buckets, std::uint64_t bucket_width)
        : counts_(buckets + 1, 0), width_(bucket_width)
    {
        ctcp_assert(buckets > 0 && bucket_width > 0,
                    "Histogram needs positive geometry");
    }

    void
    sample(std::uint64_t value, std::uint64_t count = 1)
    {
        std::size_t idx = value / width_;
        if (idx >= counts_.size() - 1)
            idx = counts_.size() - 1;
        counts_[idx] += count;
        total_ += count;
        sum_ += value * count;
    }

    std::uint64_t bucketCount(std::size_t i) const { return counts_.at(i); }
    std::size_t buckets() const { return counts_.size() - 1; }
    std::uint64_t overflow() const { return counts_.back(); }
    std::uint64_t samples() const { return total_; }

    /** Arithmetic mean of all samples; 0 when empty. */
    double
    mean() const
    {
        return total_ ? static_cast<double>(sum_) / static_cast<double>(total_)
                      : 0.0;
    }

    void
    reset()
    {
        std::fill(counts_.begin(), counts_.end(), 0);
        total_ = 0;
        sum_ = 0;
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t width_;
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
};

/** Percentage of @p num over @p den; 0 when the denominator is zero. */
inline double
percent(std::uint64_t num, std::uint64_t den)
{
    return den ? 100.0 * static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

/** Plain ratio of @p num over @p den; 0 when the denominator is zero. */
inline double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/**
 * Append @p value to @p out exactly as printf("%.*f", precision, value)
 * prints it, through std::to_chars (no locale, no format parsing).
 */
void appendFixed(std::string &out, double value, int precision);

/** Harmonic mean of a list of speedups (the paper's averaging rule). */
double harmonicMean(const std::vector<double> &values);

/** Arithmetic mean; 0 when empty. */
double arithmeticMean(const std::vector<double> &values);

/**
 * A named (name, value) listing for pretty-printing a model's stats.
 * Models expose `void dumpStats(StatDump &out) const`.
 */
class StatDump
{
  public:
    void scalar(std::string_view name, std::uint64_t value);
    /** Formatted as printf("%.4f") would. */
    void scalar(std::string_view name, double value);
    void note(std::string_view name, std::string_view text);

    /** Render as "name  value" lines with aligned columns. */
    std::string render() const;

  private:
    /** Lengths of one entry's name and value, stored back to back in
     *  text_ in entry order. */
    struct Entry
    {
        std::size_t nameLen;
        std::size_t valueLen;
    };

    /** Record the entry whose name and value were appended to text_
     *  from offset @p start on. */
    void end(std::size_t start, std::size_t name_len);

    std::string text_;
    std::vector<Entry> entries_;
    std::size_t width_ = 0;   ///< longest name
};

/**
 * A named collection of registered statistics that dumps with a common
 * prefix. Stats remain owned by the model that increments them; the
 * group only holds pointers, so registration costs nothing on the hot
 * path. Histograms render as samples/mean/overflow and are safe to
 * render while empty.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void addCounter(const std::string &name, const Counter &counter);
    void addHistogram(const std::string &name, const Histogram &histogram);
    /** Derived value computed at dump time (e.g. a hit rate). */
    void addFormula(const std::string &name, std::function<double()> formula);

    const std::string &name() const { return name_; }

    /** Append every registered stat to @p out as "<group>.<stat>". */
    void dump(StatDump &out) const;

    /** Convenience: dump into a fresh StatDump and render it. */
    std::string render() const;

  private:
    struct Item
    {
        std::string name;
        const Counter *counter = nullptr;
        const Histogram *histogram = nullptr;
        std::function<double()> formula;
    };

    std::string name_;
    std::vector<Item> items_;
};

} // namespace ctcp

#endif // CTCPSIM_STATS_STATS_HH
