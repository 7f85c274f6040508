/**
 * @file
 * Lightweight statistics package used by every simulated structure.
 *
 * Models own Counters and list them, with derived ratios, into a
 * StatDump, which renders aligned "name  value" text; the helpers
 * below compute percentages, ratios and the paper's means. The design
 * mirrors the shape (not the implementation) of the gem5/SimpleScalar
 * stats packages: stats are owned by the model that increments them.
 */

#ifndef CTCPSIM_STATS_STATS_HH
#define CTCPSIM_STATS_STATS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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

} // namespace ctcp

#endif // CTCPSIM_STATS_STATS_HH
