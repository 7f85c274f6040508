#include "stats/stats.hh"

#include <algorithm>
#include <charconv>
#include <numeric>

#include "common/logging.hh"

namespace ctcp {

void
appendFixed(std::string &out, double value, int precision)
{
    // Room for DBL_MAX's 309 integer digits, a sign, the point and a
    // stats-sized precision.
    char buf[352];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), value,
                      std::chars_format::fixed, precision);
    ctcp_assert(r.ec == std::errc(), "fixed-point value too wide");
    out.append(buf, r.ptr);
}

double
harmonicMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double denom = 0.0;
    for (double v : values) {
        ctcp_assert(v > 0.0, "harmonic mean requires positive values");
        denom += 1.0 / v;
    }
    return static_cast<double>(values.size()) / denom;
}

double
arithmeticMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
        static_cast<double>(values.size());
}

void
StatDump::scalar(std::string_view name, std::uint64_t value)
{
    const std::size_t start = text_.size();
    text_ += name;
    char buf[24];
    text_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    end(start, name.size());
}

void
StatDump::scalar(std::string_view name, double value)
{
    const std::size_t start = text_.size();
    text_ += name;
    appendFixed(text_, value, 4);
    end(start, name.size());
}

void
StatDump::note(std::string_view name, std::string_view text)
{
    const std::size_t start = text_.size();
    text_ += name;
    text_ += text;
    end(start, name.size());
}

void
StatDump::end(std::size_t start, std::size_t name_len)
{
    entries_.push_back({name_len, text_.size() - start - name_len});
    width_ = std::max(width_, name_len);
}

std::string
StatDump::render() const
{
    std::string out;
    out.reserve(text_.size() + entries_.size() * (width_ + 3));
    const char *p = text_.data();
    for (const Entry &e : entries_) {
        out.append(p, e.nameLen);
        out.append(width_ - e.nameLen + 2, ' ');
        out.append(p + e.nameLen, e.valueLen);
        out += '\n';
        p += e.nameLen + e.valueLen;
    }
    return out;
}

} // namespace ctcp
