#include "stats/interval.hh"

#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "common/parse_number.hh"
#include "stats/stats.hh"

namespace ctcp {

Cycle
parseIntervalCycles(const std::string &text)
{
    return parseUnsigned(text, "interval (a positive cycle count)", 1,
                         1'000'000'000'000);
}

IntervalRecorder::IntervalRecorder(Cycle interval)
    : interval_(interval)
{
    ctcp_assert(interval_ > 0, "IntervalRecorder needs a positive interval");
}

void
IntervalRecorder::addGauge(const std::string &name, Probe probe)
{
    columns_.push_back({name, Kind::Gauge, std::move(probe), {}, 0.0, 0.0});
}

void
IntervalRecorder::addRate(const std::string &name, Probe probe)
{
    columns_.push_back({name, Kind::Rate, std::move(probe), {}, 0.0, 0.0});
}

void
IntervalRecorder::addRatio(const std::string &name, Probe num, Probe den)
{
    columns_.push_back(
        {name, Kind::Ratio, std::move(num), std::move(den), 0.0, 0.0});
}

void
IntervalRecorder::sample(Cycle now)
{
    if (sampledYet_ && now <= lastSampled_)
        return;
    const double elapsed =
        static_cast<double>(now - (sampledYet_ ? lastSampled_ : 0));
    Row row;
    row.cycle = now;
    row.values.reserve(columns_.size());
    for (Column &col : columns_) {
        const double a = col.a();
        double value = 0.0;
        switch (col.kind) {
          case Kind::Gauge:
            value = a;
            break;
          case Kind::Rate:
            value = elapsed > 0.0 ? (a - col.prevA) / elapsed : 0.0;
            break;
          case Kind::Ratio: {
            const double b = col.b();
            const double db = b - col.prevB;
            value = db != 0.0 ? (a - col.prevA) / db : 0.0;
            col.prevB = b;
            break;
          }
        }
        col.prevA = a;
        row.values.push_back(value);
    }
    rows_.push_back(std::move(row));
    lastSampled_ = now;
    sampledYet_ = true;
}

std::string
IntervalRecorder::toCsv() const
{
    std::string out = "cycle";
    for (const Column &col : columns_) {
        out += ',';
        out += col.name;
    }
    out += '\n';
    for (const Row &row : rows_) {
        out += std::to_string(row.cycle);
        for (double v : row.values) {
            out += ',';
            appendFixed(out, v, 6);
        }
        out += '\n';
    }
    return out;
}

std::string
IntervalRecorder::toJson() const
{
    std::string out = "{\n  \"interval\": " + std::to_string(interval_) +
        ",\n  \"columns\": [\"cycle\"";
    for (const Column &col : columns_)
        out += ", \"" + col.name + "\"";
    out += "],\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        out += "    [" + std::to_string(rows_[i].cycle);
        for (double v : rows_[i].values) {
            out += ", ";
            appendFixed(out, v, 6);
        }
        out += i + 1 < rows_.size() ? "],\n" : "]\n";
    }
    out += "  ]\n}\n";
    return out;
}

void
IntervalRecorder::writeFile(const std::string &path) const
{
    const bool json = path.size() >= 5 &&
        path.compare(path.size() - 5, 5, ".json") == 0;
    // Staged + renamed: an interrupted run never leaves a truncated
    // stats file at the target path.
    atomicWriteFile(path, json ? toJson() : toCsv());
}

} // namespace ctcp
