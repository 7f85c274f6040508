#include "campaign/journal.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <utility>
#include <variant>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/sim_error.hh"

namespace ctcp::campaign {

namespace {

// ---- Encoding ----------------------------------------------------------

void
put(std::string &out, const char *key, const std::string &value)
{
    out += '"';
    out += key;
    out += "\":\"";
    out += json::escape(value);
    out += "\",";
}

void
put(std::string &out, const char *key, std::uint64_t value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"%s\":%llu,", key,
                  static_cast<unsigned long long>(value));
    out += buf;
}

// %.17g is enough digits for an exact double round-trip, so a journal
// replay reproduces the original report bytes.
void
put(std::string &out, const char *key, double value)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\":%.17g,", key, value);
    out += buf;
}

/** "key":{"name":value,...}, each value %.17g. */
void
putNumbers(std::string &out, const char *key,
           const std::map<std::string, double> &values)
{
    out += '"';
    out += key;
    out += "\":{";
    const char *sep = "";
    for (const auto &[name, value] : values) {
        out += sep;
        sep = ",";
        char buf[192];
        std::snprintf(buf, sizeof(buf), "\"%s\":%.17g",
                      json::escape(name).c_str(), value);
        out += buf;
    }
    out += '}';
}

/** The result's scalar fields, in record order. */
using Field = std::variant<std::string SimResult::*,
                           std::uint64_t SimResult::*, double SimResult::*>;
const std::pair<const char *, Field> resultFields[] = {
    {"benchmark", &SimResult::benchmark},
    {"strategy", &SimResult::strategy},
    {"cycles", &SimResult::cycles},
    {"instructions", &SimResult::instructions},
    {"pctFromTraceCache", &SimResult::pctFromTraceCache},
    {"meanTraceSize", &SimResult::meanTraceSize},
    {"pctCritFromRF", &SimResult::pctCritFromRF},
    {"pctCritFromRs1", &SimResult::pctCritFromRs1},
    {"pctCritFromRs2", &SimResult::pctCritFromRs2},
    {"pctDepsCritical", &SimResult::pctDepsCritical},
    {"pctCritInterTrace", &SimResult::pctCritInterTrace},
    {"repeatRs1", &SimResult::repeatRs1},
    {"repeatRs2", &SimResult::repeatRs2},
    {"repeatRs1CritInter", &SimResult::repeatRs1CritInter},
    {"repeatRs2CritInter", &SimResult::repeatRs2CritInter},
    {"pctIntraClusterFwd", &SimResult::pctIntraClusterFwd},
    {"meanFwdDistance", &SimResult::meanFwdDistance},
    {"pctOptionA", &SimResult::pctOptionA},
    {"pctOptionB", &SimResult::pctOptionB},
    {"pctOptionC", &SimResult::pctOptionC},
    {"pctOptionD", &SimResult::pctOptionD},
    {"pctOptionE", &SimResult::pctOptionE},
    {"pctSkipped", &SimResult::pctSkipped},
    {"migrationAllPct", &SimResult::migrationAllPct},
    {"migrationChainPct", &SimResult::migrationChainPct},
    {"bpredAccuracy", &SimResult::bpredAccuracy},
    {"tcHitRate", &SimResult::tcHitRate},
    {"mispredicts", &SimResult::mispredicts},
    {"hostSeconds", &SimResult::hostSeconds},
};

std::string
encodeResult(const SimResult &r)
{
    std::string out = "{";
    for (const auto &[key, field] : resultFields)
        std::visit([&](auto member) { put(out, key, r.*member); }, field);
    putNumbers(out, "metrics", r.metrics);
    // Only present for accounting-enabled runs, so journals written by
    // older builds decode unchanged and plain runs keep their exact
    // record bytes.
    if (!r.accounting.empty()) {
        out += ',';
        putNumbers(out, "accounting", r.accounting);
    }
    out += "}";
    return out;
}

// ---- Decoding ----------------------------------------------------------
//
// Records are read with the common JSON reader. A line that is not one
// complete JSON object, including a line torn by a crash mid-append,
// or that lacks a field or holds one of the wrong kind or range, makes
// the decode functions return false, and the caller skips the record.

bool
get(const json::Value &obj, const char *key, std::string &out)
{
    const auto v = obj.find(key);
    if (!v || !v->isString())
        return false;
    out = v->text();
    return true;
}

/** A non-negative integer that fits in 64 bits: no sign, point or exponent. */
bool
get(const json::Value &obj, const char *key, std::uint64_t &out)
{
    const auto v = obj.find(key);
    if (!v || !v->isNumber())
        return false;
    const std::string_view digits = v->text();
    const char *last = digits.data() + digits.size();
    const auto [end, ec] = std::from_chars(digits.data(), last, out);
    return ec == std::errc() && end == last;
}

/** Any number: the reader has already held it to a finite double. */
bool
get(const json::Value &obj, const char *key, double &out)
{
    const auto v = obj.find(key);
    if (!v || !v->isNumber())
        return false;
    out = v->asNumber();
    return true;
}

/** An object of numbers into @p out. */
bool
getNumbers(const json::Value &obj, std::map<std::string, double> &out)
{
    out.clear();
    if (!obj.isObject())
        return false;
    for (const auto &[name, value] : obj.members()) {
        if (!value.isNumber())
            return false;
        out[std::string(name)] = value.asNumber();
    }
    return true;
}

bool
decodeResult(const json::Value &obj, SimResult &r)
{
    for (const auto &[key, field] : resultFields)
        if (!std::visit([&](auto member) { return get(obj, key, r.*member); },
                        field))
            return false;
    const auto metrics = obj.find("metrics");
    if (!metrics || !getNumbers(*metrics, r.metrics))
        return false;
    // Optional: only accounting-enabled runs write this block.
    r.accounting.clear();
    const auto acct = obj.find("accounting");
    return !acct || getNumbers(*acct, r.accounting);
}

} // namespace

std::string
encodeJournalRecord(std::size_t index, const JobOutcome &outcome)
{
    std::string out = "{";
    put(out, "index", static_cast<std::uint64_t>(index));
    put(out, "label", outcome.label);
    put(out, "benchmark", outcome.benchmark);
    put(out, "status", std::string(outcome.ok() ? "ok" : "failed"));
    put(out, "category",
        std::string(errorCategoryName(outcome.category)));
    put(out, "attempts", static_cast<std::uint64_t>(outcome.attempts));
    put(out, "error", outcome.error);
    if (outcome.ok()) {
        out += "\"result\":";
        out += encodeResult(outcome.result);
    } else {
        out.pop_back(); // trailing comma
    }
    out += "}\n";
    return out;
}

bool
decodeJournalRecord(const std::string &line, JournalRecord &record)
{
    try {
        const json::Document root = json::parse(line);
        JournalRecord parsed;
        std::uint64_t index = 0;
        std::string status;
        std::string category;
        std::uint64_t attempts = 0;
        if (!get(root, "index", index) ||
            !get(root, "label", parsed.outcome.label) ||
            !get(root, "benchmark", parsed.outcome.benchmark) ||
            !get(root, "status", status) ||
            !get(root, "category", category) ||
            !get(root, "attempts", attempts) ||
            !get(root, "error", parsed.outcome.error))
            return false;
        if (status != "ok" && status != "failed")
            return false;
        parsed.index = static_cast<std::size_t>(index);
        parsed.outcome.status =
            status == "ok" ? JobStatus::Ok : JobStatus::Failed;
        parsed.outcome.category = errorCategoryFromName(category);
        parsed.outcome.attempts =
            attempts ? static_cast<unsigned>(attempts) : 1;
        if (parsed.outcome.ok()) {
            const auto result = root.find("result");
            if (!result || !decodeResult(*result, parsed.outcome.result))
                return false;
        }
        record = std::move(parsed);
        return true;
    } catch (const std::exception &) {
        return false; // not one complete JSON document
    }
}

std::vector<JournalRecord>
loadJournal(const std::string &path)
{
    std::vector<JournalRecord> records;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return records; // no journal yet: fresh campaign
    std::string line;
    char buf[4096];
    std::size_t skipped = 0;
    auto flushLine = [&] {
        if (line.empty())
            return;
        JournalRecord record;
        if (decodeJournalRecord(line, record))
            records.push_back(std::move(record));
        else
            ++skipped;
        line.clear();
    };
    while (std::fgets(buf, sizeof(buf), file)) {
        line += buf;
        if (!line.empty() && line.back() == '\n') {
            line.pop_back();
            flushLine();
        }
    }
    flushLine(); // trailing data without a newline (crash mid-append)
    std::fclose(file);
    if (skipped)
        ctcp_warn("journal %s: skipped %zu undecodable record%s "
                  "(interrupted write?)",
                  path.c_str(), skipped, skipped == 1 ? "" : "s");
    return records;
}

std::string
readJournalTail(const std::string &path, std::uint64_t offset,
                std::uint64_t &next)
{
    next = offset;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return {}; // nothing appended yet
    std::string bytes;
    if (std::fseek(file, static_cast<long>(offset), SEEK_SET) == 0) {
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0)
            bytes.append(buf, n);
    }
    std::fclose(file);
    // Only hand out whole lines: drop any torn tail (an append still
    // in flight, or the remnant of a crash) back into the stream for
    // the next poll.
    const std::size_t last_newline = bytes.rfind('\n');
    if (last_newline == std::string::npos)
        return {};
    bytes.resize(last_newline + 1);
    next = offset + bytes.size();
    return bytes;
}

MergeResult
mergeJournalFiles(const std::vector<std::string> &inputs,
                  const std::vector<Job> &jobs,
                  const std::string &outPath)
{
    MergeResult result;
    std::vector<char> merged(jobs.size(), 0);
    std::FILE *out = std::fopen(outPath.c_str(), "wb");
    if (!out)
        throw SimError(ErrorCategory::Config,
                       "cannot write merged journal " + outPath);
    for (const std::string &input : inputs) {
        for (const JournalRecord &rec : loadJournal(input)) {
            if (rec.index >= jobs.size() ||
                rec.outcome.label != jobs[rec.index].label) {
                ++result.mismatched;
                continue;
            }
            if (merged[rec.index]) {
                ++result.duplicates;
                continue;
            }
            merged[rec.index] = 1;
            // Re-encoding is exact: the %.17g round-trip contract
            // makes decode(encode(decode(x))) == decode(x).
            const std::string line =
                encodeJournalRecord(rec.index, rec.outcome);
            std::fwrite(line.data(), 1, line.size(), out);
            ++result.merged;
        }
    }
    std::fclose(out);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (!merged[i])
            result.missingSlots.push_back(i);
    return result;
}

std::string
formatSlotRanges(const std::vector<std::size_t> &slots)
{
    std::string out;
    std::size_t i = 0;
    while (i < slots.size()) {
        std::size_t j = i;
        while (j + 1 < slots.size() && slots[j + 1] == slots[j] + 1)
            ++j;
        if (!out.empty())
            out += ',';
        out += std::to_string(slots[i]);
        if (j > i)
            out += '-' + std::to_string(slots[j]);
        i = j + 1;
    }
    return out;
}

namespace {

/**
 * Cut @p path back to just after its last newline. Records are written
 * whole and flushed, and readJournalTail() never hands out a line
 * without its newline, so bytes after the last newline can only be a
 * write torn by a crash, and no reader's offset points past them.
 * Appending after them would glue the next record onto the fragment,
 * and that line would never decode.
 */
void
dropTornTail(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return; // a new journal
    std::uint64_t size = 0;
    if (std::fseek(file, 0, SEEK_END) == 0 && std::ftell(file) > 0)
        size = static_cast<std::uint64_t>(std::ftell(file));
    // Scan back a chunk at a time for the last newline.
    std::uint64_t keep = size;
    char buf[4096];
    while (keep > 0) {
        const std::size_t n = std::min<std::uint64_t>(keep, sizeof(buf));
        if (std::fseek(file, static_cast<long>(keep - n), SEEK_SET) != 0 ||
            std::fread(buf, 1, n, file) != n) {
            keep = size; // unreadable: leave the file as it is
            break;
        }
        const std::size_t newline = std::string_view(buf, n).rfind('\n');
        if (newline != std::string_view::npos) {
            keep -= n - newline - 1;
            break;
        }
        keep -= n;
    }
    std::fclose(file);
    if (keep == size)
        return;
    std::error_code ec;
    std::filesystem::resize_file(path, keep, ec);
    if (ec)
        ctcp_warn("journal %s: cannot drop its torn last line: %s",
                  path.c_str(), ec.message().c_str());
    else
        ctcp_warn("journal %s: dropped a torn last line (%llu bytes)",
                  path.c_str(),
                  static_cast<unsigned long long>(size - keep));
}

} // namespace

JournalWriter::JournalWriter(std::string path)
    : path_(std::move(path))
{
    dropTornTail(path_);
    file_ = std::fopen(path_.c_str(), "ab");
    if (!file_)
        throw SimError(ErrorCategory::Config,
                       "cannot open journal " + path_ + ": " +
                           std::strerror(errno));
}

JournalWriter::~JournalWriter()
{
    if (file_)
        std::fclose(file_);
}

void
JournalWriter::append(std::size_t index, const JobOutcome &outcome)
{
    const std::string record = encodeJournalRecord(index, outcome);
    std::lock_guard<std::mutex> lock(mutex_);
    if (std::fwrite(record.data(), 1, record.size(), file_) !=
        record.size() ||
        std::fflush(file_) != 0)
        ctcp_warn("journal %s: write failed: %s (resume may re-run "
                  "this job)",
                  path_.c_str(), std::strerror(errno));
}

} // namespace ctcp::campaign
