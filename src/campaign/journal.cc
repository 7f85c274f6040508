#include "campaign/journal.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "common/sim_error.hh"

namespace ctcp::campaign {

namespace {

// ---- Encoding ----------------------------------------------------------

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
put(std::string &out, const char *key, const std::string &value)
{
    out += '"';
    out += key;
    out += "\":\"";
    out += escape(value);
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

std::string
encodeResult(const SimResult &r)
{
    std::string out = "{";
    put(out, "benchmark", r.benchmark);
    put(out, "strategy", r.strategy);
    put(out, "cycles", r.cycles);
    put(out, "instructions", r.instructions);
    put(out, "pctFromTraceCache", r.pctFromTraceCache);
    put(out, "meanTraceSize", r.meanTraceSize);
    put(out, "pctCritFromRF", r.pctCritFromRF);
    put(out, "pctCritFromRs1", r.pctCritFromRs1);
    put(out, "pctCritFromRs2", r.pctCritFromRs2);
    put(out, "pctDepsCritical", r.pctDepsCritical);
    put(out, "pctCritInterTrace", r.pctCritInterTrace);
    put(out, "repeatRs1", r.repeatRs1);
    put(out, "repeatRs2", r.repeatRs2);
    put(out, "repeatRs1CritInter", r.repeatRs1CritInter);
    put(out, "repeatRs2CritInter", r.repeatRs2CritInter);
    put(out, "pctIntraClusterFwd", r.pctIntraClusterFwd);
    put(out, "meanFwdDistance", r.meanFwdDistance);
    put(out, "pctOptionA", r.pctOptionA);
    put(out, "pctOptionB", r.pctOptionB);
    put(out, "pctOptionC", r.pctOptionC);
    put(out, "pctOptionD", r.pctOptionD);
    put(out, "pctOptionE", r.pctOptionE);
    put(out, "pctSkipped", r.pctSkipped);
    put(out, "migrationAllPct", r.migrationAllPct);
    put(out, "migrationChainPct", r.migrationChainPct);
    put(out, "bpredAccuracy", r.bpredAccuracy);
    put(out, "tcHitRate", r.tcHitRate);
    put(out, "mispredicts", r.mispredicts);
    put(out, "hostSeconds", r.hostSeconds);
    put(out, "statsText", r.statsText);
    out += "\"metrics\":{";
    bool first = true;
    for (const auto &[name, value] : r.metrics) {
        if (!first)
            out += ',';
        first = false;
        char buf[192];
        std::snprintf(buf, sizeof(buf), "\"%s\":%.17g",
                      escape(name).c_str(), value);
        out += buf;
    }
    out += "}";
    // Only present for accounting-enabled runs, so journals written by
    // older builds decode unchanged and plain runs keep their exact
    // record bytes.
    if (!r.accounting.empty()) {
        out += ",\"accounting\":{";
        first = true;
        for (const auto &[name, value] : r.accounting) {
            if (!first)
                out += ',';
            first = false;
            char buf[192];
            std::snprintf(buf, sizeof(buf), "\"%s\":%.17g",
                          escape(name).c_str(), value);
            out += buf;
        }
        out += "}";
    }
    out += "}";
    return out;
}

// ---- Decoding ----------------------------------------------------------
//
// Minimal recursive-descent JSON parser, sufficient for the records
// this file writes (objects, strings, numbers). Any deviation —
// including a line truncated by a crash mid-append — makes a parse
// function return false, and the caller skips the record.

struct JsonValue
{
    enum class Kind : std::uint8_t { Null, Number, String, Object };

    Kind kind = Kind::Null;
    /** Raw numeric text; lets integers convert without a double trip. */
    std::string number;
    std::string str;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *
    find(const char *key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        return pos_ == text_.size();
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return false;
        const char c = text_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.str);
        }
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber(out);
        return false;
    }

    bool
    parseObject(JsonValue &out)
    {
        if (!consume('{'))
            return false;
        out.kind = JsonValue::Kind::Object;
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            std::string key;
            if (!parseString(key))
                return false;
            if (!consume(':'))
                return false;
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.object.emplace_back(std::move(key), std::move(value));
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return false;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= h - '0';
                    else if (h >= 'a' && h <= 'f')
                        code |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        code |= h - 'A' + 10;
                    else
                        return false;
                }
                // The encoder only emits \u00xx (control characters).
                out += static_cast<char>(code & 0xff);
                break;
              }
              default:
                return false;
            }
        }
        return false; // unterminated (truncated record)
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if ((c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                c == 'E' || c == '+' || c == '-')
                ++pos_;
            else
                break;
        }
        if (pos_ == start)
            return false;
        out.kind = JsonValue::Kind::Number;
        out.number = text_.substr(start, pos_ - start);
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

bool
getString(const JsonValue &obj, const char *key, std::string &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::Kind::String)
        return false;
    out = v->str;
    return true;
}

bool
getU64(const JsonValue &obj, const char *key, std::uint64_t &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::Kind::Number)
        return false;
    out = std::strtoull(v->number.c_str(), nullptr, 10);
    return true;
}

bool
getDouble(const JsonValue &obj, const char *key, double &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::Kind::Number)
        return false;
    out = std::strtod(v->number.c_str(), nullptr);
    return true;
}

bool
decodeResult(const JsonValue &obj, SimResult &r)
{
    bool ok = getString(obj, "benchmark", r.benchmark) &&
        getString(obj, "strategy", r.strategy) &&
        getU64(obj, "cycles", r.cycles) &&
        getU64(obj, "instructions", r.instructions) &&
        getDouble(obj, "pctFromTraceCache", r.pctFromTraceCache) &&
        getDouble(obj, "meanTraceSize", r.meanTraceSize) &&
        getDouble(obj, "pctCritFromRF", r.pctCritFromRF) &&
        getDouble(obj, "pctCritFromRs1", r.pctCritFromRs1) &&
        getDouble(obj, "pctCritFromRs2", r.pctCritFromRs2) &&
        getDouble(obj, "pctDepsCritical", r.pctDepsCritical) &&
        getDouble(obj, "pctCritInterTrace", r.pctCritInterTrace) &&
        getDouble(obj, "repeatRs1", r.repeatRs1) &&
        getDouble(obj, "repeatRs2", r.repeatRs2) &&
        getDouble(obj, "repeatRs1CritInter", r.repeatRs1CritInter) &&
        getDouble(obj, "repeatRs2CritInter", r.repeatRs2CritInter) &&
        getDouble(obj, "pctIntraClusterFwd", r.pctIntraClusterFwd) &&
        getDouble(obj, "meanFwdDistance", r.meanFwdDistance) &&
        getDouble(obj, "pctOptionA", r.pctOptionA) &&
        getDouble(obj, "pctOptionB", r.pctOptionB) &&
        getDouble(obj, "pctOptionC", r.pctOptionC) &&
        getDouble(obj, "pctOptionD", r.pctOptionD) &&
        getDouble(obj, "pctOptionE", r.pctOptionE) &&
        getDouble(obj, "pctSkipped", r.pctSkipped) &&
        getDouble(obj, "migrationAllPct", r.migrationAllPct) &&
        getDouble(obj, "migrationChainPct", r.migrationChainPct) &&
        getDouble(obj, "bpredAccuracy", r.bpredAccuracy) &&
        getDouble(obj, "tcHitRate", r.tcHitRate) &&
        getU64(obj, "mispredicts", r.mispredicts) &&
        getDouble(obj, "hostSeconds", r.hostSeconds) &&
        getString(obj, "statsText", r.statsText);
    if (!ok)
        return false;
    const JsonValue *metrics = obj.find("metrics");
    if (!metrics || metrics->kind != JsonValue::Kind::Object)
        return false;
    r.metrics.clear();
    for (const auto &[name, value] : metrics->object) {
        if (value.kind != JsonValue::Kind::Number)
            return false;
        r.metrics[name] = std::strtod(value.number.c_str(), nullptr);
    }
    // Optional: only accounting-enabled runs write this block.
    r.accounting.clear();
    if (const JsonValue *acct = obj.find("accounting")) {
        if (acct->kind != JsonValue::Kind::Object)
            return false;
        for (const auto &[name, value] : acct->object) {
            if (value.kind != JsonValue::Kind::Number)
                return false;
            r.accounting[name] =
                std::strtod(value.number.c_str(), nullptr);
        }
    }
    return true;
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
    JsonValue root;
    if (!Parser(line).parse(root) ||
        root.kind != JsonValue::Kind::Object)
        return false;

    JournalRecord parsed;
    std::uint64_t index = 0;
    std::string status;
    std::string category;
    std::uint64_t attempts = 0;
    if (!getU64(root, "index", index) ||
        !getString(root, "label", parsed.outcome.label) ||
        !getString(root, "benchmark", parsed.outcome.benchmark) ||
        !getString(root, "status", status) ||
        !getString(root, "category", category) ||
        !getU64(root, "attempts", attempts) ||
        !getString(root, "error", parsed.outcome.error))
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
        const JsonValue *result = root.find("result");
        if (!result || result->kind != JsonValue::Kind::Object ||
            !decodeResult(*result, parsed.outcome.result))
            return false;
    }
    record = std::move(parsed);
    return true;
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

JournalWriter::JournalWriter(std::string path)
    : path_(std::move(path))
{
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
