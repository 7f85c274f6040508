/**
 * @file
 * Observability subsystem tests: sink filtering and delivery, writer
 * failure modes, writer bytes against a printf reference of the
 * format, and — against a real 100k-instruction gzip/FDRT run —
 * well-formedness of the Chrome trace_event JSON, presence of every
 * event kind, per-instruction stage ordering, per-kind cycle
 * monotonicity, interval-CSV row count (exactly ceil(cycles / N)),
 * the interval-CSV reader under seeded mutation, byte-identical
 * reruns, and campaign telemetry determinism across worker counts.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hh"
#include "common/random.hh"
#include "config/presets.hh"
#include "core/simulator.hh"
#include "mutate.hh"
#include "obs/report.hh"
#include "obs/sink.hh"
#include "obs/writers.hh"
#include "tmp_dir.hh"
#include "workload/workload.hh"

namespace ctcp {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/**
 * Minimal recursive-descent JSON syntax checker. Accepts exactly the
 * JSON grammar (objects, arrays, strings with escapes, numbers,
 * true/false/null); valid() requires the whole input to be one value.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool eof() const { return pos_ >= s_.size(); }
    char peek() const { return s_[pos_]; }

    void
    skipWs()
    {
        while (!eof() && std::isspace(static_cast<unsigned char>(peek())))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p, ++pos_)
            if (eof() || peek() != *p)
                return false;
        return true;
    }

    bool
    string()
    {
        if (eof() || peek() != '"')
            return false;
        ++pos_;
        while (!eof() && peek() != '"') {
            if (peek() == '\\') {
                ++pos_;
                if (eof())
                    return false;
            }
            ++pos_;
        }
        if (eof())
            return false;
        ++pos_;   // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (!eof() && peek() == '-')
            ++pos_;
        while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (!eof() && peek() == '.') {
            ++pos_;
            while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!eof() && (peek() == '+' || peek() == '-'))
                ++pos_;
            while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        return pos_ > start;
    }

    bool
    value()
    {
        if (eof())
            return false;
        switch (peek()) {
          case '{': {
            ++pos_;
            skipWs();
            if (!eof() && peek() == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
                if (!string())
                    return false;
                skipWs();
                if (eof() || peek() != ':')
                    return false;
                ++pos_;
                skipWs();
                if (!value())
                    return false;
                skipWs();
                if (!eof() && peek() == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            if (eof() || peek() != '}')
                return false;
            ++pos_;
            return true;
          }
          case '[': {
            ++pos_;
            skipWs();
            if (!eof() && peek() == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
                if (!value())
                    return false;
                skipWs();
                if (!eof() && peek() == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            if (eof() || peek() != ']')
                return false;
            ++pos_;
            return true;
          }
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/** ObsWriter that captures recorded events in memory. */
class CaptureWriter : public ObsWriter
{
  public:
    explicit CaptureWriter(std::vector<ObsEvent> &out, int *ends = nullptr)
        : out_(out), ends_(ends)
    {
    }

    void write(const ObsEvent &event) override { out_.push_back(event); }

    void
    end() override
    {
        if (ends_)
            ++*ends_;
    }

  private:
    std::vector<ObsEvent> &out_;
    int *ends_;
};

/** The acceptance-criterion configuration: 100k-instruction gzip/FDRT. */
SimConfig
tracedConfig()
{
    SimConfig cfg = baseConfig();
    cfg.assign.strategy = AssignStrategy::Fdrt;
    cfg.instructionLimit = 100'000;
    return cfg;
}

constexpr std::uint64_t kInterval = 1'000;

struct TraceRun
{
    std::string jsonPath;
    std::string textPath;
    std::string csvPath;
    SimResult result;
};

/** One shared traced run; the expensive part happens once per binary. */
const TraceRun &
tracedRun()
{
    static const TraceRun run = [] {
        TraceRun r;
        // ctest runs each gtest case as its own process, and under -j
        // several of them rebuild this run concurrently: the temporary
        // directory is per-process, so they never share a file.
        r.jsonPath = test::tmpPath("obs_run.trace.json");
        r.textPath = test::tmpPath("obs_run.trace.txt");
        r.csvPath = test::tmpPath("obs_run.intervals.csv");
        SimConfig cfg = tracedConfig();
        cfg.obs.traceEventsPath = r.jsonPath;
        cfg.obs.traceTextPath = r.textPath;
        cfg.obs.intervalPath = r.csvPath;
        cfg.obs.intervalCycles = kInterval;
        const Program program = workloads::build("gzip");
        CtcpSimulator sim(cfg, program);
        r.result = sim.run();
        return r;
    }();
    return run;
}

/** One parsed line of ObsTextWriter output. */
struct TextEvent
{
    std::uint64_t cycle = 0;
    std::string kind;
    std::uint64_t seq = invalidSeqNum;
};

std::vector<TextEvent>
parseTextTrace(const std::string &path)
{
    std::vector<TextEvent> events;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        TextEvent ev;
        fields >> ev.cycle >> ev.kind;
        std::string tok;
        while (fields >> tok)
            if (tok.rfind("seq=", 0) == 0)
                ev.seq = std::stoull(tok.substr(4));
        events.push_back(ev);
    }
    return events;
}

// ---------------------------------------------------------------------
// Sink unit tests
// ---------------------------------------------------------------------

TEST(ObsSink, ParseFilterAcceptsAllAndEmpty)
{
    EXPECT_EQ(ObsSink::parseFilter(""), ObsSink::allKinds());
    EXPECT_EQ(ObsSink::parseFilter("all"), ObsSink::allKinds());
}

TEST(ObsSink, ParseFilterSelectsNamedKinds)
{
    const std::uint32_t mask = ObsSink::parseFilter("fetch,retire,tc-hit");
    ObsSink sink;
    sink.setFilter(mask);
    EXPECT_TRUE(sink.enabled(ObsKind::Fetch));
    EXPECT_TRUE(sink.enabled(ObsKind::Retire));
    EXPECT_TRUE(sink.enabled(ObsKind::TcHit));
    EXPECT_FALSE(sink.enabled(ObsKind::Issue));
    EXPECT_FALSE(sink.enabled(ObsKind::Mem));
}

TEST(ObsSink, ParseFilterRejectsUnknownKind)
{
    EXPECT_THROW(ObsSink::parseFilter("fetch,warp"), std::invalid_argument);
    EXPECT_THROW(ObsSink::parseFilter("FETCH"), std::invalid_argument);
    EXPECT_THROW(ObsSink::parseFilter("fetch,,retire"),
                 std::invalid_argument);
}

TEST(ObsSink, ParseFilterErrorNamesTheKindAndListsValidOnes)
{
    // The message is user-facing --trace-filter feedback: it must name
    // the offending token and enumerate the whole taxonomy.
    try {
        ObsSink::parseFilter("fetch,warp");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'warp'"), std::string::npos) << msg;
        for (unsigned k = 0; k < numObsKinds; ++k)
            EXPECT_NE(msg.find(obsKindName(static_cast<ObsKind>(k))),
                      std::string::npos)
                << obsKindName(static_cast<ObsKind>(k));
    }
}

TEST(ObsSink, EveryKindNameRoundTrips)
{
    for (unsigned k = 0; k < numObsKinds; ++k) {
        const ObsKind kind = static_cast<ObsKind>(k);
        const std::uint32_t mask = ObsSink::parseFilter(obsKindName(kind));
        EXPECT_EQ(mask, 1u << k) << obsKindName(kind);
    }
}

TEST(ObsSink, RecordRespectsFilterAndCountsPerKind)
{
    std::vector<ObsEvent> seen;
    ObsSink sink;
    sink.addWriter(std::make_unique<CaptureWriter>(seen));
    sink.setFilter(ObsSink::parseFilter("fetch,retire"));

    ObsEvent fetch;
    fetch.kind = ObsKind::Fetch;
    ObsEvent issue;
    issue.kind = ObsKind::Issue;
    ObsEvent retire;
    retire.kind = ObsKind::Retire;
    sink.record(fetch);
    sink.record(issue);    // filtered out
    sink.record(retire);
    sink.record(fetch);
    sink.finish();

    EXPECT_EQ(sink.recorded(), 3u);
    EXPECT_EQ(sink.recorded(ObsKind::Fetch), 2u);
    EXPECT_EQ(sink.recorded(ObsKind::Retire), 1u);
    EXPECT_EQ(sink.recorded(ObsKind::Issue), 0u);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].kind, ObsKind::Fetch);
    EXPECT_EQ(seen[1].kind, ObsKind::Retire);
    EXPECT_EQ(seen[2].kind, ObsKind::Fetch);
}

TEST(ObsSink, RecordReachesEveryWriterBeforeFinish)
{
    std::vector<ObsEvent> first;
    std::vector<ObsEvent> second;
    int ends = 0;
    ObsSink sink;
    sink.addWriter(std::make_unique<CaptureWriter>(first, &ends));
    sink.addWriter(std::make_unique<CaptureWriter>(second, &ends));
    ObsEvent ev;
    ev.kind = ObsKind::Fetch;
    for (std::uint64_t i = 0; i < 100; ++i) {
        ev.cycle = i;
        sink.record(ev);
        // Nothing is staged: both writers hold the event on return.
        ASSERT_EQ(first.size(), i + 1);
        ASSERT_EQ(second.size(), i + 1);
        EXPECT_EQ(first.back().cycle, i);
        EXPECT_EQ(second.back().cycle, i);
    }
    EXPECT_EQ(ends, 0);
    sink.finish();
    EXPECT_EQ(ends, 2);
}

TEST(ObsSink, FinishIsIdempotent)
{
    std::vector<ObsEvent> seen;
    int ends = 0;
    ObsSink sink;
    sink.addWriter(std::make_unique<CaptureWriter>(seen, &ends));
    ObsEvent ev;
    ev.kind = ObsKind::Retire;
    sink.record(ev);
    sink.finish();
    sink.finish();
    EXPECT_EQ(seen.size(), 1u);
    EXPECT_EQ(ends, 1);
}

TEST(ObsWriters, UnwritablePathThrows)
{
    const std::string bad = "/no-such-dir-ctcp/obs.out";
    EXPECT_THROW(ChromeTraceWriter writer(bad), std::runtime_error);
    EXPECT_THROW(ObsTextWriter writer(bad), std::runtime_error);
}

// ---------------------------------------------------------------------
// Writer bytes: the trace formats are a contract, so both writers are
// checked byte for byte against a printf rendering of the format.
// ---------------------------------------------------------------------

void
appendf(std::string &out, const char *fmt, ...)
{
    char line[512];
    va_list args;
    va_start(args, fmt);
    const int n = std::vsnprintf(line, sizeof(line), fmt, args);
    va_end(args);
    ASSERT_GE(n, 0);
    ASSERT_LT(static_cast<std::size_t>(n), sizeof(line));
    out.append(line, static_cast<std::size_t>(n));
}

int
referenceTid(const ObsEvent &event)
{
    switch (event.kind) {
      case ObsKind::Complete:
      case ObsKind::Retire:
        return 1;
      case ObsKind::Mem:
        return 2;
      case ObsKind::Issue:
      case ObsKind::Execute:
      case ObsKind::Forward:
        return event.cluster == invalidCluster
            ? 0 : 10 + static_cast<int>(event.cluster);
      default:
        return 0;
    }
}

std::string
chromeReference(const std::vector<ObsEvent> &events)
{
    std::string out =
        "{\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"ctcpsim\"}}";
    std::set<int> named;
    for (const ObsEvent &ev : events) {
        const int tid = referenceTid(ev);
        if (named.insert(tid).second) {
            char name[32];
            if (tid == 0)
                std::snprintf(name, sizeof(name), "frontend");
            else if (tid == 1)
                std::snprintf(name, sizeof(name), "commit");
            else if (tid == 2)
                std::snprintf(name, sizeof(name), "memory");
            else
                std::snprintf(name, sizeof(name), "cluster %d", tid - 10);
            appendf(out,
                    ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                    "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                    tid, name);
            appendf(out,
                    ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                    "\"name\":\"thread_sort_index\","
                    "\"args\":{\"sort_index\":%d}}",
                    tid, tid);
        }
        const char *kind = obsKindName(ev.kind);
        if (ev.kind == ObsKind::Execute)
            appendf(out,
                    ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
                    ",\"name\":\"%.*s\",\"cat\":\"%s\"",
                    tid, ev.begin, ev.dur ? ev.dur : 1,
                    static_cast<int>(ev.label.size()), ev.label.data(),
                    kind);
        else
            appendf(out,
                    ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%" PRIu64 ",\"s\":\"t\",\"name\":\"%s\","
                    "\"cat\":\"%s\"",
                    tid, ev.cycle, kind, kind);
        out += ",\"args\":{";
        const char *sep = "";
        if (ev.seq != invalidSeqNum) {
            appendf(out, "\"seq\":%" PRIu64, ev.seq);
            sep = ",";
        }
        if (ev.pc) {
            appendf(out, "%s\"pc\":%" PRIu64, sep, ev.pc);
            sep = ",";
        }
        if (ev.cluster != invalidCluster) {
            appendf(out, "%s\"cluster\":%d", sep,
                    static_cast<int>(ev.cluster));
            sep = ",";
        }
        if (ev.opt) {
            appendf(out, "%s\"option\":\"%c\"", sep, ev.opt);
            sep = ",";
        }
        if (ev.arg0) {
            appendf(out, "%s\"arg0\":%" PRId64, sep, ev.arg0);
            sep = ",";
        }
        if (ev.arg1) {
            appendf(out, "%s\"arg1\":%" PRId64, sep, ev.arg1);
            sep = ",";
        }
        if (!ev.label.empty() && ev.kind != ObsKind::Execute)
            appendf(out, "%s\"op\":\"%.*s\"", sep,
                    static_cast<int>(ev.label.size()), ev.label.data());
        out += "}}";
    }
    out += "\n]}\n";
    return out;
}

std::string
textReference(const std::vector<ObsEvent> &events)
{
    std::string out;
    for (const ObsEvent &ev : events) {
        appendf(out, "%" PRIu64 " %s", ev.cycle, obsKindName(ev.kind));
        if (ev.seq != invalidSeqNum)
            appendf(out, " seq=%" PRIu64, ev.seq);
        if (ev.pc)
            appendf(out, " pc=0x%" PRIx64, ev.pc);
        if (ev.cluster != invalidCluster)
            appendf(out, " cl=%d", static_cast<int>(ev.cluster));
        if (ev.opt)
            appendf(out, " opt=%c", ev.opt);
        if (!ev.label.empty())
            appendf(out, " op=%.*s", static_cast<int>(ev.label.size()),
                    ev.label.data());
        switch (ev.kind) {
          case ObsKind::Fetch:
            if (ev.arg0)
                out += " from=tc";
            break;
          case ObsKind::TcHit:
          case ObsKind::TraceBuild:
            appendf(out, " insts=%" PRId64, ev.arg0);
            if (ev.kind == ObsKind::TraceBuild)
                appendf(out, " blocks=%" PRId64, ev.arg1);
            break;
          case ObsKind::Execute:
            appendf(out, " begin=%" PRIu64 " dur=%" PRIu64, ev.begin,
                    ev.dur);
            break;
          case ObsKind::Forward:
            appendf(out, " hops=%" PRId64 " from_cl=%" PRId64, ev.arg0,
                    ev.arg1);
            break;
          case ObsKind::Flush:
            appendf(out, " resume=%" PRId64, ev.arg0);
            break;
          case ObsKind::Mem:
            appendf(out, " addr=0x%" PRIx64 " level=%" PRId64
                         " lat=%" PRIu64,
                    static_cast<std::uint64_t>(ev.arg0), ev.arg1, ev.dur);
            break;
          default:
            break;
        }
        out += '\n';
    }
    return out;
}

/** "" when equal, else the first differing offset with context. */
std::string
firstDifference(const std::string &actual, const std::string &expected)
{
    if (actual == expected)
        return "";
    std::size_t at = 0;
    while (at < actual.size() && at < expected.size() &&
           actual[at] == expected[at])
        ++at;
    const std::size_t from = at < 40 ? 0 : at - 40;
    return "sizes " + std::to_string(actual.size()) + " vs " +
        std::to_string(expected.size()) + ", first difference at byte " +
        std::to_string(at) + ":\n  actual:   " +
        actual.substr(from, 100) + "\n  expected: " +
        expected.substr(from, 100);
}

/** Seeded events of every kind, with each field's edge values mixed in. */
std::vector<ObsEvent>
randomEvents(std::uint64_t seed, std::size_t count)
{
    constexpr std::uint64_t u64max = std::numeric_limits<std::uint64_t>::max();
    constexpr std::int64_t i64min = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t i64max = std::numeric_limits<std::int64_t>::max();
    static const char *const labels[] = {"", "add", "ld.w", "bne",
                                         "rob", "cluster-occupancy"};
    static const char options[] = {0, 'A', 'B', 'C', 'D', 'E', 'S'};
    Rng rng(seed);
    auto pickU64 = [&rng] {
        switch (rng.below(4)) {
          case 0: return std::uint64_t{0};
          case 1: return u64max;
          case 2: return rng.below(100'000);
          default: return rng.next();
        }
    };
    auto pickI64 = [&rng] {
        switch (rng.below(6)) {
          case 0: return std::int64_t{0};
          case 1: return i64min;
          case 2: return i64max;
          case 3: return rng.range(-1'000, -1);
          case 4: return rng.range(1, 1'000);
          default: return static_cast<std::int64_t>(rng.next());
        }
    };

    std::vector<ObsEvent> events;
    for (std::size_t i = 0; i < count; ++i) {
        ObsEvent ev;
        ev.kind = static_cast<ObsKind>(i % numObsKinds);
        ev.cycle = pickU64();
        ev.cluster = rng.chance(1, 3)
            ? invalidCluster : static_cast<ClusterId>(rng.below(8));
        ev.opt = options[rng.below(sizeof(options))];
        ev.seq = rng.chance(1, 3) ? invalidSeqNum : pickU64();
        ev.pc = pickU64();
        ev.arg0 = pickI64();
        ev.arg1 = pickI64();
        ev.begin = pickU64();
        ev.dur = pickU64();
        ev.label = labels[rng.below(std::size(labels))];
        events.push_back(ev);
    }
    return events;
}

/** Both writers' files for @p events, recorded through one sink. */
std::pair<std::string, std::string>
writeBoth(const std::vector<ObsEvent> &events)
{
    const std::string json = test::tmpPath("writer_bytes.trace.json");
    const std::string text = test::tmpPath("writer_bytes.trace.txt");
    {
        ObsSink sink;
        sink.addWriter(std::make_unique<ChromeTraceWriter>(json));
        sink.addWriter(std::make_unique<ObsTextWriter>(text));
        for (const ObsEvent &ev : events)
            sink.record(ev);
    }
    EXPECT_FALSE(std::filesystem::exists(json + ".tmp"));
    EXPECT_FALSE(std::filesystem::exists(text + ".tmp"));
    return {readFile(json), readFile(text)};
}

TEST(ObsWriters, BytesMatchPrintfReference)
{
    // Enough events that both writers drain their buffers many times.
    const std::vector<ObsEvent> events = randomEvents(16, 30'000);
    std::set<int> tids;
    std::set<ObsKind> kinds;
    bool zeroDurExecute = false;
    for (const ObsEvent &ev : events) {
        tids.insert(referenceTid(ev));
        kinds.insert(ev.kind);
        zeroDurExecute |= ev.kind == ObsKind::Execute && ev.dur == 0;
    }
    ASSERT_EQ(kinds.size(), numObsKinds);
    ASSERT_EQ(tids.size(), 11u); // 0-2 and clusters 0-7
    ASSERT_TRUE(zeroDurExecute);

    const auto [json, text] = writeBoth(events);
    EXPECT_GT(json.size(), 10 * TraceBuffer::capacity);
    EXPECT_EQ(firstDifference(json, chromeReference(events)), "");
    EXPECT_EQ(firstDifference(text, textReference(events)), "");

    // A trace without events is just the header and trailer.
    const auto [emptyJson, emptyText] = writeBoth({});
    EXPECT_EQ(emptyJson, chromeReference({}));
    EXPECT_EQ(emptyText, "");
}

// ---------------------------------------------------------------------
// End-to-end trace contents (shared 100k gzip/FDRT run)
// ---------------------------------------------------------------------

TEST(ObsTrace, ChromeJsonIsWellFormed)
{
    const std::string json = readFile(tracedRun().jsonPath);
    ASSERT_FALSE(json.empty());
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Track metadata Perfetto uses to lay out and label the rows.
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(ObsTrace, EveryEventKindAppears)
{
    const TraceRun &run = tracedRun();
    const std::string json = readFile(run.jsonPath);
    for (unsigned k = 0; k < numObsKinds; ++k) {
        const ObsKind kind = static_cast<ObsKind>(k);
        if (kind == ObsKind::Snapshot)
            continue; // only emitted by watchdog pipeline-state dumps
        const std::string cat =
            std::string("\"cat\":\"") + obsKindName(kind) + "\"";
        EXPECT_NE(json.find(cat), std::string::npos) << obsKindName(kind);
        const auto metric = run.result.metrics.find(
            std::string("obs.events.") + obsKindName(kind));
        ASSERT_NE(metric, run.result.metrics.end()) << obsKindName(kind);
        EXPECT_GT(metric->second, 0.0) << obsKindName(kind);
    }
}

TEST(ObsTrace, PipelineStagesOrderedPerInstruction)
{
    // Every instruction must move through the pipeline in order:
    // fetch <= rename <= issue <= execute <= complete <= retire.
    const std::vector<TextEvent> events =
        parseTextTrace(tracedRun().textPath);
    ASSERT_FALSE(events.empty());
    const std::vector<std::string> order = {
        "fetch", "rename", "issue", "execute", "complete", "retire"};
    std::map<std::uint64_t, std::map<std::string, std::uint64_t>> first;
    for (const TextEvent &ev : events)
        if (ev.seq != invalidSeqNum && !first[ev.seq].count(ev.kind))
            first[ev.seq][ev.kind] = ev.cycle;

    std::size_t checked = 0;
    for (const auto &[seq, stages] : first) {
        for (std::size_t i = 0; i + 1 < order.size(); ++i) {
            const auto a = stages.find(order[i]);
            const auto b = stages.find(order[i + 1]);
            if (a == stages.end() || b == stages.end())
                continue;
            ASSERT_LE(a->second, b->second)
                << "seq " << seq << ": " << order[i] << "@" << a->second
                << " after " << order[i + 1] << "@" << b->second;
            ++checked;
        }
    }
    // The run retires ~100k instructions; the ordering must have been
    // exercised across essentially all of them.
    EXPECT_GT(checked, 100'000u);
}

TEST(ObsTrace, CyclesMonotonePerKind)
{
    // Events are drained in record order, and every kind except "mem"
    // is stamped with the current cycle at emission, so each kind's
    // cycle sequence must be non-decreasing. ("mem" is stamped with
    // the load's service cycle, which can complete out of order.)
    const std::vector<TextEvent> events =
        parseTextTrace(tracedRun().textPath);
    ASSERT_FALSE(events.empty());
    std::map<std::string, std::uint64_t> last;
    for (const TextEvent &ev : events) {
        if (ev.kind == "mem")
            continue;
        const auto it = last.find(ev.kind);
        if (it != last.end()) {
            ASSERT_GE(ev.cycle, it->second) << ev.kind;
        }
        last[ev.kind] = ev.cycle;
    }
    EXPECT_GT(last.size(), 10u);   // most kinds seen
}

TEST(ObsTrace, IntervalCsvHasExactlyCeilRows)
{
    const TraceRun &run = tracedRun();
    const std::string csv = readFile(run.csvPath);
    const std::size_t lines =
        static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
    const std::uint64_t expected =
        (run.result.cycles + kInterval - 1) / kInterval;
    EXPECT_EQ(lines, expected + 1);   // header + ceil(cycles / N) rows
    EXPECT_EQ(csv.rfind("cycle,ipc,", 0), 0u);
    const auto rows = run.result.metrics.find("interval.rows");
    ASSERT_NE(rows, run.result.metrics.end());
    EXPECT_EQ(static_cast<std::uint64_t>(rows->second), expected);
}

TEST(IntervalCsvFuzz, MutatedCsvDecodesOrThrowsNamedError)
{
    // ctcp_report reads interval CSVs back for its sparklines: every
    // mutant of a real one either decodes to finite values or fails
    // with a runtime_error naming the label and the line.
    const std::string csv = readFile(tracedRun().csvPath);
    const report::IntervalSeries clean =
        report::intervalSeriesFromCsv("gzip", csv);
    ASSERT_EQ(clean.cycles.size(),
              (tracedRun().result.cycles + kInterval - 1) / kInterval);
    Rng rng(20261019);
    std::size_t decoded = 0;
    for (unsigned i = 0; i < 3'000; ++i) {
        const std::string mutant = test::mutate(csv, rng);
        try {
            const report::IntervalSeries s =
                report::intervalSeriesFromCsv("gzip", mutant);
            ASSERT_EQ(s.cycles.size(), s.ipc.size());
            for (std::size_t k = 0; k < s.ipc.size(); ++k)
                ASSERT_TRUE(std::isfinite(s.cycles[k]) &&
                            std::isfinite(s.ipc[k]))
                    << mutant;
            ++decoded;
        } catch (const std::runtime_error &e) {
            ASSERT_EQ(std::string(e.what()).rfind(
                          "interval CSV for 'gzip' line ", 0),
                      0u)
                << e.what();
        }
    }
    EXPECT_GT(decoded, 50u);
    EXPECT_LT(decoded, 2'900u);
}

TEST(ObsTrace, RerunIsByteIdentical)
{
    const TraceRun &run = tracedRun();
    SimConfig cfg = tracedConfig();
    cfg.obs.traceEventsPath = test::tmpPath("obs_rerun.trace.json");
    cfg.obs.traceTextPath = test::tmpPath("obs_rerun.trace.txt");
    cfg.obs.intervalPath = test::tmpPath("obs_rerun.intervals.csv");
    cfg.obs.intervalCycles = kInterval;
    const Program program = workloads::build("gzip");
    CtcpSimulator sim(cfg, program);
    const SimResult result = sim.run();

    EXPECT_EQ(result.cycles, run.result.cycles);
    EXPECT_EQ(readFile(cfg.obs.traceEventsPath), readFile(run.jsonPath));
    EXPECT_EQ(readFile(cfg.obs.traceTextPath), readFile(run.textPath));
    EXPECT_EQ(readFile(cfg.obs.intervalPath), readFile(run.csvPath));
    // The rerun's files are as large as the shared run's; free them now
    // rather than at process exit.
    for (const std::string *path : {&cfg.obs.traceEventsPath,
                                     &cfg.obs.traceTextPath,
                                     &cfg.obs.intervalPath})
        std::filesystem::remove(*path);
}

TEST(ObsTrace, TracingDoesNotPerturbTheSimulation)
{
    // The observer must not change what it observes: an untraced run
    // of the same configuration produces identical results.
    const TraceRun &run = tracedRun();
    const Program program = workloads::build("gzip");
    CtcpSimulator sim(tracedConfig(), program);
    const SimResult result = sim.run();
    EXPECT_EQ(result.cycles, run.result.cycles);
    EXPECT_EQ(result.instructions, run.result.instructions);
    EXPECT_EQ(result.metrics.at("fwd.total"),
              run.result.metrics.at("fwd.total"));
    EXPECT_EQ(result.metrics.at("tc.hits"),
              run.result.metrics.at("tc.hits"));
    // Telemetry-only keys exist only when telemetry is on.
    EXPECT_EQ(result.metrics.count("obs.events.fetch"), 0u);
    EXPECT_EQ(result.metrics.count("interval.rows"), 0u);
}

TEST(ObsTrace, SimResultJsonCarriesMetricsMap)
{
    const std::string json = tracedRun().result.toJson();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid());
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
    EXPECT_NE(json.find("\"fwd.total\""), std::string::npos);
    EXPECT_NE(json.find("\"obs.events.assign\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Campaign telemetry
// ---------------------------------------------------------------------

TEST(ObsCampaign, SanitizeLabelIsFilesystemSafe)
{
    EXPECT_EQ(campaign::sanitizeLabel("gzip/base/fdrt"),
              "gzip_base_fdrt");
    EXPECT_EQ(campaign::sanitizeLabel("a b@3:4"), "a_b_3_4");
    EXPECT_EQ(campaign::sanitizeLabel("ok-1.x_y"), "ok-1.x_y");
    EXPECT_EQ(campaign::sanitizeLabel(""), "job");
}

TEST(ObsCampaign, TelemetryDeterministicAcrossWorkerCounts)
{
    // The acceptance bar: per-job interval CSVs and event traces are
    // byte-identical whether the campaign runs serially or on 4
    // workers.
    std::vector<campaign::Job> jobs;
    for (const char *bench : {"gzip", "twolf"}) {
        for (AssignStrategy s :
             {AssignStrategy::BaseSlotOrder, AssignStrategy::Fdrt}) {
            SimConfig cfg = baseConfig();
            cfg.assign.strategy = s;
            cfg.instructionLimit = 20'000;
            jobs.push_back(campaign::makeJob(
                std::string(bench) + "/" + assignStrategyName(s), bench,
                cfg));
        }
    }

    const std::string dir1 = test::tmpPath("obs_campaign_serial");
    const std::string dir4 = test::tmpPath("obs_campaign_parallel");
    std::filesystem::create_directories(dir1);
    std::filesystem::create_directories(dir4);

    campaign::Options serial;
    serial.jobs = 1;
    serial.traceEventsDir = dir1;
    serial.intervalDir = dir1;
    serial.intervalCycles = 500;
    campaign::Options parallel = serial;
    parallel.jobs = 4;
    parallel.traceEventsDir = dir4;
    parallel.intervalDir = dir4;

    const campaign::Report r1 = campaign::runCampaign(jobs, serial);
    const campaign::Report r4 = campaign::runCampaign(jobs, parallel);
    ASSERT_EQ(r1.failed(), 0u);
    ASSERT_EQ(r4.failed(), 0u);
    EXPECT_EQ(r1.toJson(), r4.toJson());

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const campaign::Job &job = jobs[i];
        const std::string stem = campaign::jobFileStem(job.label, i);
        const std::string csv1 =
            readFile(dir1 + "/" + stem + ".intervals.csv");
        EXPECT_FALSE(csv1.empty()) << job.label;
        EXPECT_EQ(csv1, readFile(dir4 + "/" + stem + ".intervals.csv"))
            << job.label;
        const std::string trace1 =
            readFile(dir1 + "/" + stem + ".trace.json");
        EXPECT_FALSE(trace1.empty()) << job.label;
        EXPECT_EQ(trace1, readFile(dir4 + "/" + stem + ".trace.json"))
            << job.label;
        JsonChecker checker(trace1);
        EXPECT_TRUE(checker.valid()) << job.label;
    }
}

TEST(ObsCampaign, UnwritableTelemetryPathFailsJobInIsolation)
{
    SimConfig cfg = baseConfig();
    cfg.instructionLimit = 5'000;
    cfg.obs.traceEventsPath = "/no-such-dir-ctcp/job.trace.json";
    const std::vector<campaign::Job> jobs = {
        campaign::makeJob("bad", "gzip", cfg),
        campaign::makeJob("good", "gzip",
                          [] {
                              SimConfig ok = baseConfig();
                              ok.instructionLimit = 5'000;
                              return ok;
                          }()),
    };
    const campaign::Report report = campaign::runCampaign(jobs);
    EXPECT_EQ(report.failed(), 1u);
    EXPECT_FALSE(report.at("bad").ok());
    EXPECT_NE(report.at("bad").error.find("cannot open"),
              std::string::npos);
    EXPECT_NE(report.at("bad").error.find("/no-such-dir-ctcp/"),
              std::string::npos);
    EXPECT_TRUE(report.at("good").ok());
}

} // namespace
} // namespace ctcp
