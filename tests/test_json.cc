/**
 * @file
 * The JSON reader (common/json): what it accepts and rejects, its error
 * positions, member order and number text, a parse of every JSON
 * document the repository writes, its heap use on a retire trace, and
 * seeded mutation fuzzing.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/journal.hh"
#include "campaign/matrix.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "config/presets.hh"
#include "core/simulator.hh"
#include "mutate.hh"
#include "tmp_dir.hh"
#include "workload/workload.hh"

// Heap accounting for the memory test: every replaceable operator new
// and delete of this test binary counts the usable size of each live
// block. The nothrow forms are replaced too: under ASan they would
// otherwise allocate through the sanitizer and be freed here.
namespace {

std::atomic<long> heapLive{0};
std::atomic<long> heapPeak{0};

void *
countedAlloc(std::size_t size) noexcept
{
    void *p = std::malloc(size ? size : 1);
    if (!p)
        return nullptr;
    const long now = heapLive += static_cast<long>(malloc_usable_size(p));
    long peak = heapPeak;
    while (now > peak && !heapPeak.compare_exchange_weak(peak, now)) {
    }
    return p;
}

void
countedFree(void *p) noexcept
{
    if (!p)
        return;
    heapLive -= static_cast<long>(malloc_usable_size(p));
    std::free(p);
}

} // namespace

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

namespace ctcp {
namespace {

std::string
quote(std::string_view s)
{
    return '"' + json::escape(s) + '"';
}

/** A canonical rendering: compact, numbers as written. */
std::string
dump(const json::Value &v)
{
    switch (v.kind()) {
      case json::Kind::Null:
        return "null";
      case json::Kind::Bool:
        return v.asBool() ? "true" : "false";
      case json::Kind::Number:
        return std::string(v.text());
      case json::Kind::String:
        return quote(v.text());
      case json::Kind::Array: {
        std::string out = "[";
        for (const json::Value item : v.items())
            out += (out.size() > 1 ? "," : "") + dump(item);
        return out + "]";
      }
      case json::Kind::Object: {
        std::string out = "{";
        for (const auto &[key, value] : v.members())
            out += (out.size() > 1 ? "," : "") + quote(key) + ":" +
                dump(value);
        return out + "}";
      }
    }
    return "?";
}

/** The message of parse(@p text)'s error, or "" if it parses. */
std::string
parseError(const std::string &text)
{
    try {
        json::parse(text);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(Json, AcceptsRfc8259Documents)
{
    for (const char *text :
         {"0", "-0", "1", "-1", "1.5", "-1.5e10", "1E+2", "1e-2", "0.0",
          "10", "123456789012345678901234567890",
          "1.7976931348623157e308", "4.9406564584124654e-324", "true",
          "false", "null", "\"\"", "\"a\\\"b\"", "\"\\u00e9\"",
          "\"\xf0\x9f\x98\x80\"", "\"\\/\\b\\f\\n\\r\\t\"", "[]", "{}",
          " \t\r\n[1, {\"a\": [true, null]}] \n", "{\"a\":1,\"a\":2}",
          "[[],[[]],{}]"}) {
        EXPECT_EQ(parseError(text), "") << text;
    }
}

TEST(Json, RejectsMalformedDocuments)
{
    for (const char *text :
         {// numbers
          "1-2", "-", "1e", "01", "1.2.3", "1e999", "-1e999", "1.", ".5",
          "+1", "1e+", "--1", "-01", "0x10", "NaN", "Infinity", "1 2",
          // trailing commas and missing pieces
          "[1,]", "{\"a\":1,}", "[,]", "{,}", "[1", "{\"a\"", "{\"a\":}",
          "{\"a\" 1}", "{a:1}", "[1 2]", "[1]]", "{} {}", "", "   ",
          // literals
          "tru", "nul", "truex", "True", "'a'", "/* */ 1",
          // strings: bad escapes, surrogate escapes, raw control
          // characters, unterminated
          "\"\\x\"", "\"\\u12\"", "\"\\u12G4\"", "\"\\u+123\"",
          "\"\\ud800\"", "\"\\udc00\"", "\"\\ud83d\\ude00\"",
          "\"a\nb\"", "\"a\tb\"", "\"abc", "\"\\"}) {
        const std::string error = parseError(text);
        EXPECT_NE(error, "") << "accepted: " << text;
    }
    EXPECT_NE(parseError(std::string("\"a\0b\"", 5)), "");
}

TEST(Json, DeepNestingParsesWithoutRecursion)
{
    const std::size_t depth = 100'000;
    const std::string deep =
        std::string(depth, '[') + std::string(depth, ']');
    const json::Document doc = json::parse(deep);
    std::size_t levels = 0;
    for (json::Value v = doc; v.isArray(); ++levels) {
        const auto items = v.items();
        if (items.begin() == items.end())
            break;
        v = *items.begin();
    }
    EXPECT_EQ(levels, depth - 1);
    EXPECT_NE(parseError(std::string(depth, '[')), "");
    EXPECT_NE(parseError(std::string(depth, '[') +
                         std::string(depth - 1, ']')),
              "");
}

TEST(Json, ErrorsNameTheBytePosition)
{
    EXPECT_NE(parseError("[1,]").find("at byte 3:"), std::string::npos);
    EXPECT_NE(parseError("{\"a\":1,}").find("at byte 7:"),
              std::string::npos);
    EXPECT_NE(parseError("1.2.3").find("at byte 3:"), std::string::npos);
    EXPECT_NE(parseError("  x").find("at byte 2:"), std::string::npos);
    EXPECT_NE(parseError("[1e999]").find("at byte 1:"), std::string::npos);
    EXPECT_NE(parseError("{\"a\":1} 2").find("at byte 8: trailing data"),
              std::string::npos);
    EXPECT_NE(parseError("[\"ab").find("at byte 4: unterminated string"),
              std::string::npos);
}

TEST(Json, MemberOrderIsKeptAndFindTakesTheFirstDuplicate)
{
    const json::Document doc =
        json::parse("{\"z\":1,\"a\":{\"x\":[]},\"m\":\"s\",\"z\":2}");
    std::vector<std::string> keys;
    for (const auto &[key, value] : doc.members())
        keys.emplace_back(key);
    EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m", "z"}));
    EXPECT_EQ(doc.num("z"), 1.0);
    EXPECT_EQ(doc.str("m"), "s");
    EXPECT_EQ(doc.str("z"), "") << "a number is not a string";
    EXPECT_EQ(doc.num("m", -1.0), -1.0) << "a string is not a number";
    EXPECT_FALSE(doc.find("absent"));
    ASSERT_TRUE(doc.find("a"));
    EXPECT_TRUE(doc.find("a")->find("x")->isArray());
    EXPECT_FALSE(doc.find("m")->find("x")) << "a string has no members";
}

TEST(Json, NumberTextRoundTripsExactly)
{
    const json::Document doc = json::parse(
        "[0.1, -0, 1e5, 12345678901234567890, 1.50, 2.5E-3]");
    std::vector<std::string> texts;
    std::vector<double> values;
    for (const json::Value v : doc.items()) {
        texts.emplace_back(v.text());
        values.push_back(v.asNumber());
    }
    EXPECT_EQ(texts, (std::vector<std::string>{"0.1", "-0", "1e5",
                                               "12345678901234567890",
                                               "1.50", "2.5E-3"}));
    EXPECT_EQ(values, (std::vector<double>{0.1, -0.0, 1e5,
                                           12345678901234567890.0, 1.5,
                                           2.5e-3}));
}

TEST(Json, StringsDecodeEscapesToUtf8)
{
    const json::Document doc = json::parse(
        "[\"plain\", \"tab\\tquote\\\"\", \"\\u00e9\\u20ac\", "
        "\"\xf0\x9f\x98\x80\", \"\\u0001\"]");
    std::vector<std::string> strings;
    for (const json::Value v : doc.items())
        strings.emplace_back(v.text());
    EXPECT_EQ(strings,
              (std::vector<std::string>{"plain", "tab\tquote\"",
                                        "\xc3\xa9\xe2\x82\xac",
                                        "\xf0\x9f\x98\x80", "\x01"}));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(Json, ReadsEveryDocumentTheRepositoryWrites)
{
    SimConfig cfg = baseConfig();
    cfg.assign.strategy = AssignStrategy::Fdrt;
    cfg.instructionLimit = 3000;
    cfg.obs.traceEventsPath = test::tmpPath("json_every.trace.json");
    const Program program = workloads::build("gzip");
    CtcpSimulator sim(cfg, program);
    const SimResult result = sim.run();

    // A Chrome trace with every event kind but the hang snapshot; each
    // memory access carries its latency.
    const json::Document trace =
        json::parse(readFile(cfg.obs.traceEventsPath));
    std::map<std::string, std::size_t> perKind;
    for (const json::Value event : trace.find("traceEvents")->items()) {
        ++perKind[event.str("cat")];
        if (event.str("cat") == "mem") {
            EXPECT_GT(event.find("args")->num("lat"), 0.0);
        }
    }
    EXPECT_EQ(perKind["retire"], result.instructions);
    for (const char *kind :
         {"fetch", "tc-hit", "tc-miss", "trace-build", "assign", "rename",
          "issue", "execute", "forward", "complete", "retire", "flush",
          "mem"})
        EXPECT_GT(perKind[kind], 0u) << kind;

    // SimResult::toJson.
    EXPECT_EQ(json::parse(result.toJson()).num("cycles"),
              static_cast<double>(result.cycles));

    // Report::toJson with accounting, and a journal record.
    campaign::Options options;
    options.jobs = 1;
    options.accounting = true;
    const campaign::Report report = campaign::runCampaign(
        campaign::parseMatrix("bench=gzip;strategy=fdrt;budget=3000"),
        options);
    ASSERT_EQ(report.failed(), 0u);
    const SimResult &job = report.jobs[0].result;
    const json::Document doc = json::parse(report.toJson(false, true));
    const json::Value entry = *doc.find("results")->items().begin();
    EXPECT_EQ(entry.str("label"), report.jobs[0].label);
    EXPECT_EQ(entry.find("metrics")->find("accounting")->num("slots.total"),
              job.accounting.at("slots.total"));

    const json::Document record = json::parse(
        campaign::encodeJournalRecord(5, report.jobs[0]));
    EXPECT_EQ(record.find("index")->text(), "5");
    EXPECT_EQ(record.find("result")->find("cycles")->text(),
              std::to_string(job.cycles));
    EXPECT_FALSE(record.find("result")->find("statsText"));
}

/** The Chrome trace of @p events retire events, as the writer spells it. */
std::string
syntheticRetireTrace(unsigned events)
{
    std::string text =
        "{\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"ctcpsim\"}},\n";
    char line[192];
    for (unsigned i = 0; i < events; ++i) {
        std::snprintf(line, sizeof(line),
                      "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":%u,\"s\":"
                      "\"t\",\"name\":\"retire\",\"cat\":\"retire\","
                      "\"args\":{\"seq\":%u,\"pc\":%u,\"cluster\":%u}}%s\n",
                      80 + i / 4, i, i % 4096, i % 4,
                      i + 1 < events ? "," : "");
        text += line;
    }
    return text + "]}";
}

TEST(Json, RetireTraceStaysUnderItsMemoryBound)
{
    // perfbench's observed jobs check one such trace per job: 10k
    // retire events, about 1.17 MB. The document must hold at most
    // 4 MB while parsing and after, text copy and node table included.
    const std::string text = syntheticRetireTrace(10'000);
    ASSERT_GT(text.size(), 1'100'000u);
    const long before = heapLive;
    heapPeak = before;
    const json::Document doc = json::parse(text);
    const long held = heapLive - before;
    const long peak = heapPeak - before;
    EXPECT_LE(held, 4L << 20);
    EXPECT_LE(peak, 4L << 20);
    EXPECT_GE(held, static_cast<long>(text.size()))
        << "the counting allocator did not see the document";

    std::size_t retires = 0;
    for (const json::Value event : doc.find("traceEvents")->items())
        retires += event.str("name") == "retire";
    EXPECT_EQ(retires, 10'000u);
}

TEST(JsonFuzz, MutatedDocumentsParseOrFailWithABytePosition)
{
    campaign::JobOutcome outcome;
    outcome.label = "gzip/fdrt";
    outcome.benchmark = "gzip";
    outcome.result.strategy = "a\tb\n";
    outcome.result.metrics["ipc"] = 1.0 / 3.0;
    const std::vector<std::string> seeds = {
        syntheticRetireTrace(3),
        "{\"results\":[{\"label\":\"gzip/base\",\"status\":\"ok\","
        "\"metrics\":{\"cycles\":1234,\"ipc\":1.25e0,\"accounting\":"
        "{\"slots.total\":4.5}}},{\"status\":\"failed\",\"error\":"
        "\"x\\\"y\"}]}",
        campaign::encodeJournalRecord(3, outcome),
        "{\"spec\":\"bench=gzip\",\"accounting\":true,\"maxAttempts\":2,"
        "\"jobDeadlineSeconds\":0.5}",
        "[null, true, false, -0.5e-3, \"\\u00e9\\u20ac\xf0\x9f\x98\x80\","
        " [[{}]]]",
    };
    Rng rng(20260817);
    std::size_t accepted = 0;
    for (unsigned i = 0; i < 20'000; ++i) {
        const std::string text =
            test::mutate(seeds[rng.below(seeds.size())], rng);
        try {
            const json::Document doc = json::parse(text);
            ++accepted;
            const std::string canonical = dump(doc);
            ASSERT_EQ(dump(json::parse(canonical)), canonical) << text;
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            const std::size_t at = what.find("at byte ");
            ASSERT_NE(at, std::string::npos) << what;
            ASSERT_LE(std::stoul(what.substr(at + 8)), text.size())
                << what;
        }
    }
    // Both outcomes occur, so neither property was vacuous.
    EXPECT_GT(accepted, 100u);
    EXPECT_LT(accepted, 19'000u);
}

} // namespace
} // namespace ctcp
