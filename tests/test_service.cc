/**
 * @file
 * Service-layer unit tests, socket-free by design: HTTP parsing and
 * serialization round-trips, seeded mutation fuzzing of both HTTP
 * parsers, the journal-tail reader behind GET /v1/runs/<id>/events,
 * run ids on resume, the campaign engine's cancellation/observer
 * hooks, and ServiceServer::handle() routing (a pure request ->
 * response function). The daemon's process-level behaviour lives in
 * test_service_e2e.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "campaign/campaign.hh"
#include "campaign/journal.hh"
#include "campaign/matrix.hh"
#include "common/json.hh"
#include "common/parse_number.hh"
#include "common/random.hh"
#include "config/presets.hh"
#include "mutate.hh"
#include "tmp_dir.hh"
#include "service/http.hh"
#include "service/registry.hh"
#include "service/server.hh"

namespace ctcp {
namespace {

SimConfig
quickConfig(std::uint64_t budget = 20'000)
{
    SimConfig cfg = baseConfig();
    cfg.instructionLimit = budget;
    return cfg;
}

std::string
tempPath(const std::string &name)
{
    return test::tmpPath(name);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

// ---- HTTP parsing ------------------------------------------------------

TEST(Http, ParsesRequestLineQueryAndHeaders)
{
    service::HttpRequest req;
    std::string error;
    ASSERT_TRUE(service::parseRequest(
        "GET /v1/runs/r0001/events?from=120&wait=2.5 HTTP/1.1\r\n"
        "Host: ctcpd\r\n"
        "X-Custom: value\r\n"
        "\r\n",
        req, error))
        << error;
    EXPECT_EQ(req.method, "GET");
    EXPECT_EQ(req.path, "/v1/runs/r0001/events");
    EXPECT_EQ(req.queryParam("from"), "120");
    EXPECT_EQ(req.queryParam("wait"), "2.5");
    EXPECT_EQ(req.queryParam("absent", "fallback"), "fallback");
    // Header names are matched case-insensitively.
    EXPECT_EQ(req.header("x-custom"), "value");
    EXPECT_EQ(req.header("X-CUSTOM"), "value");
    EXPECT_TRUE(req.body.empty());
}

TEST(Http, ParsesBodyByContentLength)
{
    service::HttpRequest req;
    std::string error;
    ASSERT_TRUE(service::parseRequest("POST /v1/runs HTTP/1.1\r\n"
                                      "Content-Length: 11\r\n"
                                      "\r\n"
                                      "bench=gzip;",
                                      req, error))
        << error;
    EXPECT_EQ(req.method, "POST");
    EXPECT_EQ(req.body, "bench=gzip;");
}

TEST(Http, DecodesPercentEscapesInTarget)
{
    service::HttpRequest req;
    std::string error;
    ASSERT_TRUE(service::parseRequest(
        "POST /v1/runs?spec=bench%3Dgzip%3Bbudget%3D1000 HTTP/1.1\r\n"
        "\r\n",
        req, error))
        << error;
    EXPECT_EQ(req.queryParam("spec"), "bench=gzip;budget=1000");
    EXPECT_EQ(service::percentDecode("a+b%20c%2f"), "a b c/");
}

TEST(Http, RejectsMalformedRequests)
{
    service::HttpRequest req;
    std::string error;
    EXPECT_FALSE(service::parseRequest("", req, error));
    EXPECT_FALSE(service::parseRequest("nonsense\r\n\r\n", req, error));
    // Body shorter than Content-Length is an error, not a prefix.
    EXPECT_FALSE(service::parseRequest("POST /x HTTP/1.1\r\n"
                                       "Content-Length: 50\r\n"
                                       "\r\n"
                                       "short",
                                       req, error));
    // Oversized declared body is rejected up front.
    EXPECT_FALSE(service::parseRequest(
        "POST /x HTTP/1.1\r\nContent-Length: " +
            std::to_string(service::maxBodyBytes + 1) + "\r\n\r\n",
        req, error));
    // A Content-Length that is not a decimal number is malformed, not
    // read as its numeric prefix (12abc as 12) or as 0 (dropping the
    // body).
    for (const char *length : {"12abc", "banana", "", "-1", "+5", "0x10"}) {
        error.clear();
        EXPECT_FALSE(service::parseRequest(
            std::string("POST /x HTTP/1.1\r\nContent-Length: ") + length +
                "\r\n\r\n" + std::string(20, 'x'),
            req, error))
            << "Content-Length: " << length;
        EXPECT_NE(error.find("Content-Length"), std::string::npos)
            << error;
    }
}

TEST(Http, MalformedContentLengthEndsTheRead)
{
    // readRequest stops at the header peek instead of waiting for a
    // body whose length it cannot know.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string raw =
        "POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n{}";
    ASSERT_EQ(::write(fds[1], raw.data(), raw.size()),
              static_cast<ssize_t>(raw.size()));
    service::HttpRequest req;
    std::string error;
    EXPECT_FALSE(service::readRequest(fds[0], req, 5.0, error));
    EXPECT_NE(error.find("Content-Length"), std::string::npos) << error;
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Http, ResponseRoundTripsThroughClientParser)
{
    service::HttpResponse out;
    out.status = 201;
    out.contentType = "application/json";
    out.headers.push_back({"X-Ctcp-Next-Offset", "4096"});
    out.body = "{\"id\":\"r0001\"}\n";

    service::HttpResponse in;
    std::string error;
    ASSERT_TRUE(
        service::parseResponse(service::serializeResponse(out), in, error))
        << error;
    EXPECT_EQ(in.status, 201);
    EXPECT_EQ(in.body, out.body);
    // parseResponse lower-cases header names (shared parser with the
    // request side; header names are case-insensitive).
    bool found = false;
    for (const auto &h : in.headers)
        if (h.first == "x-ctcp-next-offset") {
            EXPECT_EQ(h.second, "4096");
            found = true;
        }
    EXPECT_TRUE(found);
}

TEST(Http, RejectsMalformedStatusLines)
{
    // The code is the text between the first space and the next space
    // or the line's end, read as a decimal in 100..599. A strtol read
    // took each of the first four as 200.
    for (const char *line :
         {"HTTP/1.1 4294967496 OK", "HTTP/1.1 200junk", "HTTP/1.1 +200",
          "HTTP/1.1 -4294967096", "HTTP/1.1 99 X", "HTTP/1.1 600 X"}) {
        service::HttpResponse resp;
        std::string error;
        EXPECT_FALSE(service::parseResponse(std::string(line) + "\r\n\r\n",
                                            resp, error))
            << line << " read as " << resp.status;
        EXPECT_NE(error.find("malformed status line"), std::string::npos)
            << error;
    }
    for (const auto &[line, status] :
         {std::pair<const char *, int>{"HTTP/1.1 200 OK", 200},
          {"HTTP/1.1 404", 404}}) {
        service::HttpResponse resp;
        std::string error;
        ASSERT_TRUE(service::parseResponse(
            std::string(line) + "\r\nContent-Length: 2\r\n\r\n{}", resp,
            error))
            << line << ": " << error;
        EXPECT_EQ(resp.status, status);
        EXPECT_EQ(resp.body, "{}");
    }
}

TEST(Http, RejectsTruncatedResponses)
{
    // A body shorter than its Content-Length is a cut connection, and
    // a Content-Length that does not parse is no length at all: neither
    // may pass as a whole reply with whatever bytes arrived.
    for (const auto &[raw, message] :
         {std::pair<const char *, const char *>{
              "HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n"
              "{\"results\":[",
              "truncated response body (12 of 50 bytes)"},
          {"HTTP/1.1 200 OK\r\nContent-Length: banana\r\n\r\n{}",
           "Content-Length"}}) {
        service::HttpResponse resp;
        std::string error;
        EXPECT_FALSE(service::parseResponse(raw, resp, error)) << raw;
        EXPECT_NE(error.find(message), std::string::npos) << error;
    }
    // Content-Length: 0 is an empty body, whatever follows it; only a
    // response without the header reads to the end.
    service::HttpResponse resp;
    std::string error;
    ASSERT_TRUE(service::parseResponse(
        "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\nextra", resp,
        error))
        << error;
    EXPECT_EQ(resp.body, "");
    ASSERT_TRUE(service::parseResponse("HTTP/1.1 200 OK\r\n\r\nto EOF",
                                       resp, error))
        << error;
    EXPECT_EQ(resp.body, "to EOF");
}

TEST(Http, MutatedRequestsFailCleanly)
{
    const std::string spec = "bench=gzip;budget=1000";
    const std::vector<std::string> seeds = {
        "POST /v1/runs?accounting=1&max_attempts=2 HTTP/1.1\r\n"
        "Host: ctcpd\r\n"
        "X-Ctcp-Trace-Id: 0123456789abcdef\r\n"
        "Content-Length: " +
            std::to_string(spec.size()) + "\r\n\r\n" + spec,
        "GET /v1/runs/r0001/events?from=0&wait=5 HTTP/1.1\r\n"
        "Host: ctcpd\r\n\r\n",
    };
    Rng rng(20261020);
    std::size_t accepted = 0;
    for (unsigned i = 0; i < 20'000; ++i) {
        const std::string raw =
            test::mutate(seeds[rng.below(seeds.size())], rng);
        service::HttpRequest req;
        std::string error;
        if (!service::parseRequest(raw, req, error)) {
            ASSERT_FALSE(error.empty()) << raw;
            continue;
        }
        ++accepted;
        // The body is exactly the Content-Length bytes after the head.
        const std::string length = req.header("content-length");
        const std::uint64_t want =
            length.empty() ? 0 : parseUnsigned(length, "Content-Length");
        ASSERT_EQ(req.body.size(), want) << raw;
        ASSERT_EQ(raw.compare(raw.find("\r\n\r\n") + 4, want, req.body), 0)
            << raw;
    }
    // Both outcomes occur, so neither property was vacuous.
    EXPECT_GT(accepted, 1'000u);
    EXPECT_LT(accepted, 19'000u);
}

TEST(Http, MutatedResponsesFailCleanly)
{
    service::HttpResponse events;
    events.contentType = "application/x-ndjson";
    events.headers = {{"X-Ctcp-Next-Offset", "4096"},
                      {"X-Ctcp-Run-State", "running"}};
    events.body = "{\"index\":0,\"label\":\"gzip/base\"}\n";
    service::HttpResponse missing;
    missing.status = 404;
    missing.body = "{\"error\":\"unknown run 'r0009'\"}\n";
    const std::vector<std::string> seeds = {
        service::serializeResponse(events),
        service::serializeResponse(missing),
    };
    Rng rng(20261021);
    std::size_t accepted = 0;
    for (unsigned i = 0; i < 20'000; ++i) {
        const std::string raw =
            test::mutate(seeds[rng.below(seeds.size())], rng);
        service::HttpResponse resp;
        std::string error;
        if (!service::parseResponse(raw, resp, error)) {
            ASSERT_FALSE(error.empty()) << raw;
            continue;
        }
        ++accepted;
        ASSERT_GE(resp.status, 100) << raw;
        ASSERT_LE(resp.status, 599) << raw;
        // A declared length is exactly the body's.
        for (const auto &[name, value] : resp.headers)
            if (name == "content-length") {
                ASSERT_EQ(resp.body.size(),
                          parseUnsigned(value, "Content-Length"))
                    << raw;
                break;
            }
    }
    EXPECT_GT(accepted, 1'000u);
    EXPECT_LT(accepted, 19'000u);
}

TEST(Http, JsonEscapeHandlesControlCharacters)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(json::escape("\t\r\x01\x1f\x7f"), "\\t\\r\\u0001\\u001f\x7f");
}

// ---- Journal tail reader (the /events wire format) ---------------------

TEST(JournalTail, ServesCompleteLinesAndNeverTornTails)
{
    const std::string path = tempPath("ctcp_tail.jsonl");
    std::remove(path.c_str());
    {
        std::ofstream out(path, std::ios::binary);
        out << "{\"index\":0}\n{\"index\":1}\n{\"index\":2}"; // torn
    }
    std::uint64_t next = 0;
    const std::string first = campaign::readJournalTail(path, 0, next);
    // Only the two complete records come back; the torn third record
    // is invisible until its newline lands.
    EXPECT_EQ(first, "{\"index\":0}\n{\"index\":1}\n");
    EXPECT_EQ(next, first.size());

    // Polling from the returned offset with no new bytes yields
    // nothing and does not advance.
    std::uint64_t again = 0;
    EXPECT_EQ(campaign::readJournalTail(path, next, again), "");
    EXPECT_EQ(again, next);

    // Completing the torn record makes exactly it available.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << "\n";
    }
    std::uint64_t after = 0;
    EXPECT_EQ(campaign::readJournalTail(path, next, after),
              "{\"index\":2}\n");
    EXPECT_EQ(after, next + std::string("{\"index\":2}\n").size());
    std::remove(path.c_str());
}

TEST(JournalTail, MissingFileIsEmptyNotFatal)
{
    std::uint64_t next = 77;
    EXPECT_EQ(campaign::readJournalTail(tempPath("ctcp_no_such.jsonl"),
                                        77, next),
              "");
    EXPECT_EQ(next, 77u);
}

// ---- Campaign cancellation + observer hooks ----------------------------

TEST(Campaign, CancelledJobsAreNotJournaled)
{
    const std::string journal = tempPath("ctcp_cancel.jsonl");
    std::remove(journal.c_str());

    const std::vector<campaign::Job> jobs = {
        campaign::makeJob("a", "gzip", quickConfig(5'000)),
        campaign::makeJob("b", "gzip", quickConfig(5'000)),
    };
    campaign::Options options;
    options.jobs = 1;
    options.journalPath = journal;
    options.cancelRequested = [] { return true; }; // cancel up front
    const campaign::Report report = campaign::runCampaign(jobs, options);

    ASSERT_EQ(report.jobs.size(), 2u);
    for (const campaign::JobOutcome &out : report.jobs) {
        EXPECT_EQ(out.status, campaign::JobStatus::Failed);
        EXPECT_EQ(out.category, ErrorCategory::Cancelled);
    }
    // The checkpoint contract: cancelled jobs leave no journal record,
    // so a resume re-runs exactly them.
    EXPECT_EQ(slurp(journal), "");

    campaign::Options resume;
    resume.jobs = 1;
    resume.journalPath = journal;
    const campaign::Report rerun = campaign::runCampaign(jobs, resume);
    EXPECT_EQ(rerun.failed(), 0u);
    std::remove(journal.c_str());
}

TEST(Campaign, CancelledCategoryIsNotRetryable)
{
    EXPECT_FALSE(errorCategoryRetryable(ErrorCategory::Cancelled));
    EXPECT_EQ(std::string(errorCategoryName(ErrorCategory::Cancelled)),
              "cancelled");
    EXPECT_EQ(errorCategoryFromName("cancelled"),
              ErrorCategory::Cancelled);
}

TEST(Campaign, OnJobFinishedSeesEveryOutcomeWithItsIndex)
{
    const std::vector<campaign::Job> jobs = {
        campaign::makeJob("a", "gzip", quickConfig(5'000)),
        campaign::makeJob("b", "gzip", quickConfig(5'000)),
        campaign::makeJob("c", "gzip", quickConfig(5'000)),
    };
    std::mutex mutex;
    std::set<std::size_t> indices;
    std::size_t ok = 0;
    campaign::Options options;
    options.jobs = 2;
    options.onJobFinished = [&](std::size_t index,
                                const campaign::JobOutcome &out) {
        std::lock_guard<std::mutex> lock(mutex);
        indices.insert(index);
        if (out.ok())
            ++ok;
    };
    campaign::runCampaign(jobs, options);
    EXPECT_EQ(indices, (std::set<std::size_t>{0, 1, 2}));
    EXPECT_EQ(ok, 3u);
}

TEST(Campaign, ProgressToStderrKeepsConcurrentLinesIntact)
{
    // Two threads log through progressToStderr at once, as two
    // campaigns run side by side in one process would; every captured
    // line must come out whole, never interleaved mid-line.
    const std::string path = tempPath("ctcp_progress.txt");
    std::remove(path.c_str());

    ::fflush(stderr);
    const int saved = ::dup(2);
    ASSERT_GE(saved, 0);
    FILE *capture = std::fopen(path.c_str(), "wb");
    ASSERT_NE(capture, nullptr);
    ASSERT_GE(::dup2(::fileno(capture), 2), 0);

    constexpr int per_thread = 200;
    const std::string line_a(60, 'a');
    const std::string line_b(60, 'b');
    std::thread ta([&] {
        for (int i = 0; i < per_thread; ++i)
            campaign::progressToStderr(line_a);
    });
    std::thread tb([&] {
        for (int i = 0; i < per_thread; ++i)
            campaign::progressToStderr(line_b);
    });
    ta.join();
    tb.join();

    ::fflush(stderr);
    ::dup2(saved, 2);
    ::close(saved);
    std::fclose(capture);

    std::ifstream in(path);
    std::string line;
    int a = 0, b = 0;
    while (std::getline(in, line)) {
        if (line == line_a)
            ++a;
        else if (line == line_b)
            ++b;
        else
            ADD_FAILURE() << "interleaved line: " << line;
    }
    EXPECT_EQ(a, per_thread);
    EXPECT_EQ(b, per_thread);
    std::remove(path.c_str());
}

// ---- ServiceServer::handle routing -------------------------------------

class ServerRouting : public ::testing::Test
{
  protected:
    ServerRouting()
    {
        // A private state dir per fixture: run ids restart at r0001
        // for every registry, so a shared directory would replay one
        // test's journal into another's run.
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        const std::string tag = info ? info->name() : "unnamed";
        service::ServiceServer::Config config;
        config.socketPath = tempPath("routing.sock");
        config.registry.stateDir = tempPath("routing_state_" + tag);
        // ...and wipe what an earlier repeat in this process left,
        // which would otherwise resume into this registry.
        std::filesystem::remove_all(config.registry.stateDir);
        config.registry.workers = 2;
        config.maxWaitSeconds = 5.0;
        server_ = std::make_unique<service::ServiceServer>(
            std::move(config));
    }

    service::HttpResponse get(const std::string &target)
    {
        return call("GET", target, "");
    }

    service::HttpResponse post(const std::string &target,
                               const std::string &body)
    {
        return call("POST", target, body);
    }

    service::HttpResponse call(const std::string &method,
                               const std::string &target,
                               const std::string &body)
    {
        service::HttpRequest req;
        std::string error;
        const std::string raw = method + " " + target +
            " HTTP/1.1\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
        EXPECT_TRUE(service::parseRequest(raw, req, error)) << error;
        return server_->handle(req);
    }

    /** Submit a spec and return the new run id. */
    std::string submit(const std::string &spec)
    {
        const service::HttpResponse resp = post("/v1/runs", spec);
        EXPECT_EQ(resp.status, 201) << resp.body;
        const std::string marker = "\"id\":\"";
        const std::size_t at = resp.body.find(marker);
        EXPECT_NE(at, std::string::npos) << resp.body;
        const std::size_t start = at + marker.size();
        return resp.body.substr(start,
                                resp.body.find('"', start) - start);
    }

    void waitDone(const std::string &id)
    {
        service::RunInfo info;
        ASSERT_TRUE(server_->registry().wait(id, 60.0, info));
        ASSERT_EQ(info.state, service::RunState::Done);
    }

    std::unique_ptr<service::ServiceServer> server_;
};

TEST_F(ServerRouting, PingAndStats)
{
    const service::HttpResponse ping = get("/v1/ping");
    EXPECT_EQ(ping.status, 200);
    EXPECT_EQ(ping.body, "{\"status\":\"ok\"}\n");
}

TEST_F(ServerRouting, UnknownRoutesAre404AndWrongMethods405)
{
    EXPECT_EQ(get("/v2/ping").status, 404);
    EXPECT_EQ(get("/v1/runs/r9999").status, 404);
    // There is no scrape endpoint: those paths are unknown too.
    for (const char *retired : {"metrics", "stats"})
        EXPECT_EQ(get(std::string("/v1/") + retired).status, 404)
            << retired;
    EXPECT_EQ(post("/v1/ping", "").status, 405);
    EXPECT_EQ(get("/v1/runs/r9999/cancel").status, 405);
}

TEST_F(ServerRouting, MalformedSpecIs400)
{
    const service::HttpResponse resp = post("/v1/runs", "what=ever");
    EXPECT_EQ(resp.status, 400);
    EXPECT_NE(resp.body.find("error"), std::string::npos);

    // A slots= range from the socket is bounded by the job count
    // before it is expanded, never allocated or looped over.
    for (const char *slots :
         {"0-400000000", "18446744073709551614-18446744073709551615"}) {
        const service::HttpResponse hostile =
            post("/v1/runs", std::string("bench=gzip;slots=") + slots);
        EXPECT_EQ(hostile.status, 400) << slots;
        EXPECT_NE(hostile.body.find("out of range"), std::string::npos)
            << hostile.body;
    }
    // Matrix numbers past their range, not wrapped into it.
    for (const char *spec : {"bench=gzip;clusters=4294967298",
                             "bench=gzip;strategy=issue-time:4294967300",
                             "bench=gzip;budget=18446744073709551616"}) {
        const service::HttpResponse wrapped = post("/v1/runs", spec);
        EXPECT_EQ(wrapped.status, 400) << spec;
        EXPECT_NE(wrapped.body.find("out of range"), std::string::npos)
            << wrapped.body;
    }
}

TEST(RunRegistry, ResumeReadsMaxAttemptsAsARangedInteger)
{
    // A restarted daemon skips a persisted spec whose maxAttempts is
    // not an integer in 1..2^32-1, instead of casting it.
    const std::string dir = tempPath("registry_attempts");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const char *attempts[] = {"3",   "4294967296", "2.5", "0",
                              "-1",  "1e3",        "\"3\""};
    for (std::size_t i = 0; i < std::size(attempts); ++i) {
        std::ofstream(dir + "/r000" + std::to_string(i + 1) + ".spec.json")
            << "{\"spec\":\"bench=gzip;budget=1000\",\"accounting\":false,"
            << "\"maxAttempts\":" << attempts[i]
            << ",\"jobDeadlineSeconds\":0}\n";
    }
    service::RunRegistry::Config config;
    config.stateDir = dir;
    config.workers = 1;
    service::RunRegistry registry(config);
    EXPECT_EQ(registry.resume(), 1u);
    service::RunInfo info;
    ASSERT_TRUE(registry.wait("r0001", 60.0, info));
    EXPECT_EQ(info.maxAttempts, 3u);
    for (std::size_t i = 2; i <= std::size(attempts); ++i)
        EXPECT_FALSE(registry.info("r000" + std::to_string(i), info)) << i;
}

/** A state dir holding one small gzip spec file per id in @p ids. */
std::string
stateDirWith(const std::string &name,
             std::initializer_list<const char *> ids)
{
    const std::string dir = tempPath(name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    for (const char *id : ids)
        std::ofstream(dir + "/" + id + ".spec.json")
            << "{\"spec\":\"bench=gzip;budget=1000\"}\n";
    return dir;
}

TEST(RunRegistry, ResumedHighIdNeverWrapsTheNextId)
{
    // A resumed r4294967295 must not wrap the id counter to 0: the
    // second submit would then mint r0001 over the live resumed run,
    // whose runner thread is still joinable, and abort the process.
    service::RunRegistry::Config config;
    config.stateDir = stateDirWith("registry_ids", {"r0001", "r4294967295"});
    config.workers = 1;
    service::RunRegistry registry(config);
    EXPECT_EQ(registry.resume(), 2u);
    const std::string a = registry.submit("bench=gzip;budget=1000", {});
    const std::string b = registry.submit("bench=gzip;budget=1000", {});
    EXPECT_NE(a, b);
    for (const std::string &id : {a, b}) {
        EXPECT_NE(id, "r0001");
        EXPECT_NE(id, "r4294967295");
    }
    EXPECT_EQ(registry.list().size(), 4u);
    registry.shutdown();
}

TEST(RunRegistry, ResumeSkipsIdsNoSubmitMints)
{
    // Resume takes only ids a submit mints ("r" and a counter of at
    // least four digits), and never mints a skipped run's id again.
    service::RunRegistry::Config config;
    config.stateDir = stateDirWith(
        "registry_foreign_ids",
        {"r0000", "r01", "r00002", "r+003", "r18446744073709551615",
         "rx", "foo", "r0004"});
    std::ofstream(config.stateDir + "/r0007.spec.json") << "{\"spec\":";
    config.workers = 1;
    service::RunRegistry registry(config);
    EXPECT_EQ(registry.resume(), 1u);
    const std::vector<service::RunInfo> runs = registry.list();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].id, "r0004");
    EXPECT_EQ(registry.submit("bench=gzip;budget=1000", {}), "r0008");
}

TEST_F(ServerRouting, MalformedQueryNumbersAre400)
{
    // Every numeric query parameter is parsed strictly: junk, a sign,
    // an empty value, an exponent and an overflow are a 400 that names
    // the parameter, never a silently truncated number.
    const std::string too_big_integer = "18446744073709551616";
    const std::string too_big_decimal = "1" + std::string(400, '0');
    const auto expect400 = [&](const service::HttpResponse &resp,
                               const std::string &param,
                               const std::string &value) {
        EXPECT_EQ(resp.status, 400) << param << "=" << value;
        EXPECT_NE(resp.body.find(param), std::string::npos)
            << param << "=" << value << ": " << resp.body;
    };
    const std::string spec = "bench=gzip;budget=1000";
    for (const std::string &bad :
         {std::string("1x"), std::string("-1"), std::string(),
          std::string("1e999"), std::string("0"), too_big_integer})
        expect400(post("/v1/runs?max_attempts=" + bad, spec),
                  "max_attempts", bad);
    for (const std::string &bad :
         {std::string("1x"), std::string("-1"), std::string(),
          std::string("1e999"), std::string("."), too_big_decimal}) {
        expect400(post("/v1/runs?deadline=" + bad, spec), "deadline",
                  bad);
        expect400(get("/v1/runs/r0001?wait=" + bad), "wait", bad);
        expect400(get("/v1/runs/r0001/events?wait=" + bad), "wait", bad);
    }
    for (const std::string &bad :
         {std::string("1x"), std::string("-1"), std::string(),
          std::string("1e999"), too_big_integer})
        expect400(get("/v1/runs/r0001/events?from=" + bad), "from", bad);
    // Nothing malformed was accepted as a run.
    EXPECT_TRUE(server_->registry().list().empty());

    // Plain decimals still pass the parse (the run is unknown: 404).
    EXPECT_EQ(get("/v1/runs/r0001?wait=0.5").status, 404);
    EXPECT_EQ(get("/v1/runs/r0001/events?from=12&wait=0").status, 404);
}

TEST_F(ServerRouting, SharedJobsStreamOneRecordEachAndBuildOnce)
{
    // At 2 clusters all four topologies build one machine: the daemon
    // builds and runs it once, and still streams and reports four
    // jobs, the three copies with host time 0.
    const std::string spec =
        "bench=gzip;topology=linear,ring,crossbar,hier;clusters=2;"
        "budget=5000";
    const std::string id = submit(spec);
    waitDone(id);

    const service::HttpResponse events =
        get("/v1/runs/" + id + "/events?from=0");
    ASSERT_EQ(events.status, 200);
    std::istringstream lines(events.body);
    std::set<std::size_t> indices;
    std::size_t zero_host = 0;
    for (std::string line; std::getline(lines, line);) {
        campaign::JournalRecord rec;
        ASSERT_TRUE(campaign::decodeJournalRecord(line, rec)) << line;
        EXPECT_TRUE(indices.insert(rec.index).second) << rec.index;
        zero_host += rec.outcome.result.hostSeconds == 0.0;
    }
    EXPECT_EQ(indices, (std::set<std::size_t>{0, 1, 2, 3}));
    EXPECT_EQ(zero_host, 3u);

    EXPECT_EQ(get("/v1/runs/" + id + "/report").body,
              campaign::runCampaign(campaign::parseMatrix(spec)).toJson());
}

TEST_F(ServerRouting, SubmitRunReportLifecycle)
{
    const std::string id =
        submit("bench=gzip;strategy=base;budget=5000");
    EXPECT_EQ(id.substr(0, 1), "r");

    // The report is a conflict until the run finishes...
    waitDone(id);
    // ...and afterwards it serves, as JSON only.
    const service::HttpResponse json =
        get("/v1/runs/" + id + "/report?format=json");
    EXPECT_EQ(json.status, 200);
    EXPECT_EQ(json.contentType, "application/json");
    EXPECT_NE(json.body.find("\"campaign\""), std::string::npos);
    EXPECT_EQ(get("/v1/runs/" + id + "/report").body, json.body);
    for (const char *format : {"csv", "xml", ""}) {
        const service::HttpResponse other = get(
            "/v1/runs/" + id + "/report?format=" + std::string(format));
        EXPECT_EQ(other.status, 400) << format;
        EXPECT_NE(other.body.find("unknown format"), std::string::npos)
            << other.body;
    }

    // Status snapshot and the run listing both know the run.
    const service::HttpResponse status = get("/v1/runs/" + id);
    EXPECT_EQ(status.status, 200);
    EXPECT_NE(status.body.find("\"state\":\"done\""),
              std::string::npos)
        << status.body;
    EXPECT_NE(get("/v1/runs").body.find("\"" + id + "\""),
              std::string::npos);

    // The event stream serves the journal bytes with paging headers.
    const service::HttpResponse events =
        get("/v1/runs/" + id + "/events?from=0");
    EXPECT_EQ(events.status, 200);
    EXPECT_NE(events.body.find("\"label\":\"gzip/base/base\""),
              std::string::npos);
    bool has_next = false;
    for (const auto &h : events.headers)
        if (h.first == "X-Ctcp-Next-Offset") {
            has_next = true;
            EXPECT_EQ(h.second, std::to_string(events.body.size()));
        }
    EXPECT_TRUE(has_next);

    // The live HTML report renders (content negotiation sanity).
    const service::HttpResponse html = get("/v1/runs/" + id + "/html");
    EXPECT_EQ(html.status, 200);
    EXPECT_EQ(html.contentType, "text/html; charset=utf-8");
    EXPECT_NE(html.body.find("<!DOCTYPE html>"), std::string::npos);
}

TEST_F(ServerRouting, ReportBeforeCompletionIs409)
{
    // A run that cannot finish quickly: rely on submitting and asking
    // immediately. Cancel afterwards so teardown stays fast.
    const std::string id =
        submit("bench=gzip;strategy=base,fdrt,friendly;budget=300000");
    const service::HttpResponse early =
        get("/v1/runs/" + id + "/report");
    // Either still running (409) or already done on a fast machine.
    EXPECT_TRUE(early.status == 409 || early.status == 200)
        << early.status;
    EXPECT_EQ(post("/v1/runs/" + id + "/cancel", "").status, 202);
    service::RunInfo info;
    ASSERT_TRUE(server_->registry().wait(id, 60.0, info));
    EXPECT_TRUE(service::runStateTerminal(info.state));
}

TEST_F(ServerRouting, SubmitOptionsFlowThroughQuery)
{
    const service::HttpResponse created =
        post("/v1/runs?accounting=1&max_attempts=3",
             "bench=gzip;strategy=base;budget=5000");
    ASSERT_EQ(created.status, 201) << created.body;
    const std::string marker = "\"id\":\"";
    const std::size_t at = created.body.find(marker);
    ASSERT_NE(at, std::string::npos) << created.body;
    const std::size_t start = at + marker.size();
    const std::string id = created.body.substr(
        start, created.body.find('"', start) - start);

    waitDone(id);
    const service::HttpResponse status = get("/v1/runs/" + id);
    EXPECT_NE(status.body.find("\"accounting\":true"),
              std::string::npos)
        << status.body;
    EXPECT_NE(status.body.find("\"maxAttempts\":3"), std::string::npos)
        << status.body;
    // An accounting run's report carries the accounting block.
    const service::HttpResponse json =
        get("/v1/runs/" + id + "/report");
    EXPECT_NE(json.body.find("\"accounting\""), std::string::npos);
}

// ---- Trace correlation -------------------------------------------------

TEST(TraceId, IdsAreUniqueSixteenHexDigits)
{
    const std::string a = service::makeTraceId();
    const std::string b = service::makeTraceId();
    EXPECT_NE(a, b);
    for (const std::string &id : {a, b}) {
        ASSERT_EQ(id.size(), 16u) << id;
        for (const char c : id)
            EXPECT_TRUE((c >= '0' && c <= '9') ||
                        (c >= 'a' && c <= 'f'))
                << id;
    }
}

TEST_F(ServerRouting, TraceIdEchoesOnlyWhenSupplied)
{
    service::HttpRequest req;
    std::string error;
    ASSERT_TRUE(service::parseRequest(
        "GET /v1/ping HTTP/1.1\r\n"
        "X-Ctcp-Trace-Id: cafe0123beef4567\r\n"
        "\r\n",
        req, error))
        << error;
    const service::HttpResponse traced = server_->handle(req);
    bool echoed = false;
    for (const auto &[name, value] : traced.headers)
        if (name == service::traceIdHeader &&
            value == "cafe0123beef4567")
            echoed = true;
    EXPECT_TRUE(echoed);

    const service::HttpResponse untraced = get("/v1/ping");
    for (const auto &[name, value] : untraced.headers)
        EXPECT_NE(name, std::string(service::traceIdHeader)) << value;
}

} // namespace
} // namespace ctcp
