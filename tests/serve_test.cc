/**
 * @file
 * Experiment-service tests: HTTP request/response framing units and a
 * seeded parser fuzz test, the CellTable semantics (deterministic via
 * waiters()), and end-to-end Server tests over a unix socket —
 * resultset parity with the Experiment API, request dedup, a cell
 * asked for around its completion running once, kept cells,
 * queue-full back-pressure, and graceful-shutdown draining. Runs
 * under ThreadSanitizer in CI alongside the other threaded suites.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <cstdio>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/client.h"
#include "serve/http.h"
#include "serve/server.h"
#include "sim/report.h"
#include "sim/workload_registry.h"

namespace mgx::serve {
namespace {

using Parser = HttpRequestParser;
using Deadline = std::chrono::steady_clock::time_point;

// ---------------------------------------------------------------------
// HTTP framing units
// ---------------------------------------------------------------------

TEST(Http, ParsesSimpleGet)
{
    Parser p;
    const std::string raw = "GET /stats HTTP/1.1\r\n"
                            "Host: mgx\r\n"
                            "Connection: close\r\n\r\n";
    EXPECT_EQ(p.feed(raw.data(), raw.size()),
              Parser::Status::Complete);
    EXPECT_EQ(p.request().method, "GET");
    EXPECT_EQ(p.request().target, "/stats");
    EXPECT_EQ(p.request().path, "/stats");
    EXPECT_EQ(p.request().header("host").value_or(""), "mgx");
    EXPECT_EQ(p.request().header("HOST").value_or(""), "mgx");
    EXPECT_TRUE(p.request().body.empty());
}

TEST(Http, ParsesByteByByte)
{
    Parser p;
    const std::string raw =
        "GET /run?workload=core%2Fmatmul&schemes=NP HTTP/1.1\r\n\r\n";
    for (std::size_t i = 0; i + 1 < raw.size(); ++i)
        ASSERT_EQ(p.feed(&raw[i], 1), Parser::Status::Incomplete)
            << "byte " << i;
    EXPECT_EQ(p.feed(&raw[raw.size() - 1], 1),
              Parser::Status::Complete);
    EXPECT_EQ(p.request().path, "/run");
    EXPECT_EQ(p.request().queryValue("workload").value_or(""),
              "core/matmul");
    EXPECT_EQ(p.request().queryValue("schemes").value_or(""), "NP");
}

TEST(Http, QueryDecodingAndRepeatedKeys)
{
    Parser p;
    const std::string raw =
        "GET /run?workload=a%3Fb%3D1&workload=c+d&empty= "
        "HTTP/1.1\r\n\r\n";
    ASSERT_EQ(p.feed(raw.data(), raw.size()),
              Parser::Status::Complete);
    const auto values = p.request().queryValues("workload");
    ASSERT_EQ(values.size(), 2u);
    EXPECT_EQ(values[0], "a?b=1");
    EXPECT_EQ(values[1], "c d");
    EXPECT_EQ(p.request().queryValue("empty").value_or("x"), "");
    EXPECT_FALSE(p.request().queryValue("missing"));
}

TEST(Http, ParsesContentLengthBody)
{
    Parser p;
    const std::string raw = "GET /x HTTP/1.1\r\n"
                            "Content-Length: 5\r\n\r\nhel";
    EXPECT_EQ(p.feed(raw.data(), raw.size()),
              Parser::Status::Incomplete);
    EXPECT_EQ(p.feed("lo", 2), Parser::Status::Complete);
    EXPECT_EQ(p.request().body, "hello");
}

TEST(Http, ToleratesBareLfLineEndings)
{
    Parser p;
    const std::string raw = "GET /stats HTTP/1.1\nHost: x\n\n";
    EXPECT_EQ(p.feed(raw.data(), raw.size()),
              Parser::Status::Complete);
    EXPECT_EQ(p.request().header("host").value_or(""), "x");
}

/** @p s with CR, LF and unprintable bytes escaped, for messages. */
std::string
printable(const std::string &s)
{
    std::string out;
    for (unsigned char c : s.substr(0, 160)) {
        char esc[8];
        if (c == '\r')
            out += "\\r";
        else if (c == '\n')
            out += "\\n";
        else if (c < 0x20 || c >= 0x7f) {
            std::snprintf(esc, sizeof esc, "\\x%02x", c);
            out += esc;
        } else
            out += static_cast<char>(c);
    }
    if (s.size() > 160)
        out += "... (" + std::to_string(s.size()) + " bytes)";
    return out;
}

TEST(Http, RejectsMalformedInput)
{
    {
        Parser p;
        const std::string raw = "NONSENSE\r\n\r\n";
        EXPECT_EQ(p.feed(raw.data(), raw.size()),
                  Parser::Status::Error);
        EXPECT_FALSE(p.error().empty());
    }
    {
        Parser p;
        const std::string raw = "GET /x SPDY/3\r\n\r\n";
        EXPECT_EQ(p.feed(raw.data(), raw.size()),
                  Parser::Status::Error);
    }
    {
        Parser p;
        const std::string raw = "GET relative HTTP/1.1\r\n\r\n";
        EXPECT_EQ(p.feed(raw.data(), raw.size()),
                  Parser::Status::Error);
    }
    // Content-Length is a plain digit string, and repeated fields
    // repeat it: a sign, leading whitespace or junk, or two differing
    // values answer 400; a digit string over the 1 MiB cap answers 431.
    const auto request = [](const std::string &fields) {
        Parser p;
        const std::string raw = "POST /run HTTP/1.1\r\n" + fields +
                                "\r\n\r\nab";
        p.feed(raw.data(), raw.size());
        return p;
    };
    for (const char *bad :
         {"Content-Length: -1", "Content-Length: +2", "Content-Length:\v2",
          "Content-Length: 2x", "Content-Length:",
          "Content-Length: 0\r\nContent-Length: 2"}) {
        const Parser p = request(bad);
        EXPECT_EQ(p.status(), Parser::Status::Error) << printable(bad);
        EXPECT_FALSE(p.tooLarge()) << printable(bad);
    }
    for (const char *huge : {"Content-Length: 1048577",
                             "Content-Length: 99999999999999999999"}) {
        const Parser p = request(huge);
        EXPECT_EQ(p.status(), Parser::Status::Error) << huge;
        EXPECT_TRUE(p.tooLarge()) << huge;
    }
    {
        const Parser p =
            request("Content-Length: 2\r\nContent-Length: 2");
        ASSERT_EQ(p.status(), Parser::Status::Complete) << p.error();
        EXPECT_EQ(p.request().body, "ab");
    }
    // A response's status is exactly three digits, and its
    // Content-Length is as strict as a request's.
    for (const char *bad :
         {"HTTP/1.1 -200 OK\r\nContent-Length: 0\r\n\r\n",
          "HTTP/1.1 99999999999 OK\r\nContent-Length: 0\r\n\r\n",
          "HTTP/1.1 20 OK\r\nContent-Length: 0\r\n\r\n",
          "HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\nab"}) {
        HttpResponseParser p;
        EXPECT_EQ(p.feed(bad, std::strlen(bad)),
                  HttpResponseParser::Status::Error)
            << printable(bad);
    }
}

TEST(Http, ResponseRoundTrip)
{
    const std::string raw =
        httpResponse(429, "application/json", "{\"error\": \"full\"}");
    HttpResponseParser parser;
    ASSERT_EQ(parser.feed(raw.data(), raw.size()),
              HttpResponseParser::Status::Complete)
        << parser.error();
    const HttpResponse &resp = parser.response();
    EXPECT_EQ(resp.status, 429);
    EXPECT_EQ(resp.reason, "Too Many Requests");
    EXPECT_EQ(resp.body, "{\"error\": \"full\"}");
    EXPECT_EQ(resp.headers.front().first, "content-type");
}

TEST(Http, PercentCodecRoundTrip)
{
    const std::string name =
        "dnn/DLRM?task=training&batch=65536";
    EXPECT_EQ(percentDecode(percentEncode(name)), name);
    EXPECT_EQ(percentEncode(name),
              "dnn/DLRM%3Ftask%3Dtraining%26batch%3D65536");
}

// ---------------------------------------------------------------------
// Parser fuzzing: however the bytes arrive, the answer is the same
// ---------------------------------------------------------------------

constexpr std::size_t kRequestCap = 1u << 20; // HttpRequestParser's cap

/** Feed @p in to a fresh parser in random-sized pieces, stopping at
 *  the first status that is not Incomplete. */
template <typename P>
P
feedInPieces(const std::string &in, std::mt19937_64 &rng)
{
    P p;
    // Byte by byte only on small inputs: every feed re-scans the
    // buffer.
    const std::size_t max_piece =
        in.size() <= 4096 && rng() % 4 == 0
            ? 1
            : std::max<std::size_t>(1, in.size() / 16);
    for (std::size_t at = 0;
         at < in.size() && p.status() == P::Status::Incomplete;) {
        const std::size_t n =
            std::min<std::size_t>(in.size() - at, 1 + rng() % max_piece);
        p.feed(in.data() + at, n);
        at += n;
    }
    return p;
}

/** @p s after one to four random edits. */
std::string
mutate(std::string s, std::mt19937_64 &rng)
{
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    static const char *const kTokens[] = {"\r", "\n",  "\r\n", "\n\n",
                                          "%",  "%2", ":",    " ",
                                          "?",  "&"};
    for (std::size_t r = 1 + pick(4); r > 0; --r) {
        switch (pick(4)) {
          case 0: // flip bits of one byte
            if (!s.empty())
                s[pick(s.size())] ^= static_cast<char>(1 + pick(255));
            break;
          case 1: // truncate
            s.resize(pick(s.size() + 1));
            break;
          case 2: { // duplicate a slice somewhere
            const std::size_t from = pick(s.size() + 1);
            const std::string slice =
                s.substr(from, pick(s.size() - from + 1));
            s.insert(pick(s.size() + 1), slice);
            break;
          }
          default: // inject what HTTP framing cares about
            s.insert(pick(s.size() + 1), kTokens[pick(std::size(kTokens))]);
            break;
        }
    }
    return s;
}

TEST(HttpFuzz, ParsersAgreeHoweverBytesArrive)
{
    const std::vector<std::string> seeds = {
        "GET /run?workload=core%2Fmatmul&schemes=NP,BP HTTP/1.1\r\n"
        "Host: mgx\r\nConnection: keep-alive\r\n\r\n",
        "GET /stats HTTP/1.1\nHost: x\n\n",
        "GET /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
        "GET /run?workload=dnn%2FDLRM%3Ftask%3Dtraining"
        "&platforms=cloud,edge HTTP/1.0\r\nX-A:\tb\r\n\r\n",
        httpResponse(200, "application/json", "{\"ok\": true}\n", {}, true),
        httpResponse(429, "application/json", "{\"error\": \"full\"}\n"),
        "HTTP/1.1 200 OK\nContent-Length: 3\n\nabc",
        "HTTP/1.0 503 Service Unavailable\r\nContent-Type: x\r\n\r\n"
        "read to EOF",
    };
    const auto withBody = [](std::size_t n) {
        return "GET /run HTTP/1.1\r\nContent-Length: " + std::to_string(n) +
               "\r\n\r\n" + std::string(n, 'b');
    };
    const std::vector<std::size_t> oversized = {
        kRequestCap / 2, kRequestCap - 64, kRequestCap, kRequestCap + 1};

    std::mt19937_64 rng(0x5eed);
    for (int i = 0; i < 150000; ++i) {
        std::string in;
        if (i % 1000 == 0) {
            in = mutate(withBody(oversized[rng() % oversized.size()]), rng);
        } else if (i % 8 == 0) {
            static const char kAlphabet[] = "GETHP/1. \r\n:%?&=a0";
            in.resize(rng() % 200);
            for (char &c : in)
                c = rng() % 4 == 0
                        ? static_cast<char>(rng())
                        : kAlphabet[rng() % (sizeof kAlphabet - 1)];
        } else {
            in = mutate(seeds[rng() % seeds.size()], rng);
        }

        Parser whole;
        whole.feed(in.data(), in.size());
        const Parser pieces = feedInPieces<Parser>(in, rng);
        if (in.size() > kRequestCap) {
            ASSERT_TRUE(whole.tooLarge()) << printable(in);
        } else {
            ASSERT_EQ(whole.status(), pieces.status()) << printable(in);
            ASSERT_EQ(whole.error(), pieces.error()) << printable(in);
            ASSERT_EQ(whole.tooLarge(), pieces.tooLarge()) << printable(in);
            const HttpRequest &a = whole.request(), &b = pieces.request();
            ASSERT_EQ(a.method, b.method) << printable(in);
            ASSERT_EQ(a.target, b.target) << printable(in);
            ASSERT_EQ(a.path, b.path) << printable(in);
            ASSERT_EQ(a.query, b.query) << printable(in);
            ASSERT_EQ(a.headers, b.headers) << printable(in);
            ASSERT_EQ(a.body, b.body) << printable(in);
        }
        if (whole.status() == Parser::Status::Complete) {
            ASSERT_FALSE(whole.request().method.empty()) << printable(in);
            ASSERT_EQ(whole.request().target.rfind('/', 0), 0u)
                << printable(in);
        }

        HttpResponseParser rwhole;
        if (rwhole.feed(in.data(), in.size()) ==
            HttpResponseParser::Status::Incomplete)
            rwhole.finishEof();
        HttpResponseParser rpieces =
            feedInPieces<HttpResponseParser>(in, rng);
        if (rpieces.status() == HttpResponseParser::Status::Incomplete)
            rpieces.finishEof();
        ASSERT_EQ(rwhole.status(), rpieces.status()) << printable(in);
        ASSERT_EQ(rwhole.error(), rpieces.error()) << printable(in);
        const HttpResponse &x = rwhole.response(), &y = rpieces.response();
        ASSERT_EQ(x.status, y.status) << printable(in);
        ASSERT_EQ(x.reason, y.reason) << printable(in);
        ASSERT_EQ(x.headers, y.headers) << printable(in);
        ASSERT_EQ(x.body, y.body) << printable(in);
    }
}

// ---------------------------------------------------------------------
// CellTable semantics
// ---------------------------------------------------------------------

/** A record told apart by its cycle count. */
sim::RunRecord
recordOf(u64 cycles)
{
    sim::RunRecord r;
    r.result.totalCycles = cycles;
    return r;
}

TEST(CellTable, ConcurrentCallersCollapseToOneRun)
{
    CellTable table(8);
    std::atomic<int> runs{0};
    std::atomic<int> joined{0};
    constexpr int kThreads = 4;

    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            const auto answer = table.get("key", [&] {
                runs.fetch_add(1);
                // Park until every other thread has provably joined
                // this run, so the collapse count is exact.
                while (table.waiters("key") <
                       static_cast<std::size_t>(kThreads - 1))
                    std::this_thread::yield();
                return recordOf(42);
            });
            EXPECT_EQ(answer.record.result.totalCycles, 42u);
            if (answer.source == CellTable::Source::Joined)
                joined.fetch_add(1);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(runs.load(), 1);
    EXPECT_EQ(joined.load(), kThreads - 1);
    EXPECT_EQ(table.waiters("key"), 0u);
}

TEST(CellTable, DistinctKeysRunIndependently)
{
    CellTable table(8);
    const auto a = table.get("a", [] { return recordOf(1); });
    const auto b = table.get("b", [] { return recordOf(2); });
    EXPECT_EQ(a.source, CellTable::Source::Ran);
    EXPECT_EQ(b.source, CellTable::Source::Ran);
    EXPECT_EQ(a.record.result.totalCycles, 1u);
    EXPECT_EQ(b.record.result.totalCycles, 2u);
    EXPECT_EQ(table.size(), 2u);
}

TEST(CellTable, KeptCellAnswersWithoutRunning)
{
    CellTable table(8);
    int calls = 0;
    table.get("k", [&] { return recordOf(++calls); });
    const auto second = table.get("k", [&] { return recordOf(++calls); });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(second.source, CellTable::Source::Kept);
    EXPECT_EQ(second.record.result.totalCycles, 1u);
}

TEST(CellTable, AtCapacityZeroAKeyRunsAgainAfterCompletion)
{
    CellTable table(0);
    int calls = 0;
    table.get("k", [&] { return recordOf(++calls); });
    const auto second = table.get("k", [&] { return recordOf(++calls); });
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(second.source, CellTable::Source::Ran);
    EXPECT_EQ(second.record.result.totalCycles, 2u);
    EXPECT_EQ(table.size(), 0u);
}

TEST(CellTable, ErrorReachesEveryWaiterAndIsNotKept)
{
    CellTable table(8);
    std::atomic<int> rethrown{0};
    constexpr int kThreads = 3;
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            try {
                table.get("boom", [&]() -> sim::RunRecord {
                    while (table.waiters("boom") <
                           static_cast<std::size_t>(kThreads - 1))
                        std::this_thread::yield();
                    throw std::runtime_error("engine failed");
                });
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "engine failed");
                rethrown.fetch_add(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(rethrown.load(), kThreads);
    EXPECT_EQ(table.size(), 0u);

    // No entry outlived the error: the next caller runs afresh.
    const auto retry = table.get("boom", [] { return recordOf(7); });
    EXPECT_EQ(retry.source, CellTable::Source::Ran);
    EXPECT_EQ(retry.record.result.totalCycles, 7u);
}

TEST(CellTable, StaysBoundedUnderNewKeysAndKeepsHotOnes)
{
    // A daemon's traffic: a stream of never-repeated workloads (a seed
    // sweep) interleaved with a few hot ones. The table must stay at
    // capacity, and the hot keys — refreshed on every use — must never
    // be the ones evicted.
    CellTable table(16);
    const auto ran = [&table](const std::string &key) {
        return table.get(key, [] { return recordOf(0); }).source ==
               CellTable::Source::Ran;
    };
    for (int i = 0; i < 1000; ++i) {
        for (const char *hot : {"core/matmul", "video/h264"})
            ASSERT_EQ(ran(hot), i == 0) << hot << " " << i;
        ASSERT_TRUE(ran("dnn/MobileNet?seed=" + std::to_string(i)));
        ASSERT_LE(table.size(), 16u);
    }
    EXPECT_EQ(table.size(), 16u);
    EXPECT_FALSE(ran("dnn/MobileNet?seed=999"));
    EXPECT_TRUE(ran("dnn/MobileNet?seed=0"));
}

// ---------------------------------------------------------------------
// Server end-to-end (unix socket)
// ---------------------------------------------------------------------

std::string
testSocketPath(const char *tag)
{
    return "/tmp/mgx-serve-test-" + std::to_string(::getpid()) + "-" +
           tag + ".sock";
}

/** Poll @p pred (metrics are eventually consistent) with a deadline. */
template <typename Pred>
bool
eventually(Pred pred, int timeout_ms = 10000)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/** A cheap deterministic record for injected cell runners. */
sim::RunRecord
syntheticOutcome(const CellKey &cell, Deadline = {})
{
    sim::RunRecord out;
    out.key = {cell.workload, cell.platform.name, cell.scheme};
    out.result.totalCycles = 1000;
    out.result.computeCycles = 600;
    out.result.memoryCycles = 400;
    out.result.seconds = 0.001;
    out.result.traffic.dataBytes = 4096;
    return out;
}

TEST(ServerTest, StatsStartFromZeroAndCount)
{
    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("stats");
    Server server(opts);
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};

    HttpResponse resp;
    std::string error;
    ASSERT_TRUE(httpGet(addr, "/stats", &resp, &error)) << error;
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"schema\": \"mgx-servestats-v1\""),
              std::string::npos);
    EXPECT_NE(resp.body.find("\"served\": 0"), std::string::npos);
    EXPECT_NE(resp.body.find("\"rejected\": 0"), std::string::npos);
    EXPECT_NE(resp.body.find("\"cellsRun\": 0"), std::string::npos);
    EXPECT_NE(resp.body.find("\"draining\": false"),
              std::string::npos);

    // The /stats request itself is the one in-flight accepted conn.
    const auto s = server.metricsSnapshot();
    EXPECT_EQ(s.accepted, 1u);
    EXPECT_EQ(s.served, 1u);
    server.shutdown();
}

TEST(ServerTest, RunMatchesExperimentApiByteForByte)
{
    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("parity");
    Server server(opts);
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};

    HttpResponse resp;
    std::string error;
    ASSERT_TRUE(httpGet(addr,
                        "/run?workload=core%2Fmatmul&schemes=NP,BP",
                        &resp, &error))
        << error;
    ASSERT_EQ(resp.status, 200) << resp.body;

    // The same grid through the Experiment API the way mgx_run runs
    // it (serial, unpipelined): the service's JSON must match byte
    // for byte.
    sim::ResultSet rs = sim::Experiment()
                            .workload("core/matmul")
                            .schemes({protection::Scheme::NP,
                                      protection::Scheme::BP})
                            .threads(1)
                            .pipelined(false)
                            .run();
    EXPECT_EQ(resp.body, sim::toJson(rs));

    const auto s = server.metricsSnapshot();
    EXPECT_EQ(s.cellsRun, 2u);
    EXPECT_EQ(s.dedupCollapsed, 0u);
    server.shutdown();
}

TEST(ServerTest, RejectsUnknownNamesWithoutDying)
{
    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("badreq");
    Server server(opts);
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};

    HttpResponse resp;
    std::string error;

    // The registry's own diagnostic comes back instead of killing the
    // daemon the way makeKernel()'s fatal() would.
    ASSERT_TRUE(
        httpGet(addr, "/run?workload=nope%2Fx", &resp, &error))
        << error;
    EXPECT_EQ(resp.status, 400);
    EXPECT_NE(resp.body.find("unknown domain"), std::string::npos);

    ASSERT_TRUE(httpGet(addr,
                        "/run?workload=dnn%2FNoSuchModel",
                        &resp, &error))
        << error;
    EXPECT_EQ(resp.status, 400);
    EXPECT_NE(resp.body.find("unknown DNN model"), std::string::npos);

    ASSERT_TRUE(httpGet(
        addr, "/run?workload=core%2Fmatmul&platforms=mars", &resp,
        &error))
        << error;
    EXPECT_EQ(resp.status, 400);
    EXPECT_NE(resp.body.find("unknown platform"), std::string::npos);

    ASSERT_TRUE(httpGet(addr,
                        "/run?workload=core%2Fmatmul&schemes=XX",
                        &resp, &error))
        << error;
    EXPECT_EQ(resp.status, 400);
    EXPECT_NE(resp.body.find("unknown scheme"), std::string::npos);

    ASSERT_TRUE(httpGet(addr, "/run", &resp, &error)) << error;
    EXPECT_EQ(resp.status, 400);

    ASSERT_TRUE(httpGet(addr, "/nope", &resp, &error)) << error;
    EXPECT_EQ(resp.status, 404);

    // The daemon is still alive and serving.
    ASSERT_TRUE(httpGet(addr, "/stats", &resp, &error)) << error;
    EXPECT_EQ(resp.status, 200);
    // Six turned-away requests: four bad names, the missing
    // workload=, and the 404.
    const auto s = server.metricsSnapshot();
    EXPECT_EQ(s.badRequests, 6u);
    EXPECT_EQ(s.cellsRun, 0u);
    server.shutdown();
}

TEST(ServerTest, OutOfRangeParameterAnswers400AndServingGoesOn)
{
    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("range");
    Server server(opts);
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};

    HttpResponse resp;
    std::string error;

    // scale=0 would divide by zero in graph generation and take the
    // daemon down with it; the registry's range check turns the
    // request away before any engine time is spent.
    ASSERT_TRUE(httpGet(addr,
                        "/run?workload=" +
                            percentEncode("graph/pokec/pagerank?scale=0"),
                        &resp, &error))
        << error;
    EXPECT_EQ(resp.status, 400);
    EXPECT_NE(resp.body.find("scale=0 is not an integer in [1, "),
              std::string::npos)
        << resp.body;

    // Each batch is in range, but its model's feature buffers would
    // overflow the DNN kernel's region, whose allocator is fatal on
    // exhaustion.
    for (const char *w : {"dnn/BERT?task=training&batch=65536",
                          "dnn/MobileNet?task=inference&batch=65536",
                          "dnn/VGG?batch=4096",
                          "dnn/ResNet?task=training&batch=512"}) {
        ASSERT_TRUE(httpGet(addr, "/run?workload=" + percentEncode(w),
                            &resp, &error))
            << error;
        EXPECT_EQ(resp.status, 400) << w;
        EXPECT_NE(resp.body.find("of feature buffers"), std::string::npos)
            << resp.body;
    }

    // The same daemon serves the next valid request.
    ASSERT_TRUE(httpGet(addr, "/run?workload=core%2Fmatmul&schemes=NP",
                        &resp, &error))
        << error;
    EXPECT_EQ(resp.status, 200) << resp.body;

    const auto s = server.metricsSnapshot();
    EXPECT_EQ(s.badRequests, 5u);
    EXPECT_EQ(s.cellsRun, 1u);
    server.shutdown();
}

TEST(ServerTest, DedupCollapsesConcurrentRequestsExactly)
{
    constexpr unsigned kClients = 8;

    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("dedup");
    opts.workers = kClients;
    opts.admissionCapacity = kClients * 2;
    Server server(opts);

    // The leader parks inside the runner until every other client's
    // request has joined its run — so the collapse is exact, not a
    // lucky race.
    std::atomic<bool> release{false};
    server.setCellRunnerForTest([&](const CellKey &cell, Deadline) {
        while (!release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return syntheticOutcome(cell);
    });
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};

    const CellKey cell{"core/matmul",
                       sim::defaultPlatform("core/matmul"),
                       protection::Scheme::NP};
    const std::string key = cell.key();

    std::vector<std::thread> clients;
    std::atomic<unsigned> ok{0};
    std::mutex bodies_mu;
    std::vector<std::string> bodies;
    for (unsigned i = 0; i < kClients; ++i) {
        clients.emplace_back([&] {
            HttpResponse resp;
            std::string error;
            if (httpGet(addr,
                        "/run?workload=core%2Fmatmul&schemes=NP",
                        &resp, &error) &&
                resp.status == 200) {
                ok.fetch_add(1);
                std::lock_guard<std::mutex> lock(bodies_mu);
                bodies.push_back(resp.body);
            }
        });
    }

    // All clients but the leader end up waiting on one run.
    ASSERT_TRUE(eventually([&] {
        return server.cells().waiters(key) == kClients - 1;
    })) << "waiters: " << server.cells().waiters(key);
    release.store(true, std::memory_order_release);

    for (auto &t : clients)
        t.join();

    EXPECT_EQ(ok.load(), kClients);
    const auto s = server.metricsSnapshot();
    EXPECT_EQ(s.cellsRun, 1u);
    EXPECT_EQ(s.dedupCollapsed, kClients - 1);
    EXPECT_EQ(s.served, kClients);
    ASSERT_EQ(bodies.size(), kClients);
    for (const auto &b : bodies)
        EXPECT_EQ(b, bodies.front());
    server.shutdown();
}

TEST(ServerTest, IdenticalRequestsAroundCompletionRunTheCellOnce)
{
    // Four clients ask for one fresh cell, staggered by 20 us each,
    // around a 50 us run: the early ones join the run, the late ones
    // arrive as it finishes. Whichever side of the completion a
    // request lands on, it must not start the cell a second time.
    constexpr unsigned kClients = 4;
    constexpr int kRounds = 2000;

    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("around");
    opts.workers = kClients;
    opts.admissionCapacity = kClients * 2;
    Server server(opts);
    server.setCellRunnerForTest([](const CellKey &cell, Deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        return syntheticOutcome(cell);
    });
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};

    std::barrier round_start(kClients);
    std::atomic<int> failed{0};
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ClientConnection conn(addr);
            for (int round = 0; round < kRounds; ++round) {
                const std::string target =
                    "/run?workload=" +
                    percentEncode("dnn/DLRM?task=inference&seed=" +
                                  std::to_string(round)) +
                    "&schemes=NP";
                round_start.arrive_and_wait();
                const auto until = std::chrono::steady_clock::now() +
                                   std::chrono::microseconds(20 * c);
                while (std::chrono::steady_clock::now() < until) {
                }
                HttpResponse resp;
                std::string error;
                if (!conn.get(target, &resp, &error) || resp.status != 200)
                    failed.fetch_add(1);
            }
        });
    }
    for (auto &t : clients)
        t.join();

    EXPECT_EQ(failed.load(), 0);
    EXPECT_EQ(server.metricsSnapshot().cellsRun, u64{kRounds});
    server.shutdown();
}

TEST(ServerTest, FullAdmissionQueueRejectsWith429)
{
    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("full");
    opts.workers = 1;
    opts.admissionCapacity = 1;
    Server server(opts);

    std::atomic<bool> release{false};
    server.setCellRunnerForTest([&](const CellKey &cell, Deadline) {
        while (!release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return syntheticOutcome(cell);
    });
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};
    const std::string target =
        "/run?workload=core%2Fmatmul&schemes=NP";

    // First request occupies the only worker...
    std::thread first([&] {
        HttpResponse resp;
        std::string error;
        ASSERT_TRUE(httpGet(addr, target, &resp, &error)) << error;
        EXPECT_EQ(resp.status, 200);
    });
    ASSERT_TRUE(eventually(
        [&] { return server.metricsSnapshot().inFlight >= 1; }));

    // ...the second fills the admission queue...
    std::thread second([&] {
        HttpResponse resp;
        std::string error;
        ASSERT_TRUE(httpGet(addr, target, &resp, &error)) << error;
        EXPECT_EQ(resp.status, 200);
    });
    ASSERT_TRUE(eventually(
        [&] { return server.metricsSnapshot().queueDepth >= 1; }));

    // ...so the third is turned away immediately with 429.
    HttpResponse resp;
    std::string error;
    ASSERT_TRUE(httpGet(addr, target, &resp, &error)) << error;
    EXPECT_EQ(resp.status, 429);
    EXPECT_NE(resp.body.find("queue full"), std::string::npos);

    release.store(true, std::memory_order_release);
    first.join();
    second.join();

    const auto s = server.metricsSnapshot();
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.served, 2u);
    EXPECT_EQ(s.maxQueueDepth, 1u);
    server.shutdown();
}

TEST(ServerTest, GracefulShutdownDrainsQueuedRequests)
{
    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("drain");
    opts.workers = 1;
    opts.admissionCapacity = 4;
    Server server(opts);

    std::atomic<bool> release{false};
    server.setCellRunnerForTest([&](const CellKey &cell, Deadline) {
        while (!release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return syntheticOutcome(cell);
    });
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};
    const std::string target =
        "/run?workload=core%2Fmatmul&schemes=NP";

    // One request in flight, one parked in the admission queue.
    std::atomic<unsigned> ok{0};
    std::thread inflight([&] {
        HttpResponse resp;
        std::string error;
        if (httpGet(addr, target, &resp, &error) &&
            resp.status == 200)
            ok.fetch_add(1);
    });
    ASSERT_TRUE(eventually(
        [&] { return server.metricsSnapshot().inFlight >= 1; }));
    std::thread queued([&] {
        HttpResponse resp;
        std::string error;
        if (httpGet(addr, target, &resp, &error) &&
            resp.status == 200)
            ok.fetch_add(1);
    });
    ASSERT_TRUE(eventually(
        [&] { return server.metricsSnapshot().queueDepth >= 1; }));

    server.requestShutdown();
    EXPECT_TRUE(server.stopping());
    release.store(true, std::memory_order_release);
    server.shutdown(); // must drain both, then join

    inflight.join();
    queued.join();
    EXPECT_EQ(ok.load(), 2u) << "draining dropped a request";

    // The socket is gone: new connections fail instead of hanging.
    HttpResponse resp;
    std::string error;
    EXPECT_FALSE(httpGet(addr, "/stats", &resp, &error));
}

TEST(ServerTest, ShutdownEndpointStopsTheServer)
{
    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("shutdown");
    Server server(opts);
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};

    HttpResponse resp;
    std::string error;
    ASSERT_TRUE(httpGet(addr, "/shutdown", &resp, &error)) << error;
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"shutdown\": true"),
              std::string::npos);
    EXPECT_TRUE(server.stopping());
    server.shutdown();
    EXPECT_TRUE(server.metricsSnapshot().draining);
}

TEST(ServerTest, TcpLoopbackEphemeralPortWorks)
{
    ServerOptions opts; // no unix path: TCP, port 0
    Server server(opts);
    server.start();
    ASSERT_NE(server.port(), 0);

    SocketAddress addr;
    addr.port = server.port();
    HttpResponse resp;
    std::string error;
    ASSERT_TRUE(httpGet(addr, "/stats", &resp, &error)) << error;
    EXPECT_EQ(resp.status, 200);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Robustness: oversized requests, liveness, client retries
// ---------------------------------------------------------------------

TEST(Http, OversizedRequestSetsTooLarge)
{
    // Exceeding the 1 MiB request cap is a distinct failure from
    // garbage framing: the parser flags it so the server can answer
    // 431 instead of a generic 400.
    {
        Parser p;
        std::string raw = "GET /run?workload=";
        raw.append(2u << 20, 'a');
        EXPECT_EQ(p.feed(raw.data(), raw.size()),
                  Parser::Status::Error);
        EXPECT_TRUE(p.tooLarge());
        EXPECT_FALSE(p.error().empty());
    }
    {
        Parser p;
        const std::string raw = "NONSENSE\r\n\r\n";
        EXPECT_EQ(p.feed(raw.data(), raw.size()),
                  Parser::Status::Error);
        EXPECT_FALSE(p.tooLarge());
    }
}

TEST(ServerTest, OversizedRequestAnswers431)
{
    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("431");
    Server server(opts);
    server.setCellRunnerForTest(syntheticOutcome);
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};

    // A request line just over the 1 MiB cap: refused with the
    // specific status, counted, and the daemon keeps serving.
    std::string target = "/run?workload=";
    target.append(1u << 20, 'a');
    HttpResponse resp;
    std::string error;
    ASSERT_TRUE(httpGet(addr, target, &resp, &error)) << error;
    EXPECT_EQ(resp.status, 431);
    EXPECT_EQ(resp.reason, "Request Header Fields Too Large");

    ASSERT_TRUE(httpGet(addr, "/stats", &resp, &error)) << error;
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"oversized\": 1"), std::string::npos);
    EXPECT_EQ(server.metricsSnapshot().oversized, 1u);
    server.shutdown();
}

TEST(ServerTest, HealthzReportsLiveness)
{
    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("healthz");
    Server server(opts);
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};

    HttpResponse resp;
    std::string error;
    ASSERT_TRUE(httpGet(addr, "/healthz", &resp, &error)) << error;
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(resp.body.find("\"draining\": false"),
              std::string::npos);
    server.shutdown();
}

TEST(ClientRetry, ConnectRefusedExhaustsAllAttempts)
{
    // Nothing listens here: every attempt fails at connect, so the
    // retry loop runs to exhaustion and reports the attempt count.
    SocketAddress addr;
    addr.unixPath = testSocketPath("nobody-home");
    RetryOptions retry;
    retry.retries = 2;
    retry.backoffMs = 1;
    retry.seed = 7;

    HttpResponse resp;
    std::string error;
    int attempts = 0;
    EXPECT_FALSE(httpGetRetry(addr, "/stats", &resp, &error, 1000,
                              retry, &attempts));
    EXPECT_EQ(attempts, 3); // first try + 2 retries
    EXPECT_FALSE(error.empty());
}

TEST(ClientRetry, LongRetryBudgetStaysDefined)
{
    // Eighty retries double the delay base far past 64 bits; it must
    // stop at the 1 ms ceiling instead of shifting out of range.
    SocketAddress addr;
    addr.unixPath = testSocketPath("long-retry");
    RetryOptions retry;
    retry.retries = 80;
    retry.backoffMs = 1;
    retry.maxBackoffMs = 1;
    retry.seed = 7;

    HttpResponse resp;
    std::string error;
    int attempts = 0;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(httpGetRetry(addr, "/stats", &resp, &error, 1000,
                              retry, &attempts));
    EXPECT_EQ(attempts, 81);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
}

TEST(ClientRetry, ExhaustedBackpressureReturnsTheLastStatus)
{
    // A server that answers 429 on every attempt: the retry loop
    // exhausts, but the outcome is a *successful* transport with the
    // server's final answer — "the server said no" must stay
    // distinguishable from "the server never answered".
    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("retry429");
    opts.workers = 1;
    opts.admissionCapacity = 1;
    Server server(opts);

    std::atomic<bool> release{false};
    server.setCellRunnerForTest([&](const CellKey &cell, Deadline) {
        while (!release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return syntheticOutcome(cell);
    });
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};
    const std::string target =
        "/run?workload=core%2Fmatmul&schemes=NP";

    // Wedge the only worker, then fill the one queue slot.
    std::thread first([&] {
        HttpResponse resp;
        std::string error;
        ASSERT_TRUE(httpGet(addr, target, &resp, &error)) << error;
        EXPECT_EQ(resp.status, 200);
    });
    ASSERT_TRUE(eventually(
        [&] { return server.metricsSnapshot().inFlight >= 1; }));
    std::thread second([&] {
        HttpResponse resp;
        std::string error;
        ASSERT_TRUE(httpGet(addr, target, &resp, &error)) << error;
        EXPECT_EQ(resp.status, 200);
    });
    ASSERT_TRUE(eventually(
        [&] { return server.metricsSnapshot().queueDepth >= 1; }));

    RetryOptions retry;
    retry.retries = 2;
    retry.backoffMs = 1;
    retry.seed = 7;
    HttpResponse resp;
    std::string error;
    int attempts = 0;
    ASSERT_TRUE(httpGetRetry(addr, target, &resp, &error, 5000, retry,
                             &attempts))
        << error;
    EXPECT_EQ(resp.status, 429);
    EXPECT_EQ(attempts, 3);
    EXPECT_EQ(server.metricsSnapshot().rejected, 3u);

    release.store(true, std::memory_order_release);
    first.join();
    second.join();
    server.shutdown();
}

// ---------------------------------------------------------------------
// Keep-alive and response framing
// ---------------------------------------------------------------------

TEST(HttpResponseParserTest, FramesByContentLengthWithoutEof)
{
    const std::string body = "{\"ok\": true}\n";
    const std::string raw = httpResponse(200, "application/json",
                                         body, {}, true);
    HttpResponseParser p;
    // Byte by byte: completion arrives exactly at Content-Length,
    // with no EOF needed — that is what makes reuse possible.
    for (std::size_t i = 0; i + 1 < raw.size(); ++i)
        ASSERT_EQ(p.feed(&raw[i], 1),
                  HttpResponseParser::Status::Incomplete)
            << "byte " << i;
    EXPECT_EQ(p.feed(&raw[raw.size() - 1], 1),
              HttpResponseParser::Status::Complete);
    EXPECT_EQ(p.response().status, 200);
    EXPECT_EQ(p.response().body, body);
    EXPECT_EQ(p.response().header("connection").value_or(""),
              "keep-alive");
}

TEST(HttpResponseParserTest, EofMidBodyIsATruncationError)
{
    const std::string raw = "HTTP/1.1 200 OK\r\n"
                            "Content-Length: 100\r\n\r\n"
                            "only a few bytes";
    HttpResponseParser p;
    EXPECT_EQ(p.feed(raw.data(), raw.size()),
              HttpResponseParser::Status::Incomplete);
    EXPECT_TRUE(p.headersComplete());
    EXPECT_EQ(p.finishEof(), HttpResponseParser::Status::Error);
    EXPECT_NE(p.error().find("mid-response"), std::string::npos);
}

TEST(ServerTest, KeepAliveServesManyRequestsOnOneConnection)
{
    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("keepalive");
    Server server(opts);
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};

    ClientConnection conn(addr);
    for (int i = 0; i < 3; ++i) {
        HttpResponse resp;
        std::string error;
        ASSERT_TRUE(conn.get("/healthz", &resp, &error)) << error;
        EXPECT_EQ(resp.status, 200);
        EXPECT_EQ(conn.lastReused(), i > 0) << i;
    }
    const auto s = server.metricsSnapshot();
    EXPECT_EQ(s.accepted, 1u);
    EXPECT_EQ(s.served, 3u);
    EXPECT_EQ(s.keepAliveReused, 2u);
    server.shutdown();
}

/**
 * A raw unix-socket listener that answers each accepted connection
 * with the next scripted byte string (after reading a little of the
 * request), then closes — the shape of a worker dying mid-response.
 */
class ScriptedServer
{
  public:
    ScriptedServer(std::string path, std::vector<std::string> scripts)
        : path_(std::move(path)), scripts_(std::move(scripts))
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        ::unlink(path_.c_str());
        sockaddr_un sa{};
        sa.sun_family = AF_UNIX;
        std::strncpy(sa.sun_path, path_.c_str(),
                     sizeof sa.sun_path - 1);
        if (fd_ < 0 ||
            ::bind(fd_, reinterpret_cast<sockaddr *>(&sa),
                   sizeof sa) != 0 ||
            ::listen(fd_, 8) != 0) {
            ADD_FAILURE() << "ScriptedServer setup failed on "
                          << path_;
            return;
        }
        thread_ = std::thread([this] {
            for (const std::string &script : scripts_) {
                const int c = ::accept(fd_, nullptr, nullptr);
                if (c < 0)
                    return;
                char buf[1024];
                (void)::recv(c, buf, sizeof buf, 0);
                if (!script.empty())
                    (void)::send(c, script.data(), script.size(),
                                 MSG_NOSIGNAL);
                ::close(c);
            }
        });
    }

    ~ScriptedServer()
    {
        ::close(fd_);
        if (thread_.joinable())
            thread_.join();
        ::unlink(path_.c_str());
    }

  private:
    std::string path_;
    std::vector<std::string> scripts_;
    int fd_ = -1;
    std::thread thread_;
};

TEST(ClientFailure, ResetAfterPartialResponseIsClassified)
{
    const std::string path = testSocketPath("partial");
    ScriptedServer scripted(
        path, {"HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\nhalf"});
    const SocketAddress addr{path, "127.0.0.1", 0};

    HttpResponse resp;
    std::string error;
    GetFailure failure = GetFailure::None;
    EXPECT_FALSE(httpGet(addr, "/stats", &resp, &error, 5000,
                         &failure));
    // Truncated-but-parseable must never surface as success: the
    // classification is what lets callers know a retry is safe.
    EXPECT_EQ(failure, GetFailure::PartialResponse);
    EXPECT_NE(error.find("mid-response"), std::string::npos);
}

// ---------------------------------------------------------------------
// Kept cells
// ---------------------------------------------------------------------

TEST(ServerTest, ResultMemoWarmRepeatSkipsEngine)
{
    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("memo");
    Server server(opts);
    std::atomic<int> runs{0};
    server.setCellRunnerForTest([&](const CellKey &cell, Deadline) {
        runs.fetch_add(1);
        return syntheticOutcome(cell);
    });
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};
    const std::string target =
        "/run?workload=core%2Fmatmul&schemes=NP";

    HttpResponse cold, warm;
    std::string error;
    ASSERT_TRUE(httpGet(addr, target, &cold, &error)) << error;
    ASSERT_EQ(cold.status, 200) << cold.body;
    EXPECT_EQ(runs.load(), 1);
    EXPECT_EQ(server.cells().size(), 1u);

    // The warm repeat answers from the memo: no engine run, same
    // bytes.
    ASSERT_TRUE(httpGet(addr, target, &warm, &error)) << error;
    ASSERT_EQ(warm.status, 200);
    EXPECT_EQ(warm.body, cold.body);
    EXPECT_EQ(runs.load(), 1);

    const auto s = server.metricsSnapshot();
    EXPECT_EQ(s.cellsRun, 1u);
    EXPECT_EQ(s.resultMemoHits, 1u);
    HttpResponse stats;
    ASSERT_TRUE(httpGet(addr, "/stats", &stats, &error)) << error;
    EXPECT_NE(stats.body.find("\"resultMemoHits\": 1"),
              std::string::npos);
    server.shutdown();
}

TEST(ServerTest, ResultMemoEvictsLeastRecentlyUsed)
{
    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("memolru");
    opts.resultMemoCapacity = 1;
    Server server(opts);
    std::atomic<int> runs{0};
    server.setCellRunnerForTest([&](const CellKey &cell, Deadline) {
        runs.fetch_add(1);
        return syntheticOutcome(cell);
    });
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};
    const std::string np = "/run?workload=core%2Fmatmul&schemes=NP";
    const std::string bp = "/run?workload=core%2Fmatmul&schemes=BP";

    HttpResponse resp;
    std::string error;
    ASSERT_TRUE(httpGet(addr, np, &resp, &error)) << error;
    ASSERT_TRUE(httpGet(addr, bp, &resp, &error)) << error;
    // BP evicted NP (capacity 1), so NP runs the engine again...
    ASSERT_TRUE(httpGet(addr, np, &resp, &error)) << error;
    EXPECT_EQ(runs.load(), 3);
    EXPECT_EQ(server.cells().size(), 1u);
    // ...and the immediate repeat is the memo hit.
    ASSERT_TRUE(httpGet(addr, np, &resp, &error)) << error;
    EXPECT_EQ(runs.load(), 3);
    EXPECT_EQ(server.metricsSnapshot().resultMemoHits, 1u);
    server.shutdown();
}

TEST(ServerTest, ResultMemoDisabledRunsEveryTime)
{
    ServerOptions opts;
    opts.listen.unixPath = testSocketPath("nomemo");
    opts.resultMemoCapacity = 0;
    Server server(opts);
    std::atomic<int> runs{0};
    server.setCellRunnerForTest([&](const CellKey &cell, Deadline) {
        runs.fetch_add(1);
        return syntheticOutcome(cell);
    });
    server.start();
    const SocketAddress addr{opts.listen.unixPath, "127.0.0.1", 0};
    const std::string target =
        "/run?workload=core%2Fmatmul&schemes=NP";

    HttpResponse resp;
    std::string error;
    ASSERT_TRUE(httpGet(addr, target, &resp, &error)) << error;
    ASSERT_TRUE(httpGet(addr, target, &resp, &error)) << error;
    EXPECT_EQ(runs.load(), 2);
    EXPECT_EQ(server.metricsSnapshot().resultMemoHits, 0u);
    EXPECT_EQ(server.cells().size(), 0u);
    server.shutdown();
}

TEST(ClientFailure, PartialResponseIsRetriedToSuccess)
{
    const std::string good =
        httpResponse(200, "application/json", "{\"ok\": true}\n");
    const std::string path = testSocketPath("partial-retry");
    ScriptedServer scripted(
        path,
        {"HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\nhalf", good});
    const SocketAddress addr{path, "127.0.0.1", 0};

    RetryOptions retry;
    retry.retries = 2;
    retry.backoffMs = 1;
    retry.seed = 7;
    HttpResponse resp;
    std::string error;
    int attempts = 0;
    RetryStats stats;
    ASSERT_TRUE(httpGetRetry(addr, "/stats", &resp, &error, 5000,
                             retry, &attempts, &stats))
        << error;
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(attempts, 2);
    EXPECT_EQ(stats.attempts, 2u);
    EXPECT_EQ(stats.partialResponses, 1u);
}

} // namespace
} // namespace mgx::serve
