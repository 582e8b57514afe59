/**
 * @file
 * Fault-injection tests: the failpoint registry's arming grammar and
 * counters, the checksummed trace envelope (CRC32 vector, round trip,
 * truncation, bit flips, legacy streams), trace-file writes that fail
 * mid-way (a failed open, ENOSPC, a short write or a torn rename
 * never publishes the target path), the serve layer's deadline and
 * stuck-client recovery, and a single self-contained sweep proving
 * every registered failpoint in the binary actually fires.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/bitops.h"
#include "common/checksum.h"
#include "common/failpoint.h"
#include "fleet/backend.h"
#include "fleet/proxy.h"
#include "fleet/supervisor.h"
#include "protection/scheme.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/experiment.h"
#include "sim/trace_io.h"
#include "sim/workload_registry.h"

namespace mgx {
namespace {

namespace fs = std::filesystem;
using Deadline = std::chrono::steady_clock::time_point;

/** Small and fast, but real: one matmul cell, NP only. */
constexpr const char *kWorkload = "core/matmul?m=256&n=256&k=256";

/** Fresh unique directory, removed on scope exit. */
struct TempDir
{
    explicit TempDir(const char *tag)
    {
        path = fs::temp_directory_path() /
               ("mgx-fault-" + std::string(tag) + "-" +
                std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string str() const { return path.string(); }
    fs::path path;
};

/** Every guard in this file restores a clean registry on both ends. */
struct FailpointGuard
{
    FailpointGuard() { failpoint::disarmAll(); }
    ~FailpointGuard() { failpoint::disarmAll(); }
};

/** Stream kWorkload's trace into @p file (checksummed envelope). */
void
writeKernelTrace(const std::string &file)
{
    sim::TraceFileWriteSink sink(file);
    sim::makeKernel(kWorkload)->stream()->drainTo(sink);
    sink.finish();
}

/** Pull @p file through FilePhaseSource, verifying its envelope. */
core::Trace
readVerified(const std::string &file)
{
    core::Trace trace;
    core::TraceBuildSink sink(trace);
    sim::FilePhaseSource(file).drainTo(sink);
    return trace;
}

std::vector<fs::path>
filesContaining(const fs::path &dir, const std::string &needle)
{
    std::vector<fs::path> out;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().filename().string().find(needle) !=
            std::string::npos)
            out.push_back(entry.path());
    return out;
}

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------------
// Failpoint registry
// ---------------------------------------------------------------------

TEST(Failpoint, SpecGrammarAndCounters)
{
    FailpointGuard guard;
    auto &p = failpoint::Point::get("test.grammar");

    // off (default): evaluated, never hits.
    EXPECT_FALSE(p.fire());
    EXPECT_EQ(p.spec(), "off");

    ASSERT_TRUE(p.arm("once"));
    EXPECT_TRUE(p.fire());
    EXPECT_FALSE(p.fire());
    ASSERT_TRUE(p.arm("once")); // re-arming reloads the shot
    EXPECT_TRUE(p.fire());
    EXPECT_FALSE(p.fire());

    failpoint::resetCounters();
    ASSERT_TRUE(p.arm("every:2"));
    EXPECT_FALSE(p.fire()); // eval 1
    EXPECT_TRUE(p.fire());  // eval 2
    EXPECT_FALSE(p.fire()); // eval 3
    EXPECT_TRUE(p.fire());  // eval 4
    EXPECT_EQ(p.evaluations(), 4u);
    EXPECT_EQ(p.hits(), 2u);

    ASSERT_TRUE(p.arm("always"));
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(p.fire());

    p.disarm();
    EXPECT_FALSE(p.fire());
    EXPECT_EQ(p.spec(), "off");

    // Malformed specs are rejected and leave the point as-is.
    EXPECT_FALSE(p.arm("nonsense"));
    EXPECT_FALSE(p.arm("every:0"));
    EXPECT_FALSE(p.arm("every:2x"));
    EXPECT_FALSE(p.arm("twice"));
    EXPECT_FALSE(p.arm("every:-1"));
    EXPECT_EQ(p.spec(), "off");
}

TEST(Failpoint, SpecListArmsAndHoldsPendingNames)
{
    FailpointGuard guard;
    // The second name has never registered: the spec is held and
    // applied the moment the point appears.
    std::string error;
    ASSERT_TRUE(failpoint::armSpecList(
        "test.list.known=once,test.list.pending=every:2", &error))
        << error;
    auto &known = failpoint::Point::get("test.list.known");
    EXPECT_EQ(known.spec(), "once");

    auto &late = failpoint::Point::get("test.list.pending");
    EXPECT_EQ(late.spec(), "every:2");
    EXPECT_FALSE(late.fire());
    EXPECT_TRUE(late.fire());
    EXPECT_FALSE(late.fire());

    EXPECT_FALSE(failpoint::armSpecList("garbage-no-equals", &error));
    EXPECT_NE(error.find("garbage-no-equals"), std::string::npos);
    EXPECT_FALSE(
        failpoint::armSpecList("test.list.known=bogus", &error));
    EXPECT_NE(error.find("test.list.known=bogus"), std::string::npos);
    // A malformed spec for a name that has not registered is rejected
    // now, not dropped when the point appears.
    EXPECT_FALSE(failpoint::armSpecList(
        "test.list.never=twice", &error));
    EXPECT_NE(error.find("test.list.never=twice"), std::string::npos);

    // all() reports both points, sorted, with live counters.
    bool saw_known = false, saw_pending = false;
    for (const auto &info : failpoint::all()) {
        if (info.name == "test.list.known")
            saw_known = true;
        if (info.name == "test.list.pending") {
            saw_pending = true;
            EXPECT_EQ(info.evaluations, 3u);
            EXPECT_EQ(info.hits, 1u);
        }
    }
    EXPECT_TRUE(saw_known);
    EXPECT_TRUE(saw_pending);
}

// ---------------------------------------------------------------------
// CRC32 and the trace envelope
// ---------------------------------------------------------------------

TEST(Checksum, Crc32MatchesKnownVector)
{
    // The canonical CRC-32 check value ("123456789" -> 0xCBF43926).
    const char *vec = "123456789";
    EXPECT_EQ(crc32Update(0, vec, std::strlen(vec)), 0xCBF43926u);
    // Incremental updates compose.
    u32 crc = crc32Update(0, "1234", 4);
    crc = crc32Update(crc, "56789", 5);
    EXPECT_EQ(crc, 0xCBF43926u);
    EXPECT_EQ(crc32Update(0, "", 0), 0u);
}

TEST(TraceEnvelope, WriteSinkRoundTripsWithVerifiedChecksum)
{
    TempDir dir("roundtrip");
    const std::string file = (dir.path / "t.trace").string();

    writeKernelTrace(file);

    // Envelope shape: version header first, CRC footer last.
    const std::string raw = slurp(file);
    EXPECT_EQ(raw.rfind("M mgx-trace 2\n", 0), 0u);
    const std::size_t last_line = raw.rfind("\nC ");
    ASSERT_NE(last_line, std::string::npos);

    // Reading verifies and strips the envelope; the payload must
    // equal the materialized trace byte for byte.
    EXPECT_EQ(sim::traceToString(readVerified(file)),
              sim::traceToString(sim::makeKernel(kWorkload)->generate()));
}

TEST(TraceEnvelope, TruncationIsDetected)
{
    TempDir dir("truncate");
    const std::string file = (dir.path / "t.trace").string();
    writeKernelTrace(file);
    std::string raw = slurp(file);
    // Drop the footer line — the classic crash-mid-write shape.
    raw.erase(raw.rfind("C "));
    {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out << raw;
    }
    try {
        readVerified(file);
        FAIL() << "truncated trace verified";
    } catch (const sim::TraceIoError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceEnvelope, BitFlipIsDetected)
{
    TempDir dir("bitflip");
    const std::string file = (dir.path / "t.trace").string();
    writeKernelTrace(file);
    std::string raw = slurp(file);
    // Flip one hex digit in the middle of the payload: every line
    // still parses, only the CRC can notice.
    const std::size_t pos = raw.find('7', raw.size() / 2);
    ASSERT_NE(pos, std::string::npos);
    raw[pos] = '8';
    {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out << raw;
    }
    EXPECT_THROW(readVerified(file), sim::TraceIoError);
}

TEST(TraceEnvelope, LegacyHeaderlessStreamsStillParse)
{
    const core::Trace trace =
        sim::makeKernel(kWorkload)->generate();
    const std::string payload = sim::traceToString(trace);
    // Envelope-free text (traceToString / dumps) still parses.
    const core::Trace again = sim::traceFromString(payload);
    EXPECT_EQ(sim::traceToString(again), payload);
}

// ---------------------------------------------------------------------
// Trace-file writes that fail never publish the target path
// ---------------------------------------------------------------------

TEST(TraceFileFault, EnospcPublishesNothing)
{
    FailpointGuard guard;
    TempDir dir("enospc");
    const std::string file = (dir.path / "t.trace").string();
    ASSERT_TRUE(
        failpoint::armSpecList("trace_io.write.enospc=once"));
    EXPECT_THROW(writeKernelTrace(file), sim::TraceIoError);
    // No half-written trace, no leaked temporary: consume() removes
    // the temporary before it throws.
    EXPECT_TRUE(fs::is_empty(dir.path));
}

TEST(TraceFileFault, ShortWritePublishesNothing)
{
    FailpointGuard guard;
    TempDir dir("short");
    const std::string file = (dir.path / "t.trace").string();
    ASSERT_TRUE(failpoint::armSpecList("trace_io.write.short=once"));
    EXPECT_THROW(writeKernelTrace(file), sim::TraceIoError);
    EXPECT_TRUE(fs::is_empty(dir.path));
}

TEST(TraceFileFault, TornRenameLeavesOnlyTmp)
{
    FailpointGuard guard;
    TempDir dir("torn");
    const std::string file = (dir.path / "t.trace").string();
    ASSERT_TRUE(failpoint::armSpecList("trace_io.write.torn=once"));
    EXPECT_THROW(writeKernelTrace(file), sim::TraceIoError);
    // The crash-before-rename shape: the temporary exists, the
    // published name does not.
    EXPECT_FALSE(fs::exists(file));
    EXPECT_EQ(filesContaining(dir.path, ".trace.tmp.").size(), 1u);

    // Nothing half-written ever sits at the target: the next write
    // publishes normally, and the file verifies.
    writeKernelTrace(file);
    EXPECT_EQ(sim::traceToString(readVerified(file)),
              sim::traceToString(sim::makeKernel(kWorkload)->generate()));
}

// ---------------------------------------------------------------------
// Trace parser fuzz
// ---------------------------------------------------------------------

/** @p s after one to four random edits aimed at the trace grammar. */
std::string
mutateTrace(std::string s, std::mt19937_64 &rng)
{
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    static const char *const kTokens[] = {
        "-", "+", "0x", "-1", " ", "\n", "#", "P ", "A ", "C ",
        "M mgx-trace 2\n", "18446744073709551615", "ffffffffffffffc0"};
    for (std::size_t r = 1 + pick(4); r > 0; --r) {
        // A random byte, and the line holding it (with its newline).
        const std::size_t at = pick(s.size() + 1);
        const std::size_t prev = at == 0 ? std::string::npos
                                         : s.rfind('\n', at - 1);
        const std::size_t bol = prev == std::string::npos ? 0 : prev + 1;
        const std::size_t nl = s.find('\n', bol);
        const std::size_t eol = nl == std::string::npos ? s.size() : nl + 1;
        switch (pick(6)) {
          case 0: // flip bits of one byte
            if (at < s.size())
                s[at] ^= static_cast<char>(1 + pick(255));
            break;
          case 1: // truncate
            s.resize(at);
            break;
          case 2: // delete a line
            s.erase(bol, eol - bol);
            break;
          case 3: // duplicate a line
            s.insert(bol, s.substr(bol, eol - bol));
            break;
          case 4: { // a run of digits
            std::string run(1 + pick(24), '0');
            for (char &c : run)
                c = static_cast<char>('0' + pick(10));
            s.insert(at, run);
            break;
          }
          default: // a sign, 0x, a record tag or a field separator
            s.insert(at, kTokens[pick(std::size(kTokens))]);
            break;
        }
    }
    return s;
}

TEST(TraceFuzz, MutatedTracesAreRejectedOrParse)
{
    // Seeded mutations of three registry kernels' trace text and of
    // one checksummed trace file. Each mutant is parsed whole
    // (traceFromString) and streamed (FilePhaseSource over a file):
    // either both raise TraceIoError, or both yield the same phases,
    // whose accesses stay inside the parser's bounds (size, no wrap, a
    // MAC granularity of 0 or a power of two of at least 64) and whose
    // canonical text parses back to itself.
    TempDir dir("fuzz");
    const std::string file = (dir.path / "m.trace").string();
    std::vector<std::string> seeds;
    for (const char *w : {"core/matmul?m=64&n=64&k=64&ktiles=2",
                          "genome/chrYONT2D?reads=1",
                          "video/h264?frames=4"})
        seeds.push_back(sim::traceToString(sim::makeKernel(w)->generate()));
    {
        sim::TraceFileWriteSink sink(file);
        sim::makeKernel("core/matmul?m=64&n=64&k=64")->stream()->drainTo(
            sink);
        sink.finish();
        seeds.push_back(slurp(file));
    }
    const u64 max_bytes = protection::ProtectionConfig{}.protectedBytes;

    std::mt19937_64 rng(0x7ace);
    int rejected = 0;
    constexpr int kMutants = 3000;
    for (int i = 0; i < kMutants; ++i) {
        const std::string text =
            mutateTrace(seeds[rng() % seeds.size()], rng);
        std::ofstream(file, std::ios::binary) << text;

        std::string whole, streamed;
        bool whole_threw = false, streamed_threw = false;
        try {
            whole = sim::traceToString(sim::traceFromString(text));
        } catch (const sim::TraceIoError &) {
            whole_threw = true;
        }
        try {
            streamed = sim::traceToString(readVerified(file));
        } catch (const sim::TraceIoError &) {
            streamed_threw = true;
        }
        ASSERT_EQ(whole_threw, streamed_threw) << text;
        if (whole_threw) {
            ++rejected;
            continue;
        }
        ASSERT_EQ(whole, streamed) << text;
        const core::Trace parsed = sim::traceFromString(whole);
        ASSERT_EQ(sim::traceToString(parsed), whole) << text;
        for (const auto &phase : parsed)
            for (const auto &acc : phase.accesses) {
                ASSERT_LE(acc.bytes, max_bytes) << text;
                ASSERT_GE(acc.addr + acc.bytes, acc.addr) << text;
                ASSERT_TRUE(acc.macGranularity == 0 ||
                            (acc.macGranularity >= 64 &&
                             isPow2(acc.macGranularity)))
                    << text;
            }
    }
    // Both outcomes are exercised.
    EXPECT_GT(rejected, kMutants / 4);
    EXPECT_LT(rejected, kMutants);
}

// ---------------------------------------------------------------------
// Serve-layer recovery: deadlines and stuck clients free the worker
// ---------------------------------------------------------------------

std::string
testSocketPath(const char *tag)
{
    return "/tmp/mgx-fault-test-" + std::to_string(::getpid()) + "-" +
           tag + ".sock";
}

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

sim::RunRecord
syntheticOutcome(const serve::CellKey &cell, Deadline = {})
{
    sim::RunRecord out;
    out.key = {cell.workload, cell.platform.name, cell.scheme};
    out.result.totalCycles = 1000;
    return out;
}

TEST(ServeFault, ExpiredDeadlineAnswers503AndFreesTheWorker)
{
    serve::ServerOptions opts;
    opts.listen.unixPath = testSocketPath("deadline");
    opts.workers = 1;
    opts.requestDeadlineMs = 50;
    serve::Server server(opts);

    // A runner that stops itself the way an engine cell does: it polls
    // its deadline and throws once it has passed.
    std::atomic<int> runs{0};
    std::atomic<int> running{0};
    server.setCellRunnerForTest(
        [&](const serve::CellKey &, Deadline deadline) -> sim::RunRecord {
            runs.fetch_add(1);
            running.fetch_add(1);
            while (std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            running.fetch_sub(1);
            throw sim::DeadlineExceeded();
        });
    server.start();
    const serve::SocketAddress addr{opts.listen.unixPath, "127.0.0.1",
                                    0};
    const std::string target =
        "/run?workload=core%2Fmatmul&schemes=NP";

    serve::HttpResponse resp;
    std::string error;
    ASSERT_TRUE(serve::httpGet(addr, target, &resp, &error)) << error;
    EXPECT_EQ(resp.status, 503);
    EXPECT_NE(resp.body.find("deadline exceeded"), std::string::npos);
    // The 503 is sent after the cell stopped: nothing is left running.
    EXPECT_EQ(running.load(), 0);

    // The worker is free again — with one worker, only a freed worker
    // can answer this.
    ASSERT_TRUE(serve::httpGet(addr, "/stats", &resp, &error))
        << error;
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"deadlineExceeded\": 1"),
              std::string::npos);

    // No entry outlived its request, so a retry runs the cell afresh
    // under its own deadline.
    ASSERT_TRUE(serve::httpGet(addr, target, &resp, &error)) << error;
    EXPECT_EQ(resp.status, 503);
    EXPECT_EQ(runs.load(), 2);
    EXPECT_EQ(running.load(), 0);

    server.shutdown();
    EXPECT_EQ(server.metricsSnapshot().deadlineExceeded, 2u);
}

TEST(ServeFault, FollowersOfAStoppedCellGetTheSame503)
{
    serve::ServerOptions opts;
    opts.listen.unixPath = testSocketPath("deadline-followers");
    opts.workers = 2;
    opts.requestDeadlineMs = 60000;
    serve::Server server(opts);

    // The leader's cell stops once a second request has joined its
    // run, as if its deadline had passed.
    const serve::CellKey cell{"core/matmul",
                              sim::defaultPlatform("core/matmul"),
                              protection::Scheme::NP};
    std::atomic<int> runs{0};
    server.setCellRunnerForTest(
        [&](const serve::CellKey &, Deadline) -> sim::RunRecord {
            runs.fetch_add(1);
            eventually([&] {
                return server.cells().waiters(cell.key()) > 0;
            });
            throw sim::DeadlineExceeded();
        });
    server.start();
    const serve::SocketAddress addr{opts.listen.unixPath, "127.0.0.1",
                                    0};

    std::atomic<int> answered503{0};
    std::vector<std::thread> clients;
    for (int i = 0; i < 2; ++i)
        clients.emplace_back([&] {
            serve::HttpResponse resp;
            std::string error;
            if (serve::httpGet(addr,
                               "/run?workload=core%2Fmatmul&schemes=NP",
                               &resp, &error) &&
                resp.status == 503 &&
                resp.body.find("deadline exceeded") != std::string::npos)
                answered503.fetch_add(1);
        });
    for (auto &t : clients)
        t.join();

    EXPECT_EQ(answered503.load(), 2);
    EXPECT_EQ(runs.load(), 1);
    server.shutdown();
    EXPECT_EQ(server.metricsSnapshot().deadlineExceeded, 2u);
}

TEST(ServeFault, ExpiredDeadlineStopsARealCell)
{
    // A real engine cell that runs for seconds: the deadline stops it
    // at a chunk boundary, so shutting down right after the 503 has no
    // cell to wait for.
    serve::ServerOptions opts;
    opts.listen.unixPath = testSocketPath("deadline-real");
    opts.workers = 1;
    opts.requestDeadlineMs = 100;
    serve::Server server(opts);
    server.start();
    const serve::SocketAddress addr{opts.listen.unixPath, "127.0.0.1",
                                    0};

    serve::HttpResponse resp;
    std::string error;
    ASSERT_TRUE(serve::httpGet(
        addr,
        "/run?workload=" +
            serve::percentEncode(
                "graph/pokec/pagerank?scale=1&vector=random") +
            "&schemes=BP",
        &resp, &error))
        << error;
    EXPECT_EQ(resp.status, 503);
    EXPECT_NE(resp.body.find("deadline exceeded"), std::string::npos);

    const auto t0 = std::chrono::steady_clock::now();
    server.shutdown();
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(1));
    EXPECT_EQ(server.metricsSnapshot().deadlineExceeded, 1u);
}

TEST(ServeFault, StuckClientIsTimedOutAndTheWorkerFreed)
{
    serve::ServerOptions opts;
    opts.listen.unixPath = testSocketPath("stuck");
    opts.workers = 1;
    opts.ioTimeoutMs = 150; // SO_RCVTIMEO on the accepted socket
    serve::Server server(opts);
    server.setCellRunnerForTest(syntheticOutcome);
    server.start();
    const serve::SocketAddress addr{opts.listen.unixPath, "127.0.0.1",
                                    0};

    // A client that connects and then says nothing wedges the only
    // worker until the receive timeout trips.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, opts.listen.unixPath.c_str(),
                 sizeof sa.sun_path - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                        sizeof sa),
              0);
    ASSERT_TRUE(eventually(
        [&] { return server.metricsSnapshot().inFlight >= 1; }));

    // Within the timeout (plus slack) the worker answers 400 to the
    // silent peer and moves on; a normal request then succeeds.
    ASSERT_TRUE(eventually(
        [&] { return server.metricsSnapshot().inFlight == 0; }, 5000));
    serve::HttpResponse resp;
    std::string error;
    ASSERT_TRUE(serve::httpGet(addr, "/stats", &resp, &error))
        << error;
    EXPECT_EQ(resp.status, 200);
    EXPECT_GE(server.metricsSnapshot().badRequests, 1u);
    ::close(fd);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Coverage: every registered failpoint fires at least once
// ---------------------------------------------------------------------

TEST(FailpointCoverage, EveryRegisteredFailpointFires)
{
    // gtest_discover_tests runs each TEST in its own process, so this
    // must be one self-contained sweep: arm every point in turn, drive
    // the code path that evaluates it, then audit the registry.
    FailpointGuard guard;
    failpoint::resetCounters();

    // Trace-file faults, driven through trace_io directly: each armed
    // point fails its write or read with TraceIoError.
    {
        TempDir dir("coverage");
        const std::string file = (dir.path / "t.trace").string();
        for (const char *spec :
             {"trace_io.write.open=once", "trace_io.write.enospc=once",
              "trace_io.write.short=once", "trace_io.write.torn=once"}) {
            ASSERT_TRUE(failpoint::armSpecList(spec));
            EXPECT_THROW(writeKernelTrace(file), sim::TraceIoError)
                << spec;
            failpoint::disarmAll();
            EXPECT_FALSE(fs::exists(file)) << spec;
        }

        writeKernelTrace(file); // unarmed: a valid file to read back
        ASSERT_TRUE(failpoint::armSpecList("trace_io.read.open=once"));
        EXPECT_THROW(sim::FilePhaseSource source(file),
                     sim::TraceIoError);
        failpoint::disarmAll();
        ASSERT_TRUE(
            failpoint::armSpecList("trace_io.read.corrupt=once"));
        EXPECT_THROW(readVerified(file), sim::TraceIoError);
        failpoint::disarmAll();
        EXPECT_EQ(sim::traceToString(readVerified(file)),
                  sim::traceToString(
                      sim::makeKernel(kWorkload)->generate()));
    }

    // Serve-side faults: one dropped accept, one dead recv, one dead
    // send — the daemon survives all three and keeps answering.
    {
        serve::ServerOptions opts;
        opts.listen.unixPath = testSocketPath("coverage");
        serve::Server server(opts);
        server.setCellRunnerForTest(syntheticOutcome);
        server.start();
        const serve::SocketAddress addr{opts.listen.unixPath,
                                        "127.0.0.1", 0};
        serve::HttpResponse resp;
        std::string error;
        serve::RetryOptions retry;
        retry.retries = 3;
        retry.backoffMs = 1;
        retry.seed = 42;

        ASSERT_TRUE(failpoint::armSpecList("serve.accept.fail=once"));
        // First connection is dropped before reading; the retry lands.
        ASSERT_TRUE(serve::httpGetRetry(addr, "/stats", &resp, &error,
                                        5000, retry))
            << error;
        EXPECT_EQ(resp.status, 200);
        failpoint::disarmAll();

        ASSERT_TRUE(failpoint::armSpecList("serve.recv.fail=once"));
        // The injected mid-request loss yields a 400; the daemon
        // stays up and the next request is normal.
        ASSERT_TRUE(serve::httpGet(addr, "/stats", &resp, &error))
            << error;
        EXPECT_EQ(resp.status, 400);
        failpoint::disarmAll();

        ASSERT_TRUE(failpoint::armSpecList("serve.send.fail=once"));
        // The response never leaves; the client sees a transport
        // failure and the retry succeeds.
        ASSERT_TRUE(serve::httpGetRetry(addr, "/stats", &resp, &error,
                                        5000, retry))
            << error;
        EXPECT_EQ(resp.status, 200);
        failpoint::disarmAll();
        server.shutdown();
    }

    // Fleet proxy boundaries: an injected backend connect failure and
    // an injected mid-response reset both fail over (here: to a
    // second attempt at the same single backend) without the client
    // seeing anything but the full, correct body.
    {
        serve::ServerOptions bopts;
        bopts.listen.unixPath = testSocketPath("fleetback");
        serve::Server backend(bopts);
        backend.setCellRunnerForTest(syntheticOutcome);
        backend.start();

        fleet::StaticDirectory dir;
        dir.add("w0", serve::SocketAddress{bopts.listen.unixPath,
                                           "127.0.0.1", 0});
        fleet::ProxyOptions popts;
        popts.listen.unixPath = testSocketPath("fleetproxy");
        popts.failoverPauseMs = 10;
        fleet::Proxy proxy(popts, &dir);
        proxy.start();
        const serve::SocketAddress paddr{popts.listen.unixPath,
                                         "127.0.0.1", 0};
        const std::string target =
            "/run?workload=" + serve::percentEncode(kWorkload) +
            "&schemes=NP";

        serve::HttpResponse resp;
        std::string error;
        ASSERT_TRUE(serve::httpGet(paddr, target, &resp, &error))
            << error;
        ASSERT_EQ(resp.status, 200);
        const std::string reference = resp.body;

        ASSERT_TRUE(
            failpoint::armSpecList("fleet.backend.connect=once"));
        ASSERT_TRUE(serve::httpGet(paddr, target, &resp, &error))
            << error;
        EXPECT_EQ(resp.status, 200);
        EXPECT_EQ(resp.body, reference);
        failpoint::disarmAll();

        ASSERT_TRUE(
            failpoint::armSpecList("fleet.backend.reset=once"));
        ASSERT_TRUE(serve::httpGet(paddr, target, &resp, &error))
            << error;
        EXPECT_EQ(resp.status, 200);
        EXPECT_EQ(resp.body, reference);
        failpoint::disarmAll();

        EXPECT_GE(proxy.metrics().failovers.load(), 2u);
        proxy.shutdown();
        backend.shutdown();
    }

    // Supervisor boundaries: an injected fork failure (retried with
    // backoff) and an injected probe timeout. The spawned "worker" is
    // /bin/sleep — it never answers probes, which is fine: the
    // failpoint just has to be evaluated on a live pid.
    {
        TempDir socks("fleetsup");
        fleet::SupervisorOptions sopts;
        sopts.workers = 1;
        sopts.socketDir = socks.str();
        sopts.probeIntervalMs = 20;
        sopts.probeTimeoutMs = 100;
        sopts.restartBackoffMs = 10;
        fleet::Supervisor sup(sopts);
        sup.setSpawnFnForTest([](int, const std::string &) -> pid_t {
            const pid_t pid = ::fork();
            if (pid == 0) {
                ::execl("/bin/sleep", "sleep", "30",
                        static_cast<char *>(nullptr));
                ::_exit(127);
            }
            return pid;
        });
        ASSERT_TRUE(failpoint::armSpecList(
            "fleet.fork.fail=once,fleet.probe.timeout=once"));
        sup.start();
        const auto fired = [](const char *name) {
            for (const auto &info : failpoint::all())
                if (info.name == name)
                    return info.hits >= 1;
            return false;
        };
        EXPECT_TRUE(eventually(
            [&] { return fired("fleet.fork.fail"); }, 5000));
        EXPECT_TRUE(eventually(
            [&] { return fired("fleet.probe.timeout"); }, 5000));
        failpoint::disarmAll();
        sup.shutdown();
    }

    // The audit: every production failpoint in the binary has fired.
    const char *const expected[] = {
        "fleet.backend.connect", "fleet.backend.reset",
        "fleet.fork.fail",       "fleet.probe.timeout",
        "serve.accept.fail",     "serve.recv.fail",
        "serve.send.fail",       "trace_io.read.corrupt",
        "trace_io.read.open",    "trace_io.write.enospc",
        "trace_io.write.open",   "trace_io.write.short",
        "trace_io.write.torn",
    };
    const auto all = failpoint::all();
    for (const char *name : expected) {
        bool found = false;
        for (const auto &info : all) {
            if (info.name != name)
                continue;
            found = true;
            EXPECT_GE(info.hits, 1u)
                << "failpoint '" << name << "' never fired";
        }
        EXPECT_TRUE(found)
            << "failpoint '" << name << "' not registered";
    }
}

} // namespace
} // namespace mgx
