/**
 * @file
 * Fleet-layer tests: rendezvous routing (a deterministic order, only
 * a removed worker's keys move, an even split of fixed keys),
 * routing-key normalization,
 * proxy routing / failover order / stats aggregation / front-door
 * error answers against in-process serve::Servers, supervisor flap
 * breaking with an injected spawner, and one end-to-end integration
 * test that forks real mgx_serve workers, SIGKILLs the owner of an
 * in-flight cell under sustained load, and requires every answered
 * body to stay byte-identical to the Experiment API reference (what
 * `mgx_run --no-pipeline --json` prints).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/failpoint.h"
#include "fleet/backend.h"
#include "fleet/fleet.h"
#include "fleet/proxy.h"
#include "fleet/supervisor.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/report.h"

namespace mgx::fleet {
namespace {

namespace fs = std::filesystem;
using Deadline = std::chrono::steady_clock::time_point;

/**
 * The supervisor's name for worker @p i: "w0", "w1", ... Built by
 * appending, since GCC 12 flags "w" + std::to_string(i) with a
 * -Wrestrict false positive (PR105651) once it is inlined.
 */
std::string
workerName(std::size_t i)
{
    std::string name = "w";
    name += std::to_string(i);
    return name;
}

std::string
testSocketPath(const std::string &tag)
{
    return "/tmp/mgx-fleet-test-" + std::to_string(::getpid()) + "-" +
           tag + ".sock";
}

struct TempDir
{
    explicit TempDir(const char *tag)
        : path(fs::temp_directory_path() /
               ("mgx-fleet-test-" + std::to_string(::getpid()) + "-" +
                tag))
    {
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    fs::path path;
};

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

serve::HttpRequest
parseRequest(const std::string &raw)
{
    serve::HttpRequestParser p;
    EXPECT_EQ(p.feed(raw.data(), raw.size()),
              serve::HttpRequestParser::Status::Complete)
        << raw;
    return p.request();
}

// ---------------------------------------------------------------------
// Rendezvous route
// ---------------------------------------------------------------------

/** The supervisor's names for @p n workers: "w0" .. "w<n-1>". */
std::vector<std::string>
workerNames(int n)
{
    std::vector<std::string> names;
    for (int i = 0; i < n; ++i)
        names.push_back(workerName(static_cast<std::size_t>(i)));
    return names;
}

/** The routing key of a cold /run: a DLRM cell at a fresh seed. */
std::string
coldKey(int seed)
{
    serve::HttpRequest req;
    req.query = {{"workload",
                  "dnn/DLRM?task=inference&seed=" + std::to_string(seed)},
                 {"schemes", "NP"}};
    return Proxy::routingKey(req);
}

TEST(ProxyRoute, IsADeterministicPermutationOfTheNames)
{
    const std::vector<std::string> names = workerNames(4);
    for (int i = 0; i < 64; ++i) {
        const std::string key = coldKey(i);
        const std::vector<std::string> order = Proxy::route(key, names);
        EXPECT_EQ(order, Proxy::route(key, names)) << key;
        EXPECT_TRUE(std::is_permutation(order.begin(), order.end(),
                                        names.begin(), names.end()))
            << key;
        // The order depends on the names, not on how they are listed.
        EXPECT_EQ(order, Proxy::route(key, {names.rbegin(), names.rend()}))
            << key;
    }
    EXPECT_TRUE(Proxy::route("anything", {}).empty());
    EXPECT_EQ(Proxy::route("anything", {"w0"}),
              std::vector<std::string>{"w0"});
}

TEST(ProxyRoute, RemovingANameKeepsTheOthersInOrder)
{
    // Only the removed worker's keys move, each to the next worker in
    // its own order; every other key keeps its owner and failover.
    const std::vector<std::string> names = workerNames(3);
    for (const auto &gone : names) {
        std::vector<std::string> rest;
        for (const auto &n : names)
            if (n != gone)
                rest.push_back(n);
        for (int i = 0; i < 1000; ++i) {
            const std::string key = coldKey(i);
            std::vector<std::string> order = Proxy::route(key, names);
            order.erase(std::find(order.begin(), order.end(), gone));
            ASSERT_EQ(Proxy::route(key, rest), order) << gone << " " << key;
        }
    }
}

TEST(ProxyRoute, BalancesFixedKeysWithinFourSigma)
{
    // 10,000 cold keys, owned by each of n workers with probability
    // 1/n: every count must lie within four standard deviations of
    // 10,000/n (sigma = 50 for two workers, 47.1 for three).
    for (const auto &[n, lo, hi] : {std::tuple{2, 4800, 5200},
                                    std::tuple{3, 3145, 3522}}) {
        const std::vector<std::string> names = workerNames(n);
        std::map<std::string, int> owned;
        for (int i = 0; i < 10000; ++i)
            ++owned[Proxy::route(coldKey(i), names).front()];
        ASSERT_EQ(owned.size(), names.size()) << n;
        for (const auto &[name, count] : owned) {
            EXPECT_GE(count, lo) << n << " workers, " << name;
            EXPECT_LE(count, hi) << n << " workers, " << name;
        }
    }
}

// ---------------------------------------------------------------------
// Routing key
// ---------------------------------------------------------------------

TEST(RoutingKey, WorkloadOrderDoesNotChangeTheKey)
{
    const auto a = parseRequest(
        "GET /run?workload=core%2Fmatmul&workload=dnn%2Flenet"
        "&schemes=NP,BP HTTP/1.1\r\n\r\n");
    const auto b = parseRequest(
        "GET /run?workload=dnn%2Flenet&workload=core%2Fmatmul"
        "&schemes=NP,BP HTTP/1.1\r\n\r\n");
    EXPECT_EQ(Proxy::routingKey(a), Proxy::routingKey(b));

    // mgx_serve splits every axis at commas, so the comma forms and
    // either scheme order name the same cells.
    for (const char *same :
         {"workload=core%2Fmatmul,dnn%2Flenet&schemes=NP,BP",
          "workload=dnn%2Flenet,core%2Fmatmul&schemes=NP,BP",
          "workload=dnn%2Flenet&workload=core%2Fmatmul&schemes=BP,NP",
          "workload=core%2Fmatmul,dnn%2Flenet&schemes=BP,NP"}) {
        const auto c = parseRequest(std::string("GET /run?") + same +
                                    " HTTP/1.1\r\n\r\n");
        EXPECT_EQ(Proxy::routingKey(a), Proxy::routingKey(c)) << same;
    }
}

TEST(RoutingKey, EachCellAxisParticipates)
{
    const auto base = parseRequest(
        "GET /run?workload=core%2Fmatmul&schemes=NP HTTP/1.1\r\n\r\n");
    const auto schemes = parseRequest(
        "GET /run?workload=core%2Fmatmul&schemes=BP HTTP/1.1\r\n\r\n");
    const auto platforms = parseRequest(
        "GET /run?workload=core%2Fmatmul&schemes=NP&platforms=base"
        " HTTP/1.1\r\n\r\n");
    EXPECT_NE(Proxy::routingKey(base), Proxy::routingKey(schemes));
    EXPECT_NE(Proxy::routingKey(base), Proxy::routingKey(platforms));
}

// ---------------------------------------------------------------------
// Proxy against in-process backends
// ---------------------------------------------------------------------

/** N in-process serve::Servers named w0..wN-1 behind a
 *  StaticDirectory, each counting how many cells it ran. */
struct MiniFleet
{
    explicit MiniFleet(int n, const std::string &tag)
    {
        for (int i = 0; i < n; ++i)
            runs.emplace_back(
                std::make_unique<std::atomic<u64>>(0));
        for (int i = 0; i < n; ++i) {
            serve::ServerOptions opts;
            opts.listen.unixPath =
                testSocketPath(tag + "-w" + std::to_string(i));
            servers.emplace_back(
                std::make_unique<serve::Server>(opts));
            auto *counter = runs[static_cast<std::size_t>(i)].get();
            servers.back()->setCellRunnerForTest(
                [counter](const serve::CellKey &cell, Deadline) {
                    counter->fetch_add(1);
                    return syntheticOutcome(cell);
                });
            servers.back()->start();
            dir.add(workerName(i),
                    {opts.listen.unixPath, "127.0.0.1", 0});
        }
    }

    ~MiniFleet()
    {
        for (auto &s : servers)
            s->shutdown();
    }

    std::vector<std::unique_ptr<serve::Server>> servers;
    std::vector<std::unique_ptr<std::atomic<u64>>> runs;
    StaticDirectory dir;
};

const char *const kTarget = "/run?workload=core%2Fmatmul&schemes=NP";

/** @p target's failover order over @p n workers, as worker indices. */
std::vector<std::size_t>
routeIndices(int n, const std::string &target = kTarget)
{
    const auto req = parseRequest("GET " + target + " HTTP/1.1\r\n\r\n");
    std::vector<std::size_t> order;
    for (const auto &name :
         Proxy::route(Proxy::routingKey(req), workerNames(n)))
        order.push_back(static_cast<std::size_t>(name[1] - '0'));
    return order;
}

/** Index of the worker owning @p target. */
std::size_t
ownerIndex(int n, const std::string &target = kTarget)
{
    return routeIndices(n, target).front();
}

TEST(ProxyTest, RoutesRepeatedKeysToTheOwner)
{
    MiniFleet mini(3, "route");
    ProxyOptions popts;
    popts.listen.unixPath = testSocketPath("route-proxy");
    Proxy proxy(popts, &mini.dir);
    proxy.start();
    const serve::SocketAddress addr{popts.listen.unixPath,
                                    "127.0.0.1", 0};

    for (int i = 0; i < 5; ++i) {
        serve::HttpResponse resp;
        std::string error;
        ASSERT_TRUE(serve::httpGet(addr, kTarget, &resp, &error))
            << error;
        ASSERT_EQ(resp.status, 200) << resp.body;
        EXPECT_NE(resp.body.find("mgx-resultset-v1"),
                  std::string::npos);
    }

    // Every request landed on the owner; nobody else ran cells.
    const std::size_t owner = ownerIndex(3);
    for (std::size_t i = 0; i < mini.runs.size(); ++i) {
        if (i == owner)
            EXPECT_GT(mini.runs[i]->load(), 0u);
        else
            EXPECT_EQ(mini.runs[i]->load(), 0u) << "w" << i;
    }
    EXPECT_EQ(proxy.metrics().routed.load(), 5u);
    EXPECT_EQ(proxy.metrics().failovers.load(), 0u);
    proxy.shutdown();
}

TEST(ProxyTest, FailsOverToTheNextRingNodeWhenTheOwnerIsDead)
{
    MiniFleet mini(3, "failover");
    const std::size_t owner = ownerIndex(3);
    mini.servers[owner]->shutdown(); // connect refused from now on

    ProxyOptions popts;
    popts.listen.unixPath = testSocketPath("failover-proxy");
    popts.failoverPauseMs = 10;
    Proxy proxy(popts, &mini.dir);
    proxy.start();
    const serve::SocketAddress addr{popts.listen.unixPath,
                                    "127.0.0.1", 0};

    serve::HttpResponse resp;
    std::string error;
    ASSERT_TRUE(serve::httpGet(addr, kTarget, &resp, &error)) << error;
    ASSERT_EQ(resp.status, 200) << resp.body;

    // The next worker in the key's order picked the request up —
    // not an arbitrary survivor.
    const std::size_t second = routeIndices(3)[1];
    EXPECT_EQ(mini.runs[owner]->load(), 0u);
    EXPECT_GT(mini.runs[second]->load(), 0u);
    EXPECT_GE(proxy.metrics().failovers.load(), 1u);
    EXPECT_GE(proxy.metrics().backendErrors.load(), 1u);
    proxy.shutdown();
}

TEST(ProxyTest, OutOfRotationOwnerIsSkippedWithoutAFailover)
{
    MiniFleet mini(3, "rotation");
    const std::size_t owner = ownerIndex(3);
    mini.dir.setInRotation(workerName(owner), false);

    ProxyOptions popts;
    popts.listen.unixPath = testSocketPath("rotation-proxy");
    Proxy proxy(popts, &mini.dir);
    proxy.start();
    const serve::SocketAddress addr{popts.listen.unixPath,
                                    "127.0.0.1", 0};

    serve::HttpResponse resp;
    std::string error;
    ASSERT_TRUE(serve::httpGet(addr, kTarget, &resp, &error)) << error;
    ASSERT_EQ(resp.status, 200) << resp.body;

    // The owner was demoted to last resort, so the first attempt went
    // to an in-rotation worker and succeeded: no failover happened
    // and the demoted owner never ran a cell.
    EXPECT_EQ(mini.runs[owner]->load(), 0u);
    EXPECT_EQ(proxy.metrics().failovers.load(), 0u);
    proxy.shutdown();
}

TEST(ProxyTest, RequestThatLosesTwoWorkersIsAnswered502)
{
    // fleet.backend.reset=always makes every worker look as if it died
    // mid-response. The proxy tries the owner and one failover, then
    // answers 502 instead of spreading the request to the third
    // worker. Refused connects are not deaths: they keep the failover
    // passes and end in 503.
    MiniFleet mini(3, "poison");
    ProxyOptions popts;
    popts.listen.unixPath = testSocketPath("poison-proxy");
    popts.failoverPauseMs = 10;
    Proxy proxy(popts, &mini.dir);
    proxy.start();
    const serve::SocketAddress addr{popts.listen.unixPath,
                                    "127.0.0.1", 0};
    serve::HttpResponse resp;
    std::string error;

    ASSERT_TRUE(failpoint::armSpecList("fleet.backend.reset=always"));
    ASSERT_TRUE(serve::httpGet(addr, kTarget, &resp, &error)) << error;
    failpoint::disarmAll();
    EXPECT_EQ(resp.status, 502) << resp.body;
    u64 cells = 0;
    for (const auto &r : mini.runs)
        cells += r->load();
    EXPECT_EQ(cells, 2u); // exactly two backend attempts ran the cell
    EXPECT_EQ(proxy.metrics().backendErrors.load(), 2u);
    EXPECT_EQ(proxy.metrics().partialResponses.load(), 2u);
    EXPECT_EQ(proxy.metrics().poisonRequests.load(), 1u);
    EXPECT_NE(proxy.statsJson().find("\"poisonRequests\": 1"),
              std::string::npos);

    ASSERT_TRUE(failpoint::armSpecList("fleet.backend.connect=always"));
    ASSERT_TRUE(serve::httpGet(addr, kTarget, &resp, &error)) << error;
    failpoint::disarmAll();
    EXPECT_EQ(resp.status, 503) << resp.body;
    EXPECT_EQ(proxy.metrics().poisonRequests.load(), 1u);
    EXPECT_EQ(proxy.metrics().noBackend.load(), 1u);
    proxy.shutdown();
}

TEST(ProxyTest, StatsAggregateProxyCountersAndWorkerDocuments)
{
    MiniFleet mini(2, "stats");
    ProxyOptions popts;
    popts.listen.unixPath = testSocketPath("stats-proxy");
    Proxy proxy(popts, &mini.dir);
    proxy.start();
    const serve::SocketAddress addr{popts.listen.unixPath,
                                    "127.0.0.1", 0};

    serve::HttpResponse run, stats, health;
    std::string error;
    ASSERT_TRUE(serve::httpGet(addr, kTarget, &run, &error)) << error;
    ASSERT_EQ(run.status, 200);
    ASSERT_TRUE(serve::httpGet(addr, "/stats", &stats, &error))
        << error;
    ASSERT_EQ(stats.status, 200);

    // The fleet document embeds supervision state and each worker's
    // own live /stats body.
    EXPECT_NE(stats.body.find("\"schema\": \"mgx-fleetstats-v1\""),
              std::string::npos);
    EXPECT_NE(stats.body.find("\"routed\": 1"), std::string::npos);
    EXPECT_NE(stats.body.find("\"workers\""), std::string::npos);
    EXPECT_NE(stats.body.find("\"w0\""), std::string::npos);
    EXPECT_NE(stats.body.find("\"w1\""), std::string::npos);
    EXPECT_NE(stats.body.find("\"workerStats\""), std::string::npos);
    EXPECT_NE(stats.body.find("mgx-servestats-v1"),
              std::string::npos);

    ASSERT_TRUE(serve::httpGet(addr, "/healthz", &health, &error))
        << error;
    EXPECT_EQ(health.status, 200);
    EXPECT_NE(health.body.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(health.body.find("\"workers\": 2"), std::string::npos);

    mini.dir.setInRotation("w0", false);
    mini.dir.setInRotation("w1", false);
    ASSERT_TRUE(serve::httpGet(addr, "/healthz", &health, &error))
        << error;
    EXPECT_NE(health.body.find("\"ok\": false"), std::string::npos);
    proxy.shutdown();
}

TEST(ProxyTest, KeepAliveClientsReuseTheFrontDoorConnection)
{
    MiniFleet mini(1, "keepalive");
    ProxyOptions popts;
    popts.listen.unixPath = testSocketPath("keepalive-proxy");
    Proxy proxy(popts, &mini.dir);
    proxy.start();
    const serve::SocketAddress addr{popts.listen.unixPath,
                                    "127.0.0.1", 0};

    serve::ClientConnection conn(addr);
    serve::HttpResponse resp;
    std::string error;
    ASSERT_TRUE(conn.get("/healthz", &resp, &error)) << error;
    EXPECT_FALSE(conn.lastReused());
    ASSERT_TRUE(conn.get("/healthz", &resp, &error)) << error;
    EXPECT_TRUE(conn.lastReused());
    EXPECT_GE(proxy.metrics().keepAliveReused.load(), 1u);
    proxy.shutdown();
}

/** A raw connection to the unix socket at @p path (-1 on failure),
 *  with a receive timeout so a test cannot hang on it. */
int
connectRaw(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, path.c_str(), sizeof sa.sun_path - 1);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                            sizeof sa) != 0) {
        if (fd >= 0)
            ::close(fd);
        return -1;
    }
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    return fd;
}

/** Send @p bytes (possibly none) on a fresh connection, read the
 *  answer until the peer closes, and parse it. */
bool
rawExchange(const std::string &path, const std::string &bytes,
            serve::HttpResponse *out)
{
    const int fd = connectRaw(path);
    if (fd < 0)
        return false;
    if (!bytes.empty())
        (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    std::string raw;
    char buf[4096];
    for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;)
        raw.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    serve::HttpResponseParser parser;
    parser.feed(raw.data(), raw.size());
    if (parser.finishEof() != serve::HttpResponseParser::Status::Complete)
        return false;
    *out = parser.response();
    return true;
}

TEST(ProxyTest, FrontDoorAnswersMalformedRequestsLikeAWorker)
{
    MiniFleet mini(1, "frontdoor");
    ProxyOptions popts;
    popts.listen.unixPath = testSocketPath("frontdoor-proxy");
    const serve::SocketAddress addr{popts.listen.unixPath,
                                    "127.0.0.1", 0};
    serve::HttpResponse resp;
    std::string error;
    {
        popts.ioTimeoutMs = 150;
        Proxy proxy(popts, &mini.dir);
        proxy.start();

        ASSERT_TRUE(rawExchange(popts.listen.unixPath,
                                "NONSENSE\r\n\r\n", &resp));
        EXPECT_EQ(resp.status, 400) << resp.body;

        // A client that connects and says nothing is answered once the
        // receive timeout trips, not dropped.
        const auto t0 = std::chrono::steady_clock::now();
        ASSERT_TRUE(rawExchange(popts.listen.unixPath, "", &resp));
        EXPECT_EQ(resp.status, 400) << resp.body;
        EXPECT_LT(std::chrono::steady_clock::now() - t0,
                  std::chrono::seconds(5));
        EXPECT_EQ(proxy.metrics().badRequests.load(), 2u);
        proxy.shutdown();
    }

    // One worker and a one-deep queue, at the default receive timeout
    // so a slow upload is not cut short.
    popts.ioTimeoutMs = 30000;
    popts.workers = 1;
    popts.admissionCapacity = 1;
    Proxy proxy(popts, &mini.dir);
    proxy.start();

    std::string target = "/run?workload=";
    target.append(1u << 20, 'a');
    ASSERT_TRUE(serve::httpGet(addr, target, &resp, &error)) << error;
    EXPECT_EQ(resp.status, 431);
    EXPECT_EQ(proxy.metrics().oversized.load(), 1u);

    // Once the worker is idle again, a silent client wedges it, a
    // second fills the queue, and a third is turned away.
    ASSERT_TRUE(
        eventually([&] { return proxy.metrics().inFlight.load() == 0; }));
    const int wedged = connectRaw(popts.listen.unixPath);
    ASSERT_GE(wedged, 0);
    ASSERT_TRUE(
        eventually([&] { return proxy.metrics().inFlight.load() >= 1; }));
    const int queued = connectRaw(popts.listen.unixPath);
    ASSERT_GE(queued, 0);
    ASSERT_TRUE(eventually(
        [&] { return proxy.metrics().queueDepth.load() >= 1; }));
    ASSERT_TRUE(serve::httpGet(addr, "/healthz", &resp, &error))
        << error;
    EXPECT_EQ(resp.status, 429);
    EXPECT_NE(resp.body.find("queue full"), std::string::npos);
    EXPECT_EQ(proxy.metrics().rejected.load(), 1u);
    ::close(wedged);
    ::close(queued);
    proxy.shutdown();
}

// ---------------------------------------------------------------------
// Supervisor (injected spawner; no real mgx_serve needed)
// ---------------------------------------------------------------------

/** Fork a child that just sleeps; async-signal-safe child path. */
pid_t
spawnSleeper(int, const std::string &)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::execl("/bin/sleep", "sleep", "30",
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    return pid;
}

/** Fork a child that dies instantly — a crash-looping worker. */
pid_t
spawnCrasher(int, const std::string &)
{
    const pid_t pid = ::fork();
    if (pid == 0)
        ::_exit(1);
    return pid;
}

TEST(SupervisorTest, RestartsAKilledWorkerWithANewPid)
{
    TempDir socks("restart");
    SupervisorOptions opts;
    opts.workers = 1;
    opts.socketDir = socks.path.string();
    opts.probeIntervalMs = 1000000; // probes irrelevant here
    opts.restartBackoffMs = 10;
    Supervisor sup(opts);
    sup.setSpawnFnForTest(spawnSleeper);
    sup.start();

    ASSERT_TRUE(eventually([&] { return sup.status()[0].pid > 0; }));
    const pid_t first = sup.status()[0].pid;
    ASSERT_EQ(::kill(first, SIGKILL), 0);

    EXPECT_TRUE(eventually([&] {
        const auto st = sup.status()[0];
        return st.restarts >= 1 && st.pid > 0 && st.pid != first;
    }));
    EXPECT_GE(sup.restartCount(), 1u);
    sup.shutdown(100);
}

TEST(SupervisorTest, FlapBreakerParksACrashLoopingWorker)
{
    TempDir socks("flap");
    SupervisorOptions opts;
    opts.workers = 1;
    opts.socketDir = socks.path.string();
    opts.probeIntervalMs = 1000000;
    opts.restartBackoffMs = 1;
    opts.restartBackoffMaxMs = 5;
    opts.flapWindowMs = 60000; // instant deaths are always "rapid"
    opts.flapThreshold = 3;
    opts.coolOffMs = 3600 * 1000; // parked for the whole test
    Supervisor sup(opts);
    sup.setSpawnFnForTest(spawnCrasher);
    sup.start();

    EXPECT_TRUE(eventually([&] {
        return sup.status()[0].state == WorkerState::Broken;
    }));
    const auto st = sup.status()[0];
    EXPECT_GE(st.rapidDeaths, 3u);
    EXPECT_FALSE(sup.inRotation("w0"));
    // Parked means parked: the respawn counter stops climbing.
    const u64 restarts = sup.restartCount();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(sup.restartCount(), restarts);
    sup.shutdown(100);
}

// ---------------------------------------------------------------------
// Integration: real workers, real SIGKILLs, byte-identical answers
// ---------------------------------------------------------------------

TEST(FleetIntegration, SigkillingOwnersNeverFailsOrDriftsARequest)
{
    const std::string binary = locateServeBinary();
    if (binary.empty())
        GTEST_SKIP() << "mgx_serve binary not found near test";

    TempDir socks("integ");
    FleetOptions opts;
    opts.supervisor.workers = 3;
    opts.supervisor.socketDir = socks.path.string();
    opts.supervisor.serveBinary = binary;
    opts.supervisor.probeIntervalMs = 50;
    opts.supervisor.restartBackoffMs = 50;
    opts.proxy.listen.unixPath = testSocketPath("integ-proxy");
    opts.proxy.failoverPauseMs = 50;
    Fleet fleet(opts);
    fleet.start();
    const serve::SocketAddress addr{opts.proxy.listen.unixPath,
                                    "127.0.0.1", 0};

    // The reference: exactly what mgx_run --no-pipeline --json emits
    // for this grid.
    const std::string reference =
        sim::toJson(sim::Experiment()
                        .workload("core/matmul")
                        .schemes({protection::Scheme::NP,
                                  protection::Scheme::BP})
                        .threads(1)
                        .pipelined(false)
                        .run());
    const std::string target =
        "/run?workload=core%2Fmatmul&schemes=NP,BP";

    // Sanity: a calm fleet answers byte-identically.
    {
        serve::HttpResponse resp;
        std::string error;
        ASSERT_TRUE(
            serve::httpGet(addr, target, &resp, &error, 30000))
            << error;
        ASSERT_EQ(resp.status, 200) << resp.body;
        ASSERT_EQ(resp.body, reference);
    }

    // Sustained load while a killer SIGKILLs the current owner of
    // the in-flight cell. The proxy must absorb every crash: zero
    // failed requests, zero drifted bodies.
    const std::string owner_name = workerName(ownerIndex(3, target));
    std::atomic<bool> stop{false};
    std::atomic<int> kills{0};
    std::thread killer([&] {
        while (!stop.load(std::memory_order_acquire)) {
            for (const auto &st : fleet.supervisor().status()) {
                if (st.name == owner_name && st.pid > 0 &&
                    ::kill(st.pid, SIGKILL) == 0)
                    kills.fetch_add(1);
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(300));
        }
    });

    std::atomic<int> ok{0}, failed{0}, drifted{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c) {
        clients.emplace_back([&] {
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(2);
            serve::RetryOptions ropts;
            ropts.retries = 3;
            ropts.backoffMs = 50;
            while (std::chrono::steady_clock::now() < deadline) {
                serve::HttpResponse resp;
                std::string error;
                if (serve::httpGetRetry(addr, target, &resp, &error,
                                        30000, ropts) &&
                    resp.status == 200) {
                    ok.fetch_add(1);
                    if (resp.body != reference)
                        drifted.fetch_add(1);
                } else {
                    failed.fetch_add(1);
                }
            }
        });
    }
    for (auto &t : clients)
        t.join();
    stop.store(true, std::memory_order_release);
    killer.join();

    EXPECT_GT(ok.load(), 0);
    EXPECT_GE(kills.load(), 1);
    EXPECT_EQ(failed.load(), 0);
    EXPECT_EQ(drifted.load(), 0);
    EXPECT_GE(fleet.supervisor().restartCount(), 1u);

    // Shutdown leaves nothing behind: no live workers, no sockets.
    std::vector<pid_t> pids;
    for (const auto &st : fleet.supervisor().status())
        if (st.pid > 0)
            pids.push_back(st.pid);
    fleet.shutdown();
    for (const pid_t pid : pids)
        EXPECT_NE(::kill(pid, 0), 0) << "worker " << pid
                                     << " survived shutdown";
    for (const auto &entry : fs::directory_iterator(socks.path))
        EXPECT_NE(entry.path().extension(), ".sock")
            << entry.path();
}

} // namespace
} // namespace mgx::fleet
