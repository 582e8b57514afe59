/**
 * @file
 * Load generator for the experiment service: starts an in-process
 * Server on a private unix socket, then
 *
 *   1. cold burst — N clients fire the same never-run request at
 *      once, and the cell table runs each of its cells exactly once
 *      (cellsRun equals the cell count; the other requests wait on
 *      a run, counted in dedupCollapsed, or find the finished cell),
 *   2. sustained — the N clients hammer the warm cell for a fixed
 *      wall-clock window, measuring served requests and cells/second.
 *
 * `--fleet` swaps the in-process Server for a real fleet::Fleet —
 * forked mgx_serve workers behind the rendezvous-hash proxy — and
 * adds a fault drill of process murder: `--kill-every-ms N` runs a
 * killer thread SIGKILLing one worker after another while the
 * clients hammer. Pass criteria: zero failed requests, zero body
 * drift, every worker restarted, and shutdown leaves no orphan
 * processes or sockets.
 *
 * Emits an `mgx-servebench-v1` (or `mgx-fleetbench-v1`) JSON document
 * on stdout for trajectory tracking; the human-readable line goes to
 * stderr.
 */

#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/parse.h"
#include "fleet/fleet.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

using namespace mgx;
using Clock = std::chrono::steady_clock;

/** The largest --seconds accepted: one day. */
constexpr double kMaxSeconds = 86400;

struct Options
{
    unsigned clients = 4;
    double seconds = 2.0;
    std::string workload = "core/matmul";
    std::string schemes = "NP,BP";
    bool fleet = false;
    int fleetWorkers = 3;
    int killEveryMs = 2000; ///< 0 = no killer (fleet mode)
};

/**
 * The fleet drill: forked mgx_serve workers behind the proxy, a
 * killer SIGKILLing one after another, clients that must never see a
 * failure or a drifted body. Returns the process exit code.
 */
int
runFleetBench(const Options &opt)
{
    namespace fs = std::filesystem;
    const std::string tag = std::to_string(::getpid());
    const fs::path dir =
        fs::temp_directory_path() / ("mgx-fleet-bench-" + tag);
    fs::create_directories(dir);

    fleet::FleetOptions fopts;
    fopts.supervisor.workers = opt.fleetWorkers;
    fopts.supervisor.socketDir = dir.string();
    fopts.supervisor.probeIntervalMs = 100;
    fopts.supervisor.restartBackoffMs = 100;
    // Deliberate murder is not flapping: a worker that survives its
    // first half second is "stable", so the killer's cadence never
    // trips the breaker and parks the very recovery being measured.
    fopts.supervisor.flapWindowMs = 500;
    fopts.proxy.listen.unixPath = (dir / "proxy.sock").string();
    fopts.proxy.failoverPauseMs = 50;
    fleet::Fleet f(fopts);
    f.start();
    const serve::SocketAddress addr{fopts.proxy.listen.unixPath,
                                    "127.0.0.1", 0};
    const std::string target =
        "/run?workload=" + serve::percentEncode(opt.workload) +
        "&schemes=" + opt.schemes;

    // Take the reference from a calm fleet: cells are deterministic,
    // so every later answer, from any worker, must match it bit for
    // bit.
    std::string reference;
    {
        serve::HttpResponse resp;
        std::string error;
        serve::RetryOptions retry;
        retry.retries = 3;
        for (int i = 0; i < 2; ++i) {
            if (!serve::httpGetRetry(addr, target, &resp, &error,
                                     120000, retry) ||
                resp.status != 200) {
                std::fprintf(stderr,
                             "bench_serve_load: fleet warmup failed: "
                             "%d %s\n",
                             resp.status, error.c_str());
                f.shutdown();
                fs::remove_all(dir);
                return 1;
            }
        }
        reference = resp.body;
    }

    std::atomic<bool> stop{false};
    std::atomic<unsigned long long> kills{0};
    std::thread killer;
    if (opt.killEveryMs > 0) {
        killer = std::thread([&] {
            std::size_t next = 0;
            while (!stop.load(std::memory_order_acquire)) {
                for (int waited = 0;
                     waited < opt.killEveryMs &&
                     !stop.load(std::memory_order_acquire);
                     waited += 20)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                if (stop.load(std::memory_order_acquire))
                    break;
                const auto workers = f.supervisor().status();
                // Round-robin through the fleet so every worker gets
                // murdered, not just the unlucky key owner.
                for (std::size_t i = 0; i < workers.size(); ++i) {
                    const auto &w =
                        workers[(next + i) % workers.size()];
                    if (w.pid > 0 && ::kill(w.pid, SIGKILL) == 0) {
                        kills.fetch_add(1);
                        next = (next + i + 1) % workers.size();
                        break;
                    }
                }
            }
        });
    }

    std::atomic<unsigned long long> ok{0};
    std::atomic<unsigned long long> failed{0};
    std::atomic<unsigned long long> mismatches{0};
    serve::RetryStats all_stats;
    std::mutex stats_mu;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opt.seconds));
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < opt.clients; ++i) {
        threads.emplace_back([&] {
            serve::RetryOptions retry;
            retry.retries = 3;
            retry.backoffMs = 50;
            serve::RetryStats mine;
            while (Clock::now() < deadline) {
                serve::HttpResponse resp;
                std::string error;
                if (serve::httpGetRetry(addr, target, &resp, &error,
                                        120000, retry, nullptr,
                                        &mine) &&
                    resp.status == 200) {
                    ok.fetch_add(1);
                    if (resp.body != reference)
                        mismatches.fetch_add(1);
                } else {
                    failed.fetch_add(1);
                }
            }
            std::lock_guard<std::mutex> lock(stats_mu);
            all_stats.add(mine);
        });
    }
    for (auto &t : threads)
        t.join();
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    stop.store(true, std::memory_order_release);
    if (killer.joinable())
        killer.join();

    // Recovery: every worker must come back after the last kill.
    bool all_restarted = false;
    const auto recover_deadline =
        Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < recover_deadline) {
        const auto workers = f.supervisor().status();
        all_restarted = true;
        for (const auto &w : workers)
            all_restarted =
                all_restarted && w.pid > 0 && w.inRotation;
        if (all_restarted)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    const u64 restarts = f.supervisor().restartCount();
    const u64 failovers = f.proxy().metrics().failovers.load();
    const u64 routed = f.proxy().metrics().routed.load();

    // Shutdown hygiene: no worker survives, no socket lingers.
    std::vector<pid_t> pids;
    for (const auto &w : f.supervisor().status())
        if (w.pid > 0)
            pids.push_back(w.pid);
    f.shutdown();
    unsigned orphans = 0;
    for (const pid_t pid : pids)
        if (::kill(pid, 0) == 0)
            ++orphans;
    unsigned leftover_sockets = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec))
        if (entry.path().extension() == ".sock")
            ++leftover_sockets;
    fs::remove_all(dir);

    const bool clean = failed.load() == 0 && mismatches.load() == 0 &&
                       orphans == 0 && leftover_sockets == 0 &&
                       (opt.killEveryMs == 0 ||
                        (kills.load() > 0 && all_restarted));

    std::fprintf(
        stderr,
        "bench_serve_load: fleet %d workers, %.1fs: %llu ok, "
        "%llu failed, %llu drifted, %llu kills, %llu restarts, "
        "%llu failovers, retried partials %llu, connects %llu%s\n",
        opt.fleetWorkers, secs, ok.load(), failed.load(),
        mismatches.load(), kills.load(),
        static_cast<unsigned long long>(restarts),
        static_cast<unsigned long long>(failovers),
        static_cast<unsigned long long>(all_stats.partialResponses),
        static_cast<unsigned long long>(all_stats.connectFailures),
        clean ? "" : "  ** FAIL **");

    std::printf(
        "{\n  \"schema\": \"mgx-fleetbench-v1\",\n"
        "  \"clients\": %u,\n  \"workers\": %d,\n"
        "  \"workload\": \"%s\",\n  \"schemes\": \"%s\",\n"
        "  \"seconds\": %.6f,\n  \"requests\": %llu,\n"
        "  \"requestsPerSecond\": %.3f,\n"
        "  \"failed\": %llu,\n  \"bodyMismatches\": %llu,\n"
        "  \"kills\": %llu,\n  \"restarts\": %llu,\n"
        "  \"failovers\": %llu,\n  \"routed\": %llu,\n"
        "  \"clientRetries\": {\"attempts\": %llu, "
        "\"connectFailures\": %llu, \"partialResponses\": %llu, "
        "\"recvFailures\": %llu, \"backpressure\": %llu},\n"
        "  \"allRestarted\": %s,\n  \"orphans\": %u,\n"
        "  \"leftoverSockets\": %u\n}\n",
        opt.clients, opt.fleetWorkers, opt.workload.c_str(),
        opt.schemes.c_str(), secs, ok.load(),
        secs > 0 ? ok.load() / secs : 0.0, failed.load(),
        mismatches.load(), kills.load(),
        static_cast<unsigned long long>(restarts),
        static_cast<unsigned long long>(failovers),
        static_cast<unsigned long long>(routed),
        static_cast<unsigned long long>(all_stats.attempts),
        static_cast<unsigned long long>(all_stats.connectFailures),
        static_cast<unsigned long long>(all_stats.partialResponses),
        static_cast<unsigned long long>(all_stats.recvFailures),
        static_cast<unsigned long long>(all_stats.backpressure),
        all_restarted ? "true" : "false", orphans,
        leftover_sockets);
    return clean ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "bench_serve_load: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        auto number = [&](u64 max) -> u64 {
            const char *v = value();
            u64 n = 0;
            if (!parseDecimal(v, max, n)) {
                std::fprintf(stderr,
                             "bench_serve_load: %s needs a non-negative "
                             "integer no larger than %llu, got '%s'\n",
                             arg.c_str(),
                             static_cast<unsigned long long>(max), v);
                std::exit(2);
            }
            return n;
        };
        auto seconds = [&]() -> double {
            const char *v = value();
            double s = 0;
            if (!parseFraction(v, kMaxSeconds, s)) {
                std::fprintf(stderr,
                             "bench_serve_load: %s needs a non-negative "
                             "decimal number no larger than %.0f, got "
                             "'%s'\n",
                             arg.c_str(), kMaxSeconds, v);
                std::exit(2);
            }
            return s;
        };
        if (arg == "--clients")
            opt.clients = static_cast<unsigned>(number(kMaxFlagThreads));
        else if (arg == "--seconds")
            opt.seconds = seconds();
        else if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--schemes")
            opt.schemes = value();
        else if (arg == "--fleet")
            opt.fleet = true;
        else if (arg == "--fleet-workers")
            opt.fleetWorkers = static_cast<int>(number(kMaxFlagProcesses));
        else if (arg == "--kill-every-ms")
            opt.killEveryMs = static_cast<int>(number(INT_MAX));
        else {
            std::fprintf(stderr,
                         "usage: bench_serve_load [--clients N] "
                         "[--seconds S] [--workload W] [--schemes "
                         "S,...] [--fleet "
                         "[--fleet-workers N] [--kill-every-ms N]]\n");
            return 2;
        }
    }
    if (opt.clients == 0)
        opt.clients = 1;
    if (opt.fleet)
        return runFleetBench(opt);

    const std::string sock =
        "/tmp/mgx-serve-bench-" + std::to_string(::getpid()) + ".sock";

    serve::ServerOptions sopts;
    sopts.listen.unixPath = sock;
    sopts.workers = opt.clients;
    sopts.admissionCapacity = opt.clients * 2;
    serve::Server server(sopts);
    server.start();

    const std::string target =
        "/run?workload=" + serve::percentEncode(opt.workload) +
        "&schemes=" + opt.schemes;
    const serve::SocketAddress addr{sock, "127.0.0.1", 0};

    // --- Phase 1: cold burst -------------------------------------
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::atomic<unsigned> burst_ok{0};
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < opt.clients; ++i) {
        threads.emplace_back([&] {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            serve::HttpResponse resp;
            std::string error;
            if (serve::httpGet(addr, target, &resp, &error) &&
                resp.status == 200)
                burst_ok.fetch_add(1);
        });
    }
    while (ready.load() < opt.clients)
        std::this_thread::yield();
    const auto burst_start = Clock::now();
    go.store(true, std::memory_order_release);
    for (auto &t : threads)
        t.join();
    const double burst_secs =
        std::chrono::duration<double>(Clock::now() - burst_start)
            .count();
    const auto after_burst = server.metricsSnapshot();

    // --- Phase 2: sustained warm load ---------------------------
    std::atomic<unsigned long long> sustained_ok{0};
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    threads.clear();
    const auto sustained_start = Clock::now();
    for (unsigned i = 0; i < opt.clients; ++i) {
        threads.emplace_back([&] {
            while (Clock::now() < deadline) {
                serve::HttpResponse resp;
                std::string error;
                if (serve::httpGet(addr, target, &resp, &error) &&
                    resp.status == 200)
                    sustained_ok.fetch_add(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const double sustained_secs =
        std::chrono::duration<double>(Clock::now() - sustained_start)
            .count();

    const auto final_stats = server.metricsSnapshot();
    server.shutdown();

    const unsigned cells_per_request =
        [&] {
            unsigned n = 1;
            for (char c : opt.schemes)
                if (c == ',')
                    ++n;
            return n;
        }();
    const unsigned long long sustained_cells =
        sustained_ok.load() * cells_per_request;
    const double cells_per_sec =
        sustained_secs > 0 ? sustained_cells / sustained_secs : 0;

    std::fprintf(stderr,
                 "bench_serve_load: %u clients, burst %.3fs "
                 "(%u ok, collapsed %llu, cellsRun %llu), sustained "
                 "%.1fs: %llu requests, %.1f cells/s\n",
                 opt.clients, burst_secs, burst_ok.load(),
                 static_cast<unsigned long long>(
                     after_burst.dedupCollapsed),
                 static_cast<unsigned long long>(after_burst.cellsRun),
                 sustained_secs,
                 static_cast<unsigned long long>(sustained_ok.load()),
                 cells_per_sec);

    std::printf(
        "{\n  \"schema\": \"mgx-servebench-v1\",\n"
        "  \"clients\": %u,\n  \"workload\": \"%s\",\n"
        "  \"schemes\": \"%s\",\n"
        "  \"burst\": {\"seconds\": %.6f, \"ok\": %u, "
        "\"cellsRun\": %llu, \"dedupCollapsed\": %llu},\n"
        "  \"sustained\": {\"seconds\": %.6f, \"requests\": %llu, "
        "\"cellsPerSecond\": %.3f},\n"
        "  \"stats\": {\"served\": %llu, \"rejected\": %llu}\n}\n",
        opt.clients, opt.workload.c_str(), opt.schemes.c_str(),
        burst_secs, burst_ok.load(),
        static_cast<unsigned long long>(after_burst.cellsRun),
        static_cast<unsigned long long>(after_burst.dedupCollapsed),
        sustained_secs,
        static_cast<unsigned long long>(sustained_ok.load()),
        cells_per_sec,
        static_cast<unsigned long long>(final_stats.served),
        static_cast<unsigned long long>(final_stats.rejected));

    return burst_ok.load() == opt.clients ? 0 : 1;
}
