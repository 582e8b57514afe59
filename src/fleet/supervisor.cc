#include "supervisor.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include <sys/wait.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "common/failpoint.h"
#include "common/log.h"
#include "serve/client.h"

namespace mgx::fleet {
namespace {

// Fleet-boundary failpoints, registered at load so failpoint::all()
// audits them alongside the serve ones (see common/failpoint.h).
failpoint::Point &fpForkFail =
    failpoint::Point::get("fleet.fork.fail");
failpoint::Point &fpProbeTimeout =
    failpoint::Point::get("fleet.probe.timeout");

/// Each worker's --queue: mgx_serve's own default.
constexpr int kWorkerQueue = 16;

/// Consecutive missed probes that take a worker out of rotation.
constexpr int kProbeFailThreshold = 2;

} // namespace

const char *
workerStateName(WorkerState s)
{
    switch (s) {
      case WorkerState::Starting: return "Starting";
      case WorkerState::Up: return "Up";
      case WorkerState::Down: return "Down";
      case WorkerState::Broken: return "Broken";
    }
    return "Unknown";
}

std::string
locateServeBinary()
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    std::string self(buf);
    const std::size_t slash = self.rfind('/');
    if (slash == std::string::npos)
        return "";
    const std::string dir = self.substr(0, slash);
    for (const std::string &candidate :
         {dir + "/mgx_serve", dir + "/../examples/mgx_serve"}) {
        if (::access(candidate.c_str(), X_OK) == 0)
            return candidate;
    }
    return "";
}

Supervisor::Supervisor(SupervisorOptions opts)
    : opts_(std::move(opts))
{
    if (opts_.workers < 1)
        opts_.workers = 1;
    binary_ = opts_.serveBinary;
}

Supervisor::~Supervisor()
{
    shutdown();
}

void
Supervisor::start()
{
    if (started_)
        return;
    started_ = true;

    if (!spawn_) {
        if (binary_.empty())
            binary_ = locateServeBinary();
        if (binary_.empty())
            fatal("mgx_fleet: cannot locate the mgx_serve binary "
                  "(pass SupervisorOptions::serveBinary)");
    }
    if (opts_.socketDir.empty())
        fatal("mgx_fleet: SupervisorOptions::socketDir is required");

    {
        std::lock_guard<std::mutex> lock(mu_);
        workers_.resize(static_cast<std::size_t>(opts_.workers));
        for (int i = 0; i < opts_.workers; ++i) {
            Worker &w = workers_[static_cast<std::size_t>(i)];
            w.id = i;
            // Appended, not "w" + std::to_string(i): GCC 12 flags that
            // with a -Wrestrict false positive (PR105651).
            std::string name = "w";
            name += std::to_string(i);
            w.name = std::move(name);
            w.socketPath =
                opts_.socketDir + "/" + w.name + ".sock";
            spawnLocked(w);
        }
    }
    monitor_ = std::thread([this] { monitorLoop(); });
}

void
Supervisor::spawnLocked(Worker &w)
{
    const auto now = Clock::now();
    const bool respawn = w.lastSpawn.time_since_epoch().count() != 0;

    if (fpForkFail.fire() ||
        [&] {
            if (spawn_) {
                w.pid = spawn_(w.id, w.socketPath);
                return w.pid <= 0;
            }
            // A stale socket file from a SIGKILLed predecessor would
            // make clients connect into nothing; the worker unlinks
            // it again before bind, but clear it here too so the
            // window is as small as possible.
            ::unlink(w.socketPath.c_str());
            std::vector<std::string> args = {
                binary_,
                "--socket", w.socketPath,
                "--workers", std::to_string(opts_.workerThreads),
                "--queue", std::to_string(kWorkerQueue),
                "--quiet"};
            const pid_t pid = ::fork();
            if (pid < 0) {
                w.pid = -1;
                return true;
            }
            if (pid == 0) {
                // Child: die with the supervisor so a crashed parent
                // never strands workers, then become mgx_serve.
#ifdef __linux__
                ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
                std::vector<char *> argv;
                argv.reserve(args.size() + 1);
                for (auto &a : args)
                    argv.push_back(a.data());
                argv.push_back(nullptr);
                ::execv(argv[0], argv.data());
                ::_exit(127);
            }
            w.pid = pid;
            return false;
        }()) {
        // Spawn failed (fork error or injected): treat it like a
        // rapid death so the same backoff / flap machinery applies.
        w.pid = -1;
        w.state = WorkerState::Down;
        w.healthy = false;
        ++w.rapidDeaths;
        const int shift = std::min<u64>(w.rapidDeaths, 12);
        const int backoff = std::min(
            opts_.restartBackoffMaxMs,
            std::max(1, opts_.restartBackoffMs) * (1 << shift));
        w.nextRestartAt =
            now + std::chrono::milliseconds(backoff);
        MGX_WARN("mgx_fleet: spawning %s failed; retry in %d ms",
                 w.name.c_str(), backoff);
        return;
    }

    w.state = WorkerState::Starting;
    w.healthy = false;
    w.consecProbeMisses = 0;
    w.lastSpawn = now;
    w.nextProbeAt = now; // probe as soon as possible
    if (respawn) {
        ++w.restarts;
        restartCount_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
Supervisor::reapLocked(Worker &w, Clock::time_point now)
{
    const bool rapid =
        now - w.lastSpawn <
        std::chrono::milliseconds(opts_.flapWindowMs);
    w.pid = -1;
    w.healthy = false;
    if (rapid)
        ++w.rapidDeaths;
    else
        w.rapidDeaths = 0; // it had settled; fresh slate

    if (rapid &&
        w.rapidDeaths >= static_cast<u64>(opts_.flapThreshold)) {
        // The flap breaker: this worker keeps dying right after
        // spawn (bad state, poisoned cell, resource exhaustion).
        // Park it for a cool-off instead of burning CPU on a
        // crash loop; after the cool-off it gets a probation spawn.
        w.state = WorkerState::Broken;
        w.nextRestartAt =
            now + std::chrono::milliseconds(opts_.coolOffMs);
        MGX_WARN("mgx_fleet: %s died %llu times in quick "
                 "succession; out of rotation for %d ms",
                 w.name.c_str(),
                 static_cast<unsigned long long>(w.rapidDeaths),
                 opts_.coolOffMs);
        return;
    }

    w.state = WorkerState::Down;
    const int shift = std::min<u64>(w.rapidDeaths, 12);
    const int backoff = std::min(
        opts_.restartBackoffMaxMs,
        std::max(1, opts_.restartBackoffMs) *
            (w.rapidDeaths == 0 ? 1 : (1 << shift)));
    w.nextRestartAt = now + std::chrono::milliseconds(
                                w.rapidDeaths == 0 ? 0 : backoff);
}

void
Supervisor::monitorLoop()
{
    while (!stop_.load(std::memory_order_relaxed)) {
        const auto now = Clock::now();
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (Worker &w : workers_) {
                if (w.pid > 0) {
                    int status = 0;
                    const pid_t r =
                        ::waitpid(w.pid, &status, WNOHANG);
                    if (r == w.pid)
                        reapLocked(w, now);
                }
                if (w.pid <= 0 && now >= w.nextRestartAt)
                    spawnLocked(w);
            }
        }
        for (std::size_t i = 0; i < workers_.size(); ++i)
            probeOne(static_cast<int>(i));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

void
Supervisor::probeOne(int index)
{
    serve::SocketAddress addr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        Worker &w = workers_[static_cast<std::size_t>(index)];
        if (w.pid <= 0 || Clock::now() < w.nextProbeAt)
            return;
        w.nextProbeAt =
            Clock::now() +
            std::chrono::milliseconds(opts_.probeIntervalMs);
        addr.unixPath = w.socketPath;
    }

    bool ok = false;
    if (fpProbeTimeout.fire()) {
        // Simulated probe timeout: the worker is fine but the probe
        // never lands — exercises spurious-out-of-rotation handling.
        ok = false;
    } else {
        serve::HttpResponse resp;
        std::string error;
        ok = serve::httpGet(addr, "/healthz", &resp, &error,
                            opts_.probeTimeoutMs) &&
             resp.status == 200;
    }

    std::lock_guard<std::mutex> lock(mu_);
    Worker &w = workers_[static_cast<std::size_t>(index)];
    if (w.pid <= 0)
        return; // died while we probed; the reaper owns it now
    if (ok) {
        w.consecProbeMisses = 0;
        w.healthy = true;
        if (w.state == WorkerState::Starting ||
            w.state == WorkerState::Broken)
            w.state = WorkerState::Up;
        // A worker that has stayed up past the flap window has
        // settled; forget its streak.
        if (w.rapidDeaths != 0 &&
            Clock::now() - w.lastSpawn >=
                std::chrono::milliseconds(opts_.flapWindowMs))
            w.rapidDeaths = 0;
    } else {
        ++w.probeFailures;
        if (++w.consecProbeMisses >= kProbeFailThreshold)
            w.healthy = false;
    }
}

bool
Supervisor::waitUntilReady(int timeout_ms)
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (Clock::now() < deadline) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (const Worker &w : workers_)
                if (w.healthy)
                    return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

void
Supervisor::shutdown(int grace_ms)
{
    if (!started_ || shutdown_)
        return;
    shutdown_ = true;
    stop_.store(true, std::memory_order_relaxed);
    if (monitor_.joinable())
        monitor_.join();

    std::vector<std::pair<pid_t, std::string>> live;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (Worker &w : workers_) {
            if (w.pid > 0) {
                ::kill(w.pid, SIGTERM);
                live.emplace_back(w.pid, w.socketPath);
            }
            w.healthy = false;
        }
    }
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(grace_ms);
    for (auto &[pid, socket] : live) {
        int status = 0;
        while (true) {
            const pid_t r = ::waitpid(pid, &status, WNOHANG);
            if (r == pid || (r < 0 && errno == ECHILD))
                break;
            if (Clock::now() >= deadline) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, &status, 0);
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        // A SIGKILLed worker cannot unlink its socket; leave no
        // strays behind (the CI fleet job asserts this).
        ::unlink(socket.c_str());
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (Worker &w : workers_)
            w.pid = -1;
    }
}

std::vector<std::string>
Supervisor::backendNames() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> names;
    names.reserve(workers_.size());
    for (const Worker &w : workers_)
        names.push_back(w.name);
    return names;
}

serve::SocketAddress
Supervisor::address(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const Worker &w : workers_)
        if (w.name == name)
            return serve::SocketAddress{w.socketPath, "127.0.0.1",
                                        0};
    return {};
}

bool
Supervisor::inRotation(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const Worker &w : workers_)
        if (w.name == name)
            return w.healthy && w.pid > 0;
    return false;
}

std::vector<WorkerStatus>
Supervisor::status() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<WorkerStatus> out;
    out.reserve(workers_.size());
    for (const Worker &w : workers_) {
        WorkerStatus s;
        s.id = w.id;
        s.name = w.name;
        s.socketPath = w.socketPath;
        s.pid = w.pid;
        s.state = w.state;
        s.inRotation = w.healthy && w.pid > 0;
        s.restarts = w.restarts;
        s.rapidDeaths = w.rapidDeaths;
        s.probeFailures = w.probeFailures;
        out.push_back(s);
    }
    return out;
}

u64
Supervisor::restartCount() const
{
    return restartCount_.load(std::memory_order_relaxed);
}

std::string
Supervisor::statusJson() const
{
    const auto ws = status();
    std::string out = "{";
    bool first = true;
    for (const auto &w : ws) {
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + w.name + "\": {\"state\": \"" +
               workerStateName(w.state) + "\", \"pid\": " +
               std::to_string(w.pid) + ", \"inRotation\": " +
               (w.inRotation ? "true" : "false") +
               ", \"restarts\": " + std::to_string(w.restarts) +
               ", \"rapidDeaths\": " +
               std::to_string(w.rapidDeaths) +
               ", \"probeFailures\": " +
               std::to_string(w.probeFailures) + "}";
    }
    return out + "}";
}

} // namespace mgx::fleet
