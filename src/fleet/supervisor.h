/**
 * @file
 * Worker supervision for the fleet: fork+exec N mgx_serve processes
 * (one unix socket each), detect death
 * with waitpid, probe liveness over /healthz, restart with capped
 * exponential backoff, and take a flapping worker out of rotation
 * behind a cool-off (the flap breaker).
 *
 * Per-worker state machine (see docs/ARCHITECTURE.md):
 *
 *             spawn              first probe OK
 *   Starting ------------------------------------> Up
 *      |  ^                                        |
 *      |  | backoff elapsed                        | waitpid reaped
 *      v  |                                        v
 *    (respawn) <--- backoff = base << rapidDeaths --- Down
 *                 \
 *                  \ rapidDeaths >= flapThreshold
 *                   v
 *                 Broken --- coolOff elapsed ---> (respawn, probation)
 *
 * A death within flapWindowMs of the last spawn counts as "rapid";
 * surviving the window resets the count. A worker's in-memory state
 * (its result memo) is disposable: every cell it answers is
 * deterministic, so killing and restarting one loses nothing but
 * warmth.
 */

#ifndef MGX_FLEET_SUPERVISOR_H
#define MGX_FLEET_SUPERVISOR_H

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

#include "backend.h"

namespace mgx::fleet {

enum class WorkerState { Starting, Up, Down, Broken };

const char *workerStateName(WorkerState s);

struct SupervisorOptions
{
    int workers = 3;
    std::string socketDir;     ///< worker sockets live here
    u32 workerThreads = 2;       ///< --workers for each mgx_serve

    int probeIntervalMs = 200;  ///< /healthz cadence per worker
    int probeTimeoutMs = 1000;

    int restartBackoffMs = 100;    ///< base; doubles per rapid death
    int restartBackoffMaxMs = 5000;
    int flapWindowMs = 10000; ///< death sooner than this is "rapid"
    int flapThreshold = 5;    ///< rapid deaths before Broken
    int coolOffMs = 10000;    ///< Broken probation before respawn

    std::string serveBinary; ///< "" = locate next to this executable
};

struct WorkerStatus
{
    int id = 0;
    std::string name; ///< ring node name, "w<id>"
    std::string socketPath;
    pid_t pid = -1; ///< -1 while not running
    WorkerState state = WorkerState::Starting;
    bool inRotation = false;
    u64 restarts = 0;    ///< respawns after the initial spawn
    u64 rapidDeaths = 0; ///< current flap streak
    u64 probeFailures = 0;
};

/** Injectable spawner (tests): return the child pid, or -1. */
using SpawnFn =
    std::function<pid_t(int workerId, const std::string &socketPath)>;

class Supervisor : public BackendDirectory
{
  public:
    explicit Supervisor(SupervisorOptions opts);
    ~Supervisor() override;

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    /** Spawn every worker and the monitor thread. */
    void start();

    /** True once at least one worker answers /healthz; waits up to
     *  @p timeout_ms. Call between start() and serving traffic. */
    bool waitUntilReady(int timeout_ms);

    /** SIGTERM all workers, reap them (SIGKILL stragglers after
     *  @p grace_ms), join the monitor. Idempotent. */
    void shutdown(int grace_ms = 3000);

    // BackendDirectory
    std::vector<std::string> backendNames() const override;
    serve::SocketAddress address(
        const std::string &name) const override;
    bool inRotation(const std::string &name) const override;
    std::string statusJson() const override;

    std::vector<WorkerStatus> status() const;

    /** Total respawns across all workers (chaos-test observable). */
    u64 restartCount() const;

    /** Substitute the fork+exec spawner (tests). Call before start. */
    void setSpawnFnForTest(SpawnFn fn) { spawn_ = std::move(fn); }

  private:
    using Clock = std::chrono::steady_clock;

    struct Worker
    {
        int id = 0;
        std::string name;
        std::string socketPath;
        pid_t pid = -1;
        WorkerState state = WorkerState::Starting;
        bool healthy = false; ///< passing probes (=> in rotation)
        u64 restarts = 0;
        u64 rapidDeaths = 0;
        u64 probeFailures = 0;   ///< lifetime count (stats)
        int consecProbeMisses = 0;
        Clock::time_point lastSpawn{};
        Clock::time_point nextRestartAt{};
        Clock::time_point nextProbeAt{};
    };

    void monitorLoop();
    /** Fork+exec one worker; updates @p w under mu_. */
    void spawnLocked(Worker &w);
    void reapLocked(Worker &w, Clock::time_point now);
    void probeOne(int index);

    SupervisorOptions opts_;
    SpawnFn spawn_; ///< defaults to fork+exec of mgx_serve
    std::string binary_;

    mutable std::mutex mu_;
    std::vector<Worker> workers_;
    std::atomic<u64> restartCount_{0};

    std::thread monitor_;
    std::atomic<bool> stop_{false};
    bool started_ = false;
    bool shutdown_ = false;
};

/**
 * Find the mgx_serve binary near the running executable: same
 * directory first, then ../examples (tests and benches live in
 * sibling build dirs). Returns "" when not found.
 */
std::string locateServeBinary();

} // namespace mgx::fleet

#endif // MGX_FLEET_SUPERVISOR_H
