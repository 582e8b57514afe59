/**
 * @file
 * The experiment service: a long-running daemon that accepts
 * workload x platform x scheme requests over a local socket (unix
 * path or TCP loopback), runs them through sim::Experiment, and
 * answers with the same `mgx-resultset-v1` JSON that `mgx_run --json`
 * writes — byte-identical for the same grid, so clients can switch
 * between the CLI and the service without re-baselining artifacts.
 *
 * Endpoints (HTTP/1.1, served through serve::FrontDoor — see
 * front_door.h for admission, keep-alive and the drain):
 *
 *   GET /run?workload=W[&workload=W2...][&platforms=cloud,edge]
 *           [&schemes=NP,MGX,...]
 *       Run the grid; 200 with the resultset JSON, 400 on unknown
 *       workloads / platforms / schemes (the registry's own message),
 *       503 once the request's deadline (--deadline-ms) stops a cell.
 *   GET /stats
 *       Operational counters as `mgx-servestats-v1` JSON.
 *   GET /healthz
 *       Liveness: 200 with {"ok": true, ...} whenever the daemon can
 *       answer at all — a draining daemon reports it in the body, not
 *       as a failure.
 *   GET /shutdown
 *       Acknowledge, then begin graceful shutdown.
 *
 * Behind the front door's admission queue, a /run cell goes through
 * two layers:
 *
 *   memo        A bounded in-memory LRU of finished cell results
 *               keyed like the singleflight: a warm repeat skips the
 *               engine entirely (metrics.resultMemoHits). Safe
 *               because cell results are deterministic — the memo'd
 *               record is bitwise what a re-run would produce.
 *   coalescing  Each grid cell runs under a SingleFlight keyed by
 *               workload|platform|scheme: concurrent requests that
 *               resolve to the same cell cost one engine run, the
 *               rest are followers (metrics.dedupCollapsed).
 *
 * Each cell runs on one engine thread, never pipelined, so response
 * bodies are byte-identical to `mgx_run --no-pipeline --json`. A cell
 * past its request's deadline stops at its next chunk boundary (see
 * sim::Experiment::deadline()), so a 503 leaves nothing running.
 *
 * Graceful shutdown: the front door drains and joins its workers.
 */

#ifndef MGX_SERVE_SERVER_H
#define MGX_SERVE_SERVER_H

#include <chrono>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "front_door.h"
#include "metrics.h"
#include "singleflight.h"
#include "sim/experiment.h"

namespace mgx::serve {

struct ServerOptions : FrontDoorOptions
{
    /// Wall-clock budget for one /run request, 0 = none. On expiry
    /// the running cell stops at its next chunk boundary and the
    /// request answers 503; so do the requests that joined its flight.
    int requestDeadlineMs = 0;
    /// Finished-cell results memoized in memory (LRU, keyed like the
    /// singleflight); 0 disables the memo.
    std::size_t resultMemoCapacity = 64;
};

/** One grid cell: the unit of deduplication. */
struct CellKey
{
    std::string workload;
    sim::Platform platform;
    protection::Scheme scheme = protection::Scheme::NP;

    /** The singleflight key. */
    std::string key() const;
};

/**
 * How a cell is simulated, given the request's deadline
 * (time_point::max() when there is none); injectable so tests can
 * substitute a deterministic (or deliberately blocking) runner. A
 * runner stopped by the deadline throws sim::DeadlineExceeded.
 */
using CellRunner = std::function<sim::RunRecord(
    const CellKey &, std::chrono::steady_clock::time_point deadline)>;

/**
 * Bounded, thread-safe LRU memo from a string key to a value, shared
 * by every worker. Hits return a copy; a stored value is never
 * mutated. Capacity 0 disables it.
 */
template <typename Value>
class LruMemo
{
  public:
    explicit LruMemo(std::size_t capacity) : capacity_(capacity) {}

    /** The memo'd value for @p key, refreshing its recency. */
    std::optional<Value>
    get(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it == entries_.end())
            return std::nullopt;
        order_.splice(order_.begin(), order_, it->second.order);
        return it->second.value;
    }

    /** Memoize @p value under @p key, evicting the LRU entry at
     *  capacity. A key already present is only refreshed (concurrent
     *  producers of one key store the same value). */
    void
    put(const std::string &key, const Value &value)
    {
        if (capacity_ == 0)
            return;
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            order_.splice(order_.begin(), order_, it->second.order);
            return;
        }
        while (entries_.size() >= capacity_) {
            entries_.erase(order_.back());
            order_.pop_back();
        }
        order_.push_front(key);
        entries_.emplace(key, Entry{order_.begin(), value});
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return entries_.size();
    }

  private:
    struct Entry
    {
        std::list<std::string>::iterator order;
        Value value;
    };

    mutable std::mutex mu_;
    std::size_t capacity_;
    std::list<std::string> order_; ///< front = most recently used
    std::map<std::string, Entry> entries_;
};

/**
 * The memo of finished cell records. A memo'd answer is bitwise the
 * answer a fresh engine run would give: cell results are
 * deterministic by construction (each cell simulates on fresh state).
 */
using ResultMemo = LruMemo<sim::RunRecord>;

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Open the front door (see FrontDoor::start()). */
    void start();

    /** The bound TCP port (after start(); meaningless for unix). */
    u16 port() const { return door_.port(); }

    /** Human-readable bound address, e.g. "unix:/tmp/x.sock". */
    std::string addressDescription() const
    {
        return door_.addressDescription();
    }

    /** Stop admission and begin draining; returns immediately. */
    void requestShutdown() { door_.requestShutdown(); }

    /** Drain the front door and join its threads: in-flight and
     *  queued requests finish first, each within its deadline when
     *  one is set. Idempotent; also run by the destructor. */
    void shutdown() { door_.shutdown(); }

    bool stopping() const { return door_.stopping(); }

    ServeMetrics::Snapshot metricsSnapshot() const;

    /** Replace the engine-backed cell runner (tests only). */
    void setCellRunnerForTest(CellRunner runner);

    /** The per-cell flight table (tests observe waiters()). */
    SingleFlight<sim::RunRecord> &cellFlights() { return flights_; }

    /** The finished-cell memo (tests observe size()). */
    ResultMemo &resultMemo() { return memo_; }

  private:
    std::string handleRequest(const HttpRequest &req, int *status_out);
    std::string handleRun(const HttpRequest &req, int *status_out);
    sim::RunRecord
    runCellWithEngine(const CellKey &cell,
                      std::chrono::steady_clock::time_point deadline);

    ServerOptions opts_;
    ServeMetrics metrics_;
    SingleFlight<sim::RunRecord> flights_;
    ResultMemo memo_; ///< capacity from opts_ (ctor init order)
    /// Engine-backed unless replaced via setCellRunnerForTest.
    CellRunner runner_;
    /// Last: its threads call into every member above.
    FrontDoor door_;
};

} // namespace mgx::serve

#endif // MGX_SERVE_SERVER_H
