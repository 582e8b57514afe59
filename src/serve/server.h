/**
 * @file
 * The experiment service: a long-running daemon that accepts
 * workload x platform x scheme requests over a local socket (unix
 * path or TCP loopback), runs them through sim::Experiment, and
 * answers with the same `mgx-resultset-v1` JSON that `mgx_run --json`
 * writes — byte-identical for the same grid, so clients can switch
 * between the CLI and the service without re-baselining artifacts.
 *
 * Endpoints (HTTP/1.1; one request per connection by default, but a
 * request carrying `Connection: keep-alive` keeps the connection open
 * for the next one, bounded by ServerOptions::keepAliveIdleMs):
 *
 *   GET /run?workload=W[&workload=W2...][&platforms=cloud,edge]
 *           [&schemes=NP,MGX,...]
 *       Run the grid; 200 with the resultset JSON, 400 on unknown
 *       workloads / platforms / schemes (the registry's own message).
 *   GET /stats
 *       Operational counters as `mgx-servestats-v1` JSON.
 *   GET /healthz
 *       Liveness: 200 with {"ok": true, ...} whenever the daemon can
 *       answer at all — a draining daemon reports it in the body, not
 *       as a failure.
 *   GET /shutdown
 *       Acknowledge, then begin graceful shutdown.
 *
 * Concurrency model — three layers:
 *
 *   admission   A bounded connection queue between one acceptor
 *               thread and N worker threads. When the queue is full
 *               the acceptor answers 429 immediately instead of
 *               letting latency grow unboundedly (explicit
 *               back-pressure; clients retry or go run mgx_run).
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
 * bodies are byte-identical to `mgx_run --no-pipeline --json`.
 *
 * Graceful shutdown: stop accepting, drain the queued and in-flight
 * requests, join every thread. Connections arriving while draining
 * get 503.
 */

#ifndef MGX_SERVE_SERVER_H
#define MGX_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "http.h"
#include "metrics.h"
#include "singleflight.h"
#include "sim/experiment.h"

namespace mgx::serve {

/** Where to listen / connect: unix path if set, else TCP loopback. */
struct SocketAddress
{
    std::string unixPath; ///< non-empty selects AF_UNIX
    std::string host = "127.0.0.1";
    u16 port = 0; ///< 0 = kernel-assigned (see Server::port())
};

struct ServerOptions
{
    SocketAddress listen;
    u32 workers = 2;                  ///< request handler threads
    std::size_t admissionCapacity = 16; ///< queued connections before 429
    int ioTimeoutMs = 30000;          ///< per-connection read/write timeout
    /// Wall-clock budget for one /run request, 0 = none. On expiry
    /// the request answers 503 immediately; the cell that was running
    /// finishes on a background thread (engine runs cannot be
    /// cancelled) so a retry joins it instead of duplicating work.
    int requestDeadlineMs = 0;
    /// Honor `Connection: keep-alive` requests by keeping the
    /// connection open for the next request (false restores the old
    /// one-request-per-connection behavior for every peer).
    bool keepAlive = true;
    /// Close a kept-alive connection after this long with no next
    /// request — bounds both idle FDs and how long a worker thread
    /// can be parked on one peer.
    int keepAliveIdleMs = 2000;
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
 * How a cell is simulated; injectable so tests can substitute a
 * deterministic (or deliberately blocking) runner.
 */
using CellRunner = std::function<sim::RunRecord(const CellKey &)>;

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

    /** Bind, listen, and spawn the acceptor + workers. Fatal on bind
     *  failure (the address is caller-chosen configuration). */
    void start();

    /** The bound TCP port (after start(); meaningless for unix). */
    u16 port() const { return boundPort_; }

    /** Human-readable bound address, e.g. "unix:/tmp/x.sock". */
    std::string addressDescription() const;

    /** Stop admission and begin draining; returns immediately. */
    void requestShutdown();

    /** requestShutdown() + drain queued and in-flight + join threads.
     *  Idempotent; also run by the destructor. */
    void shutdown();

    bool stopping() const;

    ServeMetrics::Snapshot metricsSnapshot() const;

    /** Replace the engine-backed cell runner (tests only). */
    void setCellRunnerForTest(CellRunner runner);

    /** The per-cell flight table (tests observe waiters()). */
    SingleFlight<sim::RunRecord> &cellFlights() { return flights_; }

    /** The finished-cell memo (tests observe size()). */
    ResultMemo &resultMemo() { return memo_; }

  private:
    void acceptLoop();
    void workerLoop();
    void handleConnection(int fd);
    /// Serve one request off @p fd (seeded with @p carry bytes from
    /// the previous request on this connection). Returns false when
    /// the connection is done (peer closed, error, or the exchange
    /// chose Connection: close); true means keep it open and @p carry
    /// holds any bytes of the next request that already arrived.
    /// @p first distinguishes a fresh connection from a reused one.
    bool serveOneRequest(int fd, std::string *carry, bool first);
    std::string handleRequest(const HttpRequest &req, int *status_out);
    std::string handleRun(const HttpRequest &req, int *status_out);
    sim::RunRecord runCellWithEngine(const CellKey &cell);
    bool validateWorkload(const std::string &name, std::string *error);
    void sendAll(int fd, const std::string &data) const;

    ServerOptions opts_;
    ServeMetrics metrics_;
    SingleFlight<sim::RunRecord> flights_;
    ResultMemo memo_; ///< capacity from opts_ (ctor init order)
    /// Engine-backed unless replaced via setCellRunnerForTest.
    CellRunner runner_;

    int listenFd_ = -1;
    u16 boundPort_ = 0;
    bool started_ = false;
    bool joined_ = false;

    std::thread acceptor_;
    std::vector<std::thread> workers_;

    mutable std::mutex qmu_;
    std::condition_variable qcv_;
    std::deque<int> pending_; ///< accepted fds awaiting a worker
    bool draining_ = false;   ///< guarded by qmu_

    /// workload name -> registry error ("" = known-good); memoized so
    /// repeated requests skip kernel construction during validation.
    /// Bounded: names come from clients, and a stream of distinct ones
    /// (a seed sweep) must not grow a long-running daemon's memory.
    LruMemo<std::string> validation_{1024};
};

} // namespace mgx::serve

#endif // MGX_SERVE_SERVER_H
