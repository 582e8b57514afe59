/**
 * @file
 * The fleet front end: one listening socket (unix or TCP loopback)
 * that routes /run requests across the worker fleet by consistent
 * hash of the request's cell set — the same cells always land on the
 * same worker, so that worker's SingleFlight coalesces concurrent
 * identical requests and its result memo stays warm.
 *
 * Robustness model: the proxy buffers a backend's entire response
 * before relaying one byte to the client, so a worker SIGKILLed
 * mid-response costs a failover, never a truncated client read. On
 * any transport failure (connect refused, reset, deadline) it walks
 * the hash ring's failover order — in-rotation workers first, then
 * everyone (probe state lags reality) — across several passes with a
 * short pause, before finally answering 503. Optional hedging
 * (hedgeMs > 0) launches a second attempt at the next worker when
 * the owner is slow, taking whichever finishes first.
 *
 * Endpoints: /run (routed), /stats (proxy counters + per-worker
 * supervision state + live worker stats), /healthz (ok while at
 * least one worker is in rotation), /shutdown (via callback).
 */

#ifndef MGX_FLEET_PROXY_H
#define MGX_FLEET_PROXY_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "backend.h"
#include "hash_ring.h"
#include "serve/client.h"

namespace mgx::fleet {

struct ProxyOptions
{
    serve::SocketAddress listen;
    u32 workers = 4;                    ///< proxy handler threads
    std::size_t admissionCapacity = 32; ///< queued conns before 429
    int ioTimeoutMs = 30000;      ///< client-side read/write timeout
    int backendTimeoutMs = 120000; ///< one backend attempt's budget
    int failoverPasses = 3;  ///< sweeps over the ring before 503
    int failoverPauseMs = 100; ///< pause between sweeps
    int hedgeMs = 0; ///< >0: hedge /run to the next worker when slow
    bool keepAlive = true;     ///< honor client Connection: keep-alive
    int keepAliveIdleMs = 2000;
    u32 ringVnodes = 64;
};

/** Relaxed counters mirrored into /stats (mgx-fleetstats-v1). */
struct ProxyMetrics
{
    std::atomic<u64> accepted{0};
    std::atomic<u64> rejected{0};
    std::atomic<u64> served{0};
    std::atomic<u64> failed{0};
    std::atomic<u64> badRequests{0};
    std::atomic<u64> routed{0};       ///< /run requests routed
    std::atomic<u64> failovers{0};    ///< attempts beyond the first
    std::atomic<u64> backendErrors{0}; ///< failed backend attempts
    std::atomic<u64> partialResponses{0}; ///< backend died mid-body
    std::atomic<u64> noBackend{0};    ///< 503: every attempt failed
    std::atomic<u64> hedgesLaunched{0};
    std::atomic<u64> hedgeWins{0};    ///< hedge finished first
    std::atomic<u64> keepAliveReused{0};
    std::atomic<u64> backendReused{0}; ///< pooled backend conn reused
};

class Proxy
{
  public:
    Proxy(ProxyOptions opts, BackendDirectory *directory);
    ~Proxy();

    Proxy(const Proxy &) = delete;
    Proxy &operator=(const Proxy &) = delete;

    void start();
    void requestShutdown();
    void shutdown();
    bool stopping() const;

    u16 port() const { return boundPort_; }
    std::string addressDescription() const;

    /** Invoked when a client GETs /shutdown (mgx_fleet hooks the
     *  whole-fleet drain here). */
    void setShutdownHook(std::function<void()> hook)
    {
        shutdownHook_ = std::move(hook);
    }

    const ProxyMetrics &metrics() const { return metrics_; }
    std::string statsJson() const;

    /** Routing key for a /run target (exposed for tests): the
     *  request's cell-defining query values, normalized. */
    static std::string routingKey(const serve::HttpRequest &req);

  private:
    struct BackendAttempt
    {
        bool ok = false;
        serve::HttpResponse response;
        std::string error;
        serve::GetFailure failure = serve::GetFailure::None;
    };

    void acceptLoop();
    void workerLoop();
    void handleConnection(int fd);
    bool serveOneRequest(int fd, std::string *carry, bool first);
    std::string handleRequest(const serve::HttpRequest &req,
                              int *status_out,
                              std::string *content_type);
    std::string handleRun(const serve::HttpRequest &req,
                          int *status_out);

    /** One buffered request to one backend over a pooled keep-alive
     *  connection (with the fleet.backend.* failpoints applied). */
    BackendAttempt fetchFromBackend(const std::string &name,
                                    const std::string &target);
    BackendAttempt fetchWithHedge(
        const std::vector<std::string> &order, std::size_t primary,
        const std::string &target);

    /** Failover order for @p key: ring order, in-rotation first. */
    std::vector<std::string> candidateOrder(
        const std::string &key) const;

    std::unique_ptr<serve::ClientConnection> checkoutConnection(
        const std::string &name);
    void checkinConnection(const std::string &name,
                           std::unique_ptr<serve::ClientConnection>);

    void sendAll(int fd, const std::string &data) const;

    ProxyOptions opts_;
    BackendDirectory *directory_;
    HashRing ring_;
    ProxyMetrics metrics_;

    int listenFd_ = -1;
    u16 boundPort_ = 0;
    bool started_ = false;
    bool joined_ = false;

    std::thread acceptor_;
    std::vector<std::thread> workers_;

    mutable std::mutex qmu_;
    std::condition_variable qcv_;
    std::deque<int> pending_;
    bool draining_ = false;

    std::mutex poolmu_;
    /// name -> idle pooled connections (small, FDs are bounded by
    /// pool size x workers).
    std::vector<std::pair<
        std::string,
        std::vector<std::unique_ptr<serve::ClientConnection>>>>
        pool_;

    /// Detached hedge threads still running (shutdown waits on it —
    /// they capture `this`).
    std::atomic<u64> bgOps_{0};

    std::function<void()> shutdownHook_;
};

} // namespace mgx::fleet

#endif // MGX_FLEET_PROXY_H
