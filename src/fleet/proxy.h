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
 * a transport failure (connect refused, reset, timeout) or a 503 it
 * walks the hash ring's failover order — in-rotation workers first,
 * then everyone (probe state lags reality) — across several passes
 * with a short pause, before finally answering 503. A request that
 * reaches two workers and gets no complete answer from either (each
 * died or hung on it) is a poison request: it is answered 502 at
 * once instead of being spread to the rest of the fleet.
 *
 * Endpoints, served through serve::FrontDoor (the same listener,
 * admission queue and keep-alive loop as mgx_serve): /run (routed),
 * /stats (proxy counters + per-worker supervision state + live
 * worker stats), /healthz (ok while at least one worker is in
 * rotation), /shutdown (starts the drain; mgx_fleet polls stopping()).
 */

#ifndef MGX_FLEET_PROXY_H
#define MGX_FLEET_PROXY_H

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "backend.h"
#include "hash_ring.h"
#include "serve/client.h"
#include "serve/front_door.h"

namespace mgx::fleet {

struct ProxyOptions : serve::FrontDoorOptions
{
    /// A wider front door than one worker's: the proxy's handlers
    /// mostly wait on backends.
    ProxyOptions()
    {
        workers = 4;
        admissionCapacity = 32;
    }

    int failoverPauseMs = 100; ///< pause between sweeps over the ring
};

/** The front door's relaxed counters plus the routing ones; /stats
 *  (mgx-fleetstats-v1) prints the request counters and every routing
 *  one. */
struct ProxyMetrics : serve::FrontDoorMetrics
{
    std::atomic<u64> routed{0};       ///< /run requests routed
    std::atomic<u64> failovers{0};    ///< attempts beyond the first
    std::atomic<u64> backendErrors{0}; ///< failed backend attempts
    std::atomic<u64> partialResponses{0}; ///< backend died mid-body
    std::atomic<u64> noBackend{0};    ///< 503: every attempt failed
    std::atomic<u64> poisonRequests{0}; ///< 502: lost two workers
    std::atomic<u64> backendReused{0}; ///< pooled backend conn reused
};

class Proxy
{
  public:
    Proxy(ProxyOptions opts, BackendDirectory *directory);
    ~Proxy();

    Proxy(const Proxy &) = delete;
    Proxy &operator=(const Proxy &) = delete;

    /** Put the backends on the ring and open the front door. */
    void start();
    void requestShutdown() { door_.requestShutdown(); }
    /** Drain the front door, then close the pooled backend
     *  connections. Idempotent; also run by the destructor. */
    void shutdown();
    bool stopping() const { return door_.stopping(); }

    std::string addressDescription() const
    {
        return door_.addressDescription();
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

    std::string handleRequest(const serve::HttpRequest &req,
                              int *status_out);
    std::string handleRun(const serve::HttpRequest &req,
                          int *status_out);

    /** One buffered request to one backend over a pooled keep-alive
     *  connection (with the fleet.backend.* failpoints applied). */
    BackendAttempt fetchFromBackend(const std::string &name,
                                    const std::string &target);

    /** Failover order for @p key: ring order, in-rotation first. */
    std::vector<std::string> candidateOrder(
        const std::string &key) const;

    std::unique_ptr<serve::ClientConnection> checkoutConnection(
        const std::string &name);
    void checkinConnection(const std::string &name,
                           std::unique_ptr<serve::ClientConnection>);

    ProxyOptions opts_;
    BackendDirectory *directory_;
    HashRing ring_;
    ProxyMetrics metrics_;

    std::mutex poolmu_;
    /// name -> idle pooled connections (small, FDs are bounded by
    /// pool size x workers).
    std::vector<std::pair<
        std::string,
        std::vector<std::unique_ptr<serve::ClientConnection>>>>
        pool_;

    /// Last: its threads call into every member above.
    serve::FrontDoor door_;
};

} // namespace mgx::fleet

#endif // MGX_FLEET_PROXY_H
