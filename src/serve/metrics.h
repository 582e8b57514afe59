/**
 * @file
 * Lock-free operational counters for mgx_serve, surfaced by the
 * /stats endpoint as `mgx-servestats-v1` JSON. Counters are plain
 * relaxed atomics — they are diagnostics, not synchronization; the
 * server's queue mutex orders the state they describe.
 */

#ifndef MGX_SERVE_METRICS_H
#define MGX_SERVE_METRICS_H

#include <atomic>
#include <string>

#include "common/types.h"

namespace mgx::serve {

class ServeMetrics
{
  public:
    /** A consistent-enough copy for reporting. */
    struct Snapshot
    {
        u64 accepted = 0;       ///< connections accepted
        u64 rejected = 0;       ///< 429s: admission queue was full
        u64 served = 0;         ///< responses with status < 400
        u64 failed = 0;         ///< responses with status >= 500
        u64 badRequests = 0;    ///< 4xx other than queue rejections
        u64 dedupCollapsed = 0; ///< cell requests served as followers
        u64 cellsRun = 0;       ///< cells actually simulated (leaders)
        u64 resultMemoHits = 0; ///< cells answered from the result memo
        u64 inFlight = 0;       ///< requests being handled right now
        u64 queueDepth = 0;     ///< connections waiting for a worker
        u64 maxQueueDepth = 0;  ///< high-water mark of queueDepth
        u64 deadlineExceeded = 0; ///< 503s: request deadline expired
        u64 oversized = 0;      ///< 431s: request exceeded the 1 MiB cap
        u64 keepAliveReused = 0; ///< requests served on a reused connection
        bool draining = false;  ///< shutdown requested
    };

    std::atomic<u64> accepted{0};
    std::atomic<u64> rejected{0};
    std::atomic<u64> served{0};
    std::atomic<u64> failed{0};
    std::atomic<u64> badRequests{0};
    std::atomic<u64> dedupCollapsed{0};
    std::atomic<u64> cellsRun{0};
    std::atomic<u64> resultMemoHits{0};
    std::atomic<u64> inFlight{0};
    std::atomic<u64> queueDepth{0};
    std::atomic<u64> maxQueueDepth{0};
    std::atomic<u64> deadlineExceeded{0};
    std::atomic<u64> oversized{0};
    std::atomic<u64> keepAliveReused{0};
    std::atomic<bool> draining{false};

    /** Raise maxQueueDepth to at least @p depth. */
    void
    noteQueueDepth(u64 depth)
    {
        queueDepth.store(depth, std::memory_order_relaxed);
        u64 seen = maxQueueDepth.load(std::memory_order_relaxed);
        while (depth > seen &&
               !maxQueueDepth.compare_exchange_weak(
                   seen, depth, std::memory_order_relaxed))
            ;
    }

    Snapshot snapshot() const;
};

/** Serialize @p s as the `mgx-servestats-v1` JSON document. */
std::string statsJson(const ServeMetrics::Snapshot &s);

} // namespace mgx::serve

#endif // MGX_SERVE_METRICS_H
