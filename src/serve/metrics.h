/**
 * @file
 * Lock-free operational counters for mgx_serve, surfaced by the
 * /stats endpoint as `mgx-servestats-v1` JSON: the front door's
 * counters (serve/front_door.h) plus the ones only the experiment
 * service keeps.
 */

#ifndef MGX_SERVE_METRICS_H
#define MGX_SERVE_METRICS_H

#include <atomic>
#include <string>

#include "common/types.h"
#include "front_door.h"

namespace mgx::serve {

class ServeMetrics : public FrontDoorMetrics
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
        u64 dedupCollapsed = 0; ///< cells that waited on another's run
        u64 cellsRun = 0;       ///< cell runs started (stopped included)
        u64 resultMemoHits = 0; ///< cells answered by a finished entry
        u64 inFlight = 0;       ///< requests being handled right now
        u64 queueDepth = 0;     ///< connections waiting for a worker
        u64 maxQueueDepth = 0;  ///< high-water mark of queueDepth
        u64 deadlineExceeded = 0; ///< 503s: request deadline expired
        u64 oversized = 0;      ///< 431s: request exceeded the 1 MiB cap
        u64 keepAliveReused = 0; ///< requests served on a reused connection
        bool draining = false;  ///< shutdown requested
    };

    std::atomic<u64> dedupCollapsed{0};
    std::atomic<u64> cellsRun{0};
    std::atomic<u64> resultMemoHits{0};
    std::atomic<u64> deadlineExceeded{0};

    /** Every counter; `draining` is the owner's to fill in. */
    Snapshot snapshot() const;
};

/** Serialize @p s as the `mgx-servestats-v1` JSON document. */
std::string statsJson(const ServeMetrics::Snapshot &s);

} // namespace mgx::serve

#endif // MGX_SERVE_METRICS_H
