#include "metrics.h"

#include <sstream>

namespace mgx::serve {

ServeMetrics::Snapshot
ServeMetrics::snapshot() const
{
    Snapshot s;
    s.accepted = accepted.load(std::memory_order_relaxed);
    s.rejected = rejected.load(std::memory_order_relaxed);
    s.served = served.load(std::memory_order_relaxed);
    s.failed = failed.load(std::memory_order_relaxed);
    s.badRequests = badRequests.load(std::memory_order_relaxed);
    s.dedupCollapsed = dedupCollapsed.load(std::memory_order_relaxed);
    s.cellsRun = cellsRun.load(std::memory_order_relaxed);
    s.resultMemoHits = resultMemoHits.load(std::memory_order_relaxed);
    s.inFlight = inFlight.load(std::memory_order_relaxed);
    s.queueDepth = queueDepth.load(std::memory_order_relaxed);
    s.maxQueueDepth = maxQueueDepth.load(std::memory_order_relaxed);
    s.deadlineExceeded =
        deadlineExceeded.load(std::memory_order_relaxed);
    s.oversized = oversized.load(std::memory_order_relaxed);
    s.keepAliveReused =
        keepAliveReused.load(std::memory_order_relaxed);
    return s;
}

std::string
statsJson(const ServeMetrics::Snapshot &s)
{
    std::ostringstream out;
    out << "{\n  \"schema\": \"mgx-servestats-v1\",\n"
        << "  \"accepted\": " << s.accepted
        << ",\n  \"rejected\": " << s.rejected
        << ",\n  \"served\": " << s.served
        << ",\n  \"failed\": " << s.failed
        << ",\n  \"badRequests\": " << s.badRequests
        << ",\n  \"dedupCollapsed\": " << s.dedupCollapsed
        << ",\n  \"cellsRun\": " << s.cellsRun
        << ",\n  \"resultMemoHits\": " << s.resultMemoHits
        << ",\n  \"inFlight\": " << s.inFlight
        << ",\n  \"queueDepth\": " << s.queueDepth
        << ",\n  \"maxQueueDepth\": " << s.maxQueueDepth
        << ",\n  \"deadlineExceeded\": " << s.deadlineExceeded
        << ",\n  \"oversized\": " << s.oversized
        << ",\n  \"keepAliveReused\": " << s.keepAliveReused
        << ",\n  \"draining\": " << (s.draining ? "true" : "false")
        << "\n}\n";
    return out.str();
}

} // namespace mgx::serve
