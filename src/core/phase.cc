#include "phase.h"

namespace mgx::core {

u64
traceDataBytes(const Trace &trace)
{
    u64 total = 0;
    for (const Phase &phase : trace)
        for (const LogicalAccess &acc : phase.accesses)
            total += acc.bytes;
    return total;
}

Cycles
traceComputeCycles(const Trace &trace)
{
    Cycles total = 0;
    for (const Phase &phase : trace)
        total += phase.computeCycles;
    return total;
}

} // namespace mgx::core
