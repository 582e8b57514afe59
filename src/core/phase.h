/**
 * @file
 * A simulation phase: one schedulable step of accelerator execution
 * with its compute cost and the off-chip traffic it generates.
 *
 * Accelerators double-buffer: while tile i is computed, tile i+1's data
 * streams in and tile i-1's results stream out. The performance model
 * therefore charges each phase max(compute, memory) plus pipeline
 * fill/drain (see sim::PerfModel).
 *
 * Kernels emit phases one at a time into a PhaseSink
 * (core/phase_stream.h), and every replay consumes them that way. A
 * Trace is just those phases kept in order, for the callers that
 * inspect, edit or re-run one schedule (trace surgery, explicit-trace
 * experiment cells, tests); it replays through TracePhaseSource.
 */

#ifndef MGX_CORE_PHASE_H
#define MGX_CORE_PHASE_H

#include <string>
#include <vector>

#include "access.h"
#include "common/types.h"

namespace mgx::core {

/** One double-buffered execution step. */
struct Phase
{
    std::string name;          ///< for trace dumps and stats
    Cycles computeCycles = 0;  ///< accelerator-clock compute time
    AccessList accesses;       ///< off-chip traffic of this step
};

/** A whole workload: the ordered phases one kernel run emits. */
using Trace = std::vector<Phase>;

/** Total data bytes moved by a trace (excludes protection metadata). */
u64 traceDataBytes(const Trace &trace);

/** Total compute cycles of a trace. */
Cycles traceComputeCycles(const Trace &trace);

} // namespace mgx::core

#endif // MGX_CORE_PHASE_H
