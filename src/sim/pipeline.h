/**
 * @file
 * Pipelined intra-cell replay: one workload x scheme cell split onto
 * two threads — a producer draining a PhaseSource (a streaming
 * kernel, a trace file, ...) into a bounded SPSC PhaseRing, and
 * the calling thread replaying phases off the ring through the
 * unchanged PerfModel::run(PhaseSource&) path.
 *
 * Phases cross the ring strictly in production order and only
 * serialize through the perf model's mem_free recurrence, which the
 * consumer alone advances — so a pipelined replay is bitwise-
 * identical to a serial one on every RunResult field derived from the
 * phase stream (cycles, traffic, access counts, metaCache counters,
 * traceBytes, peakPhaseBytes). Only the pipeline occupancy/stall
 * counters themselves (RunResult::pipeline*) depend on thread
 * scheduling and vary run to run.
 */

#ifndef MGX_SIM_PIPELINE_H
#define MGX_SIM_PIPELINE_H

#include <cstddef>

#include "core/phase_ring.h"
#include "core/phase_stream.h"
#include "perf_model.h"

namespace mgx::sim {

/**
 * Replay @p source through @p model with kernel streaming and replay
 * pipelined over a bounded SPSC ring of @p ring_capacity phases.
 * Results are invariant under the capacity (see pipeline_replay_test);
 * it only bounds how far the producer may run ahead of the replay.
 * Blocks until both sides finish; the producer thread is always
 * joined on return, including when the producer's drain throws (the
 * exception resurfaces here, on the calling thread, after the
 * buffered prefix has been replayed).
 *
 * The returned RunResult carries the ring's occupancy/stall counters
 * (pipelineProducerWaits / pipelineConsumerWaits /
 * pipelineMaxOccupancy); every other field is bitwise-identical to
 * model.run(source) on one thread.
 */
RunResult runPipelined(PerfModel &model, core::PhaseSource &source,
                       std::size_t ring_capacity = 8);

} // namespace mgx::sim

#endif // MGX_SIM_PIPELINE_H
