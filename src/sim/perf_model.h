/**
 * @file
 * The performance evaluator (paper Fig. 11, rightmost box).
 *
 * Consumes a kernel trace phase by phase. Memory traffic of consecutive
 * phases pipelines through the protection engine and DRAM back to back,
 * while compute overlaps with the next phase's data movement — the
 * double-buffering every streaming accelerator uses. Phase i's compute
 * starts once its data has arrived and the previous phase's compute has
 * finished:
 *
 *   m_i = c_{i-1}                (memory stream is serial)
 *   c_i = engine.access(..., m_i) completion
 *   s_i = max(c_i, e_{i-1});  e_i = s_i + compute_i
 *
 * Total time is max(e_N, c_N) plus the final metadata flush.
 *
 * run(PhaseSource&) is the one entry point: it pulls phases straight
 * off a producer (a streaming kernel, a trace file, or a materialized
 * Trace through core::TracePhaseSource) and never holds more than the
 * producer's chunk in memory. The recurrence itself is PhaseClock,
 * which the engine/DRAM split replay (sim/pipeline.h) shares.
 */

#ifndef MGX_SIM_PERF_MODEL_H
#define MGX_SIM_PERF_MODEL_H

#include "core/phase.h"
#include "core/phase_stream.h"
#include "protection/protection_engine.h"

namespace mgx::sim {

/** Outcome of one simulated run. */
struct RunResult
{
    Cycles totalCycles = 0;   ///< controller cycles, end of run
    Cycles computeCycles = 0; ///< sum of compute (controller cycles)
    Cycles memoryCycles = 0;  ///< busy span of the memory stream
    protection::TrafficBreakdown traffic;
    u64 dramAccesses = 0;     ///< 64 B DRAM requests actually issued
    u64 logicalAccesses = 0;  ///< kernel-level requests into the engine
    u64 traceBytes = 0;       ///< streamed estimate of the whole trace:
                              ///< core::phaseArenaBytes() summed
    u64 peakPhaseBytes = 0;   ///< largest one phase's estimate: the
                              ///< high-water mark of phase bytes
                              ///< buffered at once
    u64 metaCacheHits = 0;       ///< metadata-cache hits (BP/MGX_MAC)
    u64 metaCacheMisses = 0;     ///< metadata-cache misses
    u64 metaCacheWritebacks = 0; ///< dirty metadata evictions

    /**
     * Pipelined-replay diagnostics (see sim/pipeline.h): how often
     * each side of the command ring between the engine and the DRAM
     * timer blocked on the other, and the most chunks buffered at
     * once. All zero on a serial replay (maxOccupancy >= 1 identifies
     * a pipelined run). Unlike every other field these depend on
     * thread scheduling, so they vary run to run — equivalence checks
     * must mask them.
     */
    u64 pipelineProducerWaits = 0; ///< engine blocked: ring full
    u64 pipelineConsumerWaits = 0; ///< DRAM timer blocked: ring empty
    u64 pipelineMaxOccupancy = 0;  ///< ring high-water mark (0 = serial)
    double seconds = 0.0;

    /** Memory traffic relative to the pure data traffic (>= 1). */
    double
    trafficIncrease() const
    {
        return traffic.dataBytes == 0
                   ? 1.0
                   : static_cast<double>(traffic.totalBytes()) /
                         static_cast<double>(traffic.dataBytes);
    }
};

/** DRAM controller clock every platform runs at (MHz). */
constexpr double kDefaultCtrlMhz = 1200.0;

/**
 * The phase recurrence above, one phase at a time: the memory stream
 * and compute overlap state of one replay.
 */
class PhaseClock
{
  public:
    /**
     * @param accel_mhz   accelerator clock (compute cycles domain)
     * @param ctrl_mhz    DRAM controller clock (timing domain)
     */
    PhaseClock(double accel_mhz, double ctrl_mhz);

    /** Cycle the next phase's memory stream issues at (m_i). */
    Cycles issue() const { return memFree_; }

    /**
     * Close the phase issued at issue(): its data arrived at
     * @p data_ready (c_i), then it computes for @p compute_cycles
     * accelerator cycles.
     */
    void close(Cycles data_ready, Cycles compute_cycles);

    /**
     * Fill @p result's timing fields (total, compute and memory
     * cycles, seconds), given the completion of the end-of-run
     * metadata flush issued at issue().
     */
    void finish(Cycles flushed, RunResult &result) const;

  private:
    /** Convert accelerator cycles to controller cycles (rounding up). */
    Cycles toCtrl(Cycles accel_cycles) const;

    double accelMhz_;
    double ctrlMhz_;
    Cycles memFree_ = 0;     ///< when the memory stream can take phase i
    Cycles computeDone_ = 0; ///< e_{i-1}
    Cycles memBusy_ = 0;
    Cycles computeTotal_ = 0;
};

/**
 * Copy the engine's counters (traffic, logical accesses, metadata
 * cache) into @p result — after its flush, which adds traffic.
 */
void recordEngineCounters(const protection::ProtectionEngine &engine,
                          RunResult &result);

/** Runs one trace through a protection engine and times it. */
class PerfModel
{
  public:
    /**
     * @param engine  protection engine (owns no DRAM; see runner)
     * @param accel_mhz   accelerator clock (compute cycles domain)
     * @param ctrl_mhz    DRAM controller clock (timing domain)
     */
    PerfModel(protection::ProtectionEngine *engine, double accel_mhz,
              double ctrl_mhz = kDefaultCtrlMhz);

    /**
     * Simulate a phase stream from cycle 0, consuming chunks as the
     * producer emits them, and return the aggregate result. Memory
     * stays bounded by the producer's chunk (RunResult::peakPhaseBytes).
     */
    RunResult run(core::PhaseSource &source);

  private:
    protection::ProtectionEngine *engine_;
    double accelMhz_;
    double ctrlMhz_;
};

} // namespace mgx::sim

#endif // MGX_SIM_PERF_MODEL_H
