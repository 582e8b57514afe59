/**
 * @file
 * The streaming phase pipeline: pull-based, chunked phase production.
 *
 * MGX derives version numbers from attested kernel state, so a trace
 * never has to be materialized to be replayed — the kernel can hand
 * phases to the consumer as it schedules them. `PhaseSource` is the
 * pull side of that pipeline: the consumer repeatedly asks for the
 * next chunk, and the source pushes the chunk's phases into a
 * `PhaseSink`. Memory stays bounded by one chunk (in practice one
 * phase: sources reuse one scratch `Phase` between emissions), so
 * workload size is no longer capped by RAM.
 *
 * The materialized path still exists — `Kernel::generate()` is now
 * "stream into an arena" (TraceBuildSink) and `TracePhaseSource`
 * replays an existing arena-backed Trace — and both paths are
 * bitwise-identical by construction: they emit the same phases in the
 * same order to the same consumers.
 */

#ifndef MGX_CORE_PHASE_STREAM_H
#define MGX_CORE_PHASE_STREAM_H

#include <algorithm>
#include <cstddef>

#include "phase.h"

namespace mgx::core {

/**
 * Consumer side of the phase pipeline.
 *
 * Contract: the sink must not retain references into the consumed
 * phase after consume() returns — sources reuse the backing storage
 * for the next phase.
 */
class PhaseSink
{
  public:
    virtual ~PhaseSink();

    /** Take one phase (copy out anything that must outlive the call). */
    virtual void consume(const Phase &phase) = 0;
};

/**
 * Producer side: a pull-based, chunked phase stream.
 *
 * A source is single-pass and stateful; kernels' sources mutate the
 * kernel's VN state exactly as generate() did, so draining a fresh
 * kernel's stream is one further execution of the kernel. Never run
 * two streams of the same kernel concurrently.
 */
class PhaseSource
{
  public:
    virtual ~PhaseSource();

    /**
     * Emit the next chunk of phases (usually one) into @p sink.
     * Returns false once the stream is exhausted; the final call may
     * still have emitted phases before returning false.
     */
    virtual bool nextChunk(PhaseSink &sink) = 0;

    /** Pull every remaining chunk into @p sink. */
    void
    drainTo(PhaseSink &sink)
    {
        while (nextChunk(sink)) {
        }
    }
};

/** Sink that materializes the stream into an arena-backed Trace. */
class TraceBuildSink final : public PhaseSink
{
  public:
    explicit TraceBuildSink(Trace &trace) : trace_(&trace) {}

    void consume(const Phase &phase) override;

  private:
    Trace *trace_;
};

/**
 * Source over an already-materialized Trace: emits @p chunkPhases
 * phases per nextChunk() through one reused scratch Phase. Used to
 * feed trace files and edited traces into streaming consumers, and by
 * the chunk-boundary property tests (results must be invariant under
 * the chunk size).
 */
class TracePhaseSource final : public PhaseSource
{
  public:
    explicit TracePhaseSource(const Trace &trace,
                              std::size_t chunk_phases = 1)
        : trace_(&trace),
          chunk_(chunk_phases == 0 ? 1 : chunk_phases)
    {
    }

    bool nextChunk(PhaseSink &sink) override;

  private:
    const Trace *trace_;
    std::size_t next_ = 0;
    std::size_t chunk_;
    Phase scratch_;
};

/**
 * Arena bytes this phase would add to a materialized Trace (packed
 * access records, name characters, one phase record). Size-based and
 * deterministic. Summed over a stream it estimates the materialized
 * footprint the streaming path avoided (RunResult::traceBytes); its
 * per-phase maximum is the buffered high-water mark
 * (RunResult::peakPhaseBytes) — so peak <= total by construction.
 */
inline u64
phaseArenaBytes(const Phase &phase)
{
    return phase.accesses.size() * sizeof(LogicalAccess) +
           phase.name.size() + 32; // 32 = sizeof(Trace::PhaseRec)
}

/** phaseArenaBytes() summed and maximized over a stream. */
struct PhaseFootprint
{
    u64 streamedBytes = 0; ///< arena bytes a materialization would hold
    u64 peakBytes = 0;     ///< largest phase buffer seen at once

    void
    add(const Phase &phase)
    {
        const u64 bytes = phaseArenaBytes(phase);
        streamedBytes += bytes;
        peakBytes = std::max(peakBytes, bytes);
    }
};

} // namespace mgx::core

#endif // MGX_CORE_PHASE_STREAM_H
