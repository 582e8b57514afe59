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
 * phase: kernel sources reuse one scratch `Phase` between emissions),
 * so workload size is not capped by RAM.
 *
 * A materialized Trace is that stream kept: `Kernel::generate()`
 * drains a kernel's stream into one (TraceBuildSink), and
 * `TracePhaseSource` replays one by handing each stored phase to the
 * sink. Both emit the same phases in the same order to the same
 * consumers, so a replay of either is bitwise-identical by
 * construction.
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

/** Sink that materializes the stream: appends each phase to a Trace. */
class TraceBuildSink final : public PhaseSink
{
  public:
    explicit TraceBuildSink(Trace &trace) : trace_(&trace) {}

    void consume(const Phase &phase) override;

  private:
    Trace *trace_;
};

/**
 * Source over an already-materialized Trace: hands @p chunkPhases
 * stored phases per nextChunk() straight to the sink. Used to replay
 * edited and explicit traces, and by the chunk-boundary property
 * tests (results must be invariant under the chunk size). The Trace
 * must outlive the source and stay unmodified while it runs.
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
};

/**
 * Bytes this phase is charged in the footprint estimate: one 32-byte
 * LogicalAccess per access, its name's characters and 32 for the
 * phase record. The formula is fixed, not measured from any in-memory
 * layout: it lands in every mgx-resultset-v1 record (traceBytes,
 * peakPhaseBytes) and in reference bodies pinned byte for byte, so it
 * must not move when a container's layout does. Summed over a stream
 * it estimates what holding the whole trace would cost
 * (RunResult::traceBytes); its per-phase maximum is the buffered
 * high-water mark (RunResult::peakPhaseBytes), so peak <= total by
 * construction.
 */
inline u64
phaseArenaBytes(const Phase &phase)
{
    return phase.accesses.size() * sizeof(LogicalAccess) +
           phase.name.size() + 32;
}

/** phaseArenaBytes() summed and maximized over a stream. */
struct PhaseFootprint
{
    u64 streamedBytes = 0; ///< estimate for holding the whole stream
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
