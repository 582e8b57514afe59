/**
 * @file
 * Pipelined single-cell replay: one workload x scheme cell split onto
 * two threads at the engine/DRAM boundary.
 *
 * In MGX the protection unit works out which metadata lines an access
 * needs from on-chip state alone; DRAM timing only decides when those
 * lines arrive (paper Fig. 2). So the ProtectionEngine's one output is
 * the DRAM command log (dram/command_log.h), and its side is the same
 * in both modes; only where the log is played differs. Serially, the
 * engine's own dram::TimedRecorder plays each access's commands.
 * Here, a producer thread runs the phase source and the engine into
 * the chunks of a bounded SPSC CommandRing, and the calling thread
 * owns the DramSystem: it plays each command as it reads it, through
 * its own CommandPlayer, at its phase's issue cycle, and runs the
 * PerfModel phase recurrence (PhaseClock) with
 *
 *   data_ready = max(issue, max plain completion,
 *                    max crypto completion + cryptoLatency)
 *
 * which is the max over the phase's ProtectionEngine::access() values.
 *
 * A pipelined replay is bitwise-identical to PerfModel::run on one
 * thread on every RunResult field but the ring's own counters. Every
 * command of a phase arrives at the same issue cycle, which the
 * completions of the phases before it alone fix; the engine never
 * reads a completion time, so its decisions and counters cannot
 * depend on when the timer runs; and the timer plays the engine's
 * commands in the engine's order, so every channel sees the same
 * command stream. Only RunResult::pipeline* (ring stalls and
 * occupancy, in chunks) depend on thread scheduling.
 */

#ifndef MGX_SIM_PIPELINE_H
#define MGX_SIM_PIPELINE_H

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/slot_queue.h"
#include "core/phase_stream.h"
#include "runner.h"

namespace mgx::sim {

/**
 * Bounded SPSC ring of command-log chunks: the seam between the
 * engine thread and the DRAM timer. The producer fills the chunk
 * acquire() hands it and publishes it; the consumer take()s the
 * oldest published chunk and release()s it once timed. Blocking,
 * back-pressure and shutdown are the SlotQueue's (common/slot_queue.h);
 * once the consumer has closed, acquire() returns nullptr.
 */
class alignas(64) CommandRing : private SlotQueue
{
  public:
    /** The queue's counters, in chunks (a chunk in timing counts
     *  toward maxOccupancy). */
    using SlotQueue::Stats;

    /**
     * @param chunks       chunks in the ring (0 is clamped to 1)
     * @param chunk_words  8-byte words per chunk (clamped to >= 2, so a
     *                     two-word command always fits)
     */
    CommandRing(std::size_t chunks, std::size_t chunk_words);

    /** Producer: the next chunk to fill (chunkWords() words). */
    u64 *acquire();

    /** Producer: publish the first @p words words of the acquired chunk. */
    void publish(std::size_t words);

    /** Consumer: the oldest published chunk; false (or the producer's
     *  exception) at the end of the stream. */
    bool take(std::span<const u64> &words);

    // The queue's: hand a taken chunk back, shutdown, counters.
    using SlotQueue::release;
    using SlotQueue::closeConsumer;
    using SlotQueue::closeProducer;
    using SlotQueue::fail;
    using SlotQueue::stats;

    std::size_t chunkWords() const { return chunkWords_; }

  private:
    const std::size_t chunkWords_;
    std::unique_ptr<u64[]> words_;   ///< slots() x chunkWords_
    std::vector<std::size_t> sizes_; ///< published words per slot
    std::size_t filling_ = 0;        ///< the producer's acquired slot
};

/** Builds a cell's phase source; runPipelined() calls it on the
 *  engine thread, so the source's state is allocated there. */
using SourceFactory = std::function<std::unique_ptr<core::PhaseSource>()>;

/**
 * Replay the source @p make_source builds under @p cfg on
 * @p platform, with engine expansion and DRAM timing pipelined over a
 * CommandRing of @p ring_chunks chunks of @p chunk_words words (8 x
 * 128 KB by default). Results are invariant under the geometry (see
 * pipeline_replay_test); it only bounds how far the engine may run
 * ahead of the timer.
 *
 * The engine side — the source and the ProtectionEngine — is built on
 * the producer thread and the DramSystem on the calling one, so the
 * two threads' hot state never shares a cache line. Blocks until both
 * sides finish; the producer is joined on every path, and an
 * exception it throws resurfaces here after the commands recorded
 * before it were timed.
 *
 * The returned RunResult carries the ring's stall and occupancy
 * counters (pipelineProducerWaits / pipelineConsumerWaits /
 * pipelineMaxOccupancy); every other field is bitwise-identical to
 * PerfModel::run on one thread.
 */
RunResult runPipelined(const SourceFactory &make_source,
                       const protection::ProtectionConfig &cfg,
                       const Platform &platform,
                       std::size_t ring_chunks = 8,
                       std::size_t chunk_words = 16384);

} // namespace mgx::sim

#endif // MGX_SIM_PIPELINE_H
