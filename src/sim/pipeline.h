/**
 * @file
 * Pipelined single-cell replay: one workload x scheme cell split onto
 * two threads at the engine/DRAM boundary.
 *
 * In MGX the protection unit works out which metadata lines an access
 * needs from on-chip state alone; DRAM timing only decides when those
 * lines arrive (paper Fig. 2). So a producer thread runs the phase
 * source and the ProtectionEngine's expansion, recording every DRAM
 * command into the chunks of a bounded SPSC CommandRing
 * (dram/command_log.h). The calling thread owns the DramSystem: it
 * times the commands as they arrive, at their phase's issue cycle,
 * through the same accessRange / accessBatch calls, and runs the
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
 * depend on when the timer runs; and the timer issues the engine's
 * commands in the engine's order, so every channel sees the same
 * command stream. Only RunResult::pipeline* (ring stalls and
 * occupancy, in chunks) depend on thread scheduling.
 */

#ifndef MGX_SIM_PIPELINE_H
#define MGX_SIM_PIPELINE_H

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/phase_stream.h"
#include "runner.h"

namespace mgx::sim {

/**
 * Bounded SPSC ring of command-log chunks: the seam between the
 * engine thread and the DRAM timer. The producer fills the chunk
 * acquire() hands it and publishes it; the consumer take()s the
 * oldest published chunk and release()s it once timed. Both ends
 * block — acquire() while every chunk is published or being timed,
 * take() while none is published — so the ring is also the
 * back-pressure: the engine runs at most `chunks` chunks ahead.
 *
 * Shutdown is two-sided, as for core::PhaseRing: closeProducer() ends
 * the stream after the published chunks; fail() does the same and
 * then rethrows the producer's exception from take(); closeConsumer()
 * makes acquire() return nullptr from then on.
 */
class alignas(64) CommandRing
{
  public:
    /** Occupancy / stall counters, readable once both sides are done. */
    struct Stats
    {
        u64 producerWaits = 0; ///< acquire() blocked: ring full
        u64 consumerWaits = 0; ///< take() blocked: ring empty
        u64 maxOccupancy = 0;  ///< most chunks published or in timing
    };

    /**
     * @param chunks       chunks in the ring (0 is clamped to 1)
     * @param chunk_words  8-byte words per chunk (clamped to >= 2, so a
     *                     two-word command always fits)
     */
    CommandRing(std::size_t chunks, std::size_t chunk_words);

    CommandRing(const CommandRing &) = delete;
    CommandRing &operator=(const CommandRing &) = delete;

    /**
     * Producer: the next chunk to fill (chunkWords() words), blocking
     * while the ring is full; nullptr once the consumer has closed.
     */
    u64 *acquire();

    /** Producer: publish the first @p words words of the acquired chunk. */
    void publish(std::size_t words);

    /** Producer: the stream is complete; wakes a blocked consumer. */
    void closeProducer();

    /**
     * Producer: the stream failed. take() rethrows @p error once the
     * published chunks are drained. Implies closeProducer().
     */
    void fail(std::exception_ptr error);

    /**
     * Consumer: the oldest published chunk, blocking while there is
     * none. Returns false once the producer has closed and every chunk
     * was taken; rethrows the producer's exception (see fail()) then.
     */
    bool take(std::span<const u64> &words);

    /** Consumer: hand the taken chunk back to the producer. */
    void release();

    /**
     * Consumer: no further take() calls will happen; wakes and turns
     * away a producer blocked in acquire().
     */
    void closeConsumer();

    std::size_t chunkWords() const { return chunkWords_; }

    /** Counter snapshot (take after both sides have shut down). */
    Stats stats() const;

  private:
    const std::size_t slots_;
    const std::size_t chunkWords_;
    std::unique_ptr<u64[]> words_;   ///< slots_ x chunkWords_
    std::vector<std::size_t> sizes_; ///< published words per slot
    mutable std::mutex mu_;
    std::condition_variable notFull_;  ///< producer waits here
    std::condition_variable notEmpty_; ///< consumer waits here
    std::size_t head_ = 0;  ///< oldest published slot
    std::size_t count_ = 0; ///< slots published or in timing
    bool producerDone_ = false;
    bool consumerDone_ = false;
    std::exception_ptr error_;
    Stats stats_;
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
