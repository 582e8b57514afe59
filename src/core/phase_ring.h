/**
 * @file
 * Bounded single-producer/single-consumer phase ring: a seam that
 * lets one cell's kernel streaming and replay run on separate
 * threads. The simulator pipelines at the engine/DRAM boundary
 * instead (sim/pipeline.h), where the work divides evenly; this ring
 * stays for the benchmark's traced replica (perfbench/).
 *
 * The ring owns a fixed number of `Phase` slots. push() copies the
 * producer's scratch phase into the next free slot (the slot's
 * std::string / std::vector capacity is reused across the whole run,
 * so a warmed-up ring allocates nothing per phase); pop() copies the
 * oldest slot into the consumer's scratch phase. Both ends block —
 * push() while the ring is full, pop() while it is empty — so the
 * ring is also the pipeline's back-pressure: a fast producer gets at
 * most `capacity` phases ahead of the replay.
 *
 * Because phases cross the ring strictly in production order and the
 * consumer replays them one at a time, a pipelined replay consumes
 * the exact same phase sequence as a serial one — bitwise identity of
 * every model output is preserved by construction (phases only
 * serialize through the perf model's mem_free recurrence, which the
 * consumer alone advances).
 *
 * Shutdown is two-sided so neither thread can deadlock on the other:
 *  - closeProducer() marks the stream complete; pop() drains the
 *    buffered phases and then returns false.
 *  - fail(ptr) is closeProducer() for a producer that threw; pop()
 *    drains the buffered prefix and then rethrows the producer's
 *    exception on the consumer thread.
 *  - closeConsumer() makes every present and future push() return
 *    false, releasing a producer blocked on a full ring when the
 *    consumer stops early.
 */

#ifndef MGX_CORE_PHASE_RING_H
#define MGX_CORE_PHASE_RING_H

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <vector>

#include "phase.h"
#include "phase_stream.h"

namespace mgx::core {

/** Bounded SPSC phase queue with blocking push/pop and shutdown. */
class PhaseRing
{
  public:
    /** Occupancy / stall counters, readable once both sides are done. */
    struct Stats
    {
        u64 phases = 0;        ///< phases that crossed the ring
        u64 producerWaits = 0; ///< push() blocked: ring full (slow consumer)
        u64 consumerWaits = 0; ///< pop() blocked: ring empty (slow producer)
        u64 maxOccupancy = 0;  ///< most phases buffered at once
    };

    /** @param capacity slot count; 0 is clamped to 1. */
    explicit PhaseRing(std::size_t capacity);

    PhaseRing(const PhaseRing &) = delete;
    PhaseRing &operator=(const PhaseRing &) = delete;

    /**
     * Producer: copy @p phase into the ring, blocking while it is
     * full. Returns false once the consumer has closed its end — the
     * producer should stop generating.
     */
    bool push(const Phase &phase);

    /** Producer: the stream is complete; wakes a blocked consumer. */
    void closeProducer();

    /**
     * Producer: the stream failed. pop() rethrows @p error on the
     * consumer thread after the buffered prefix drains. Implies
     * closeProducer().
     */
    void fail(std::exception_ptr error);

    /**
     * Consumer: copy the oldest phase into @p out, blocking while the
     * ring is empty. Returns false once the producer has closed and
     * every buffered phase was delivered; rethrows the producer's
     * exception (see fail()) once the buffered prefix is drained.
     */
    bool pop(Phase &out);

    /**
     * Consumer: no further pop() calls will happen; wakes and turns
     * away a producer blocked on a full ring.
     */
    void closeConsumer();

    std::size_t capacity() const { return slots_.size(); }

    /** Counter snapshot (take after both sides have shut down). */
    Stats stats() const;

  private:
    mutable std::mutex mu_;
    std::condition_variable notFull_;  ///< producer waits here
    std::condition_variable notEmpty_; ///< consumer waits here
    std::vector<Phase> slots_;
    std::size_t head_ = 0;  ///< oldest buffered phase
    std::size_t count_ = 0; ///< buffered phases
    bool producerDone_ = false;
    bool consumerDone_ = false;
    std::exception_ptr error_;
    Stats stats_;
};

/**
 * Producer-side adapter: a PhaseSink that pushes every consumed phase
 * into a ring — plug a Kernel::stream() or FilePhaseSource drain
 * straight into it.
 *
 * When the consumer closes the ring early, consume() throws
 * ConsumerClosed to unwind the producer's drain loop; the producer
 * thread should catch it and treat it as a clean stop.
 */
class RingPushSink final : public PhaseSink
{
  public:
    /** Thrown by consume() once the ring's consumer end is closed. */
    struct ConsumerClosed
    {
    };

    explicit RingPushSink(PhaseRing &ring) : ring_(&ring) {}

    void
    consume(const Phase &phase) override
    {
        if (!ring_->push(phase))
            throw ConsumerClosed{};
    }

  private:
    PhaseRing *ring_;
};

/**
 * Consumer-side adapter: a PhaseSource that pops one phase per
 * nextChunk() through a reused scratch phase — feed it to
 * PerfModel::run(PhaseSource&) and the replay path is unchanged.
 */
class PhaseRingSource final : public PhaseSource
{
  public:
    explicit PhaseRingSource(PhaseRing &ring) : ring_(&ring) {}

    bool
    nextChunk(PhaseSink &sink) override
    {
        if (!ring_->pop(scratch_))
            return false;
        sink.consume(scratch_);
        return true;
    }

  private:
    PhaseRing *ring_;
    Phase scratch_;
};

} // namespace mgx::core

#endif // MGX_CORE_PHASE_RING_H
