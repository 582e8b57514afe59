/**
 * @file
 * Bounded single-producer/single-consumer slot queue: the blocking
 * handoff and two-sided shutdown under both of the simulator's rings
 * (core::PhaseRing and sim::CommandRing), each of which keeps one slot
 * of payload per index the queue hands out.
 *
 * The producer acquire()s the next free slot, fills it and publish()es
 * it; the consumer take()s the oldest published slot, reads it and
 * release()s it, so each side owns a slot alone in between. acquire()
 * blocks while every slot is published or taken and take() while none
 * is published: the producer runs at most `slots` slots ahead.
 *
 * Shutdown is two-sided so neither thread can deadlock on the other:
 * closeProducer() ends the stream once the published slots are taken;
 * fail() does the same and then rethrows the producer's exception from
 * take() on the consumer thread; closeConsumer() makes every present
 * and future acquire() return false, releasing a blocked producer.
 */

#ifndef MGX_COMMON_SLOT_QUEUE_H
#define MGX_COMMON_SLOT_QUEUE_H

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <utility>

#include "types.h"

namespace mgx {

/** Bounded SPSC queue of slot indices with blocking ends and shutdown. */
class SlotQueue
{
  public:
    /** Occupancy / stall counters, readable once both sides are done. */
    struct Stats
    {
        u64 published = 0;     ///< slots handed to the consumer
        u64 producerWaits = 0; ///< acquire() blocked: queue full
        u64 consumerWaits = 0; ///< take() blocked: queue empty
        u64 maxOccupancy = 0;  ///< most slots published or taken at once
    };

    /** @param slots slot count; 0 is clamped to 1. */
    explicit SlotQueue(std::size_t slots)
        : slots_(std::max<std::size_t>(slots, 1))
    {
    }

    std::size_t slots() const { return slots_; }

    /** Producer: the next free slot, once there is one; false once
     *  the consumer has closed. */
    bool
    acquire(std::size_t &slot)
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (count_ == slots_ && !consumerDone_) {
            ++stats_.producerWaits;
            notFull_.wait(lock,
                          [this] { return count_ < slots_ || consumerDone_; });
        }
        // The producer alone adds to count_, so this slot stays free
        // until it publishes.
        slot = (head_ + count_) % slots_;
        return !consumerDone_;
    }

    /** Producer: hand the acquired slot to the consumer. */
    void
    publish()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++count_;
            ++stats_.published;
            stats_.maxOccupancy = std::max<u64>(stats_.maxOccupancy, count_);
        }
        notEmpty_.notify_one();
    }

    /** Producer: the stream is complete. */
    void closeProducer() { fail(nullptr); }

    /** Producer: the stream failed with @p error (see above). */
    void
    fail(std::exception_ptr error)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (error)
                error_ = std::move(error);
            producerDone_ = true;
        }
        notEmpty_.notify_one();
    }

    /** Consumer: the oldest published slot, once there is one; false
     *  at the end of the stream, or the producer's exception then. */
    bool
    take(std::size_t &slot)
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (count_ == 0 && !producerDone_) {
            ++stats_.consumerWaits;
            notEmpty_.wait(lock,
                           [this] { return count_ > 0 || producerDone_; });
        }
        if (count_ == 0 && error_)
            std::rethrow_exception(error_);
        slot = head_;
        return count_ > 0;
    }

    /** Consumer: hand the taken slot back to the producer. */
    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            head_ = (head_ + 1) % slots_;
            --count_;
        }
        notFull_.notify_one();
    }

    /** Consumer: no further take(); turns the producer away. */
    void
    closeConsumer()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            consumerDone_ = true;
        }
        notFull_.notify_one();
    }

    /** Counter snapshot (take after both sides have shut down). */
    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return stats_;
    }

  private:
    const std::size_t slots_;
    mutable std::mutex mu_;
    std::condition_variable notFull_;  ///< producer waits here
    std::condition_variable notEmpty_; ///< consumer waits here
    std::size_t head_ = 0;  ///< oldest published (or taken) slot
    std::size_t count_ = 0; ///< slots published or taken
    bool producerDone_ = false;
    bool consumerDone_ = false;
    std::exception_ptr error_;
    Stats stats_;
};

} // namespace mgx

#endif // MGX_COMMON_SLOT_QUEUE_H
