#include "pipeline.h"

#include <algorithm>
#include <cassert>
#include <thread>

#include "dram/command_log.h"

namespace mgx::sim {

CommandRing::CommandRing(std::size_t chunks, std::size_t chunk_words)
    : SlotQueue(chunks), chunkWords_(std::max<std::size_t>(chunk_words, 2)),
      // Left uninitialized: a chunk's words are read only after the
      // producer wrote them, and untouched pages cost nothing.
      words_(std::make_unique_for_overwrite<u64[]>(slots() * chunkWords_)),
      sizes_(slots())
{
}

u64 *
CommandRing::acquire()
{
    if (!SlotQueue::acquire(filling_))
        return nullptr;
    return words_.get() + filling_ * chunkWords_;
}

void
CommandRing::publish(std::size_t words)
{
    sizes_[filling_] = words;
    SlotQueue::publish();
}

bool
CommandRing::take(std::span<const u64> &words)
{
    std::size_t slot = 0;
    if (!SlotQueue::take(slot))
        return false;
    words = {words_.get() + slot * chunkWords_, sizes_[slot]};
    return true;
}

namespace {

// Mark codes of the split's command log.
constexpr u64 kPhaseMark = 0; ///< a phase begins; payload: compute cycles
constexpr u64 kFlushMark = 1; ///< the end-of-run metadata flush begins

/** The engine thread's end of the ring. */
class RingRecorder final : public dram::CommandRecorder
{
  public:
    /** Thrown once the timer has closed its end of the ring. */
    struct ConsumerClosed
    {
    };

    RingRecorder(CommandRing &ring, u32 block_bytes)
        : CommandRecorder(block_bytes), ring_(&ring)
    {
        startChunk();
    }

    /** Publish the last, partly filled chunk. */
    void
    finish()
    {
        if (pos_ != begin_)
            ring_->publish(static_cast<std::size_t>(pos_ - begin_));
    }

  private:
    void
    nextChunk() override
    {
        ring_->publish(static_cast<std::size_t>(pos_ - begin_));
        startChunk();
    }

    void
    startChunk()
    {
        begin_ = ring_->acquire();
        if (begin_ == nullptr)
            throw ConsumerClosed{};
        pos_ = begin_;
        end_ = begin_ + ring_->chunkWords();
    }

    CommandRing *ring_;
    u64 *begin_ = nullptr;
};

/** Expands each phase into recorded commands, behind a phase mark. */
class ExpandSink final : public core::PhaseSink
{
  public:
    ExpandSink(protection::ProtectionEngine &engine,
               RingRecorder &recorder)
        : engine_(&engine), recorder_(&recorder)
    {
    }

    void
    consume(const core::Phase &phase) override
    {
        recorder_->mark(kPhaseMark, phase.computeCycles);
        // The issue cycle is the timer's to know; a recording engine
        // never reads it.
        for (const auto &acc : phase.accesses)
            engine_->access(acc, 0);
        footprint_.add(phase);
    }

    const core::PhaseFootprint &footprint() const { return footprint_; }

  private:
    protection::ProtectionEngine *engine_;
    RingRecorder *recorder_;
    core::PhaseFootprint footprint_;
};

/**
 * The DRAM side: plays recorded commands as they arrive, at their
 * phase's issue cycle, and closes each phase on the PhaseClock when
 * the next mark shows all of its commands were timed.
 */
class CommandTimer
{
  public:
    CommandTimer(dram::DramSystem &dram, PhaseClock &clock,
                 Cycles crypto_latency)
        : player_(dram, crypto_latency), clock_(&clock)
    {
    }

    void
    time(std::span<const u64> words)
    {
        // The player takes the Line and Range words; it stops at each
        // Mark, which opens the next section.
        std::size_t i = 0;
        while ((i += player_.play(words.subspan(i))) < words.size()) {
            beginSection(dram::cmd::markCode(words[i]), words[i + 1]);
            i += 2;
        }
    }

    /** Completion of the end-of-run flush, once every chunk is timed. */
    Cycles
    flushed() const
    {
        assert(!inPhase_ && "the engine thread always records a flush");
        return player_.ready();
    }

  private:
    /** Close the open phase; start the phase or flush marked @p code. */
    void
    beginSection(u64 code, u64 payload)
    {
        if (inPhase_)
            clock_->close(player_.ready(), compute_);
        player_.start(clock_->issue());
        inPhase_ = code == kPhaseMark;
        compute_ = payload;
    }

    dram::CommandPlayer player_;
    PhaseClock *clock_;
    Cycles compute_ = 0; ///< the open phase's compute (accelerator cycles)
    bool inPhase_ = false;
};

} // namespace

RunResult
runPipelined(const SourceFactory &make_source,
             const protection::ProtectionConfig &cfg,
             const Platform &platform, std::size_t ring_chunks,
             std::size_t chunk_words)
{
    CommandRing ring(ring_chunks, chunk_words);
    // DRAM side, on this thread.
    dram::DramSystem dram(platform.dram);
    PhaseClock clock(platform.clockMhz, kDefaultCtrlMhz);

    // Engine side: everything it touches per access is built on its
    // own thread. Every exit path closes the ring so the timer can
    // never block forever; a throwing producer hands its exception to
    // the timer via fail().
    RunResult engineSide;
    std::thread producer([&] {
        try {
            RingRecorder recorder(ring, platform.dram.accessBytes());
            protection::ProtectionEngine engine(cfg, &recorder);
            std::unique_ptr<core::PhaseSource> source = make_source();
            ExpandSink sink(engine, recorder);
            source->drainTo(sink);
            recorder.mark(kFlushMark, 0);
            engine.flush(0);
            recorder.finish();
            recordEngineCounters(engine, engineSide);
            engineSide.traceBytes = sink.footprint().streamedBytes;
            engineSide.peakPhaseBytes = sink.footprint().peakBytes;
            ring.closeProducer();
        } catch (const RingRecorder::ConsumerClosed &) {
            ring.closeProducer(); // timer stopped early: clean exit
        } catch (...) {
            ring.fail(std::current_exception());
        }
    });

    Cycles flushed = 0;
    try {
        CommandTimer timer(dram, clock, cfg.cryptoLatency);
        std::span<const u64> words;
        while (ring.take(words)) {
            timer.time(words);
            ring.release();
        }
        flushed = timer.flushed();
    } catch (...) {
        // The producer's exception resurfaced from take() (or timing
        // failed): release and join the producer before rethrowing so
        // no thread outlives the call.
        ring.closeConsumer();
        producer.join();
        throw;
    }
    ring.closeConsumer();
    producer.join();

    RunResult result = engineSide;
    clock.finish(flushed, result);
    result.dramAccesses = dram.accessCount();
    const CommandRing::Stats stats = ring.stats();
    result.pipelineProducerWaits = stats.producerWaits;
    result.pipelineConsumerWaits = stats.consumerWaits;
    result.pipelineMaxOccupancy = stats.maxOccupancy;
    return result;
}

} // namespace mgx::sim
