#include "pipeline.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <thread>

#include "dram/command_log.h"

namespace mgx::sim {

CommandRing::CommandRing(std::size_t chunks, std::size_t chunk_words)
    : slots_(std::max<std::size_t>(chunks, 1)),
      chunkWords_(std::max<std::size_t>(chunk_words, 2)),
      // Left uninitialized: a chunk's words are read only after the
      // producer wrote them, and untouched pages cost nothing.
      words_(std::make_unique_for_overwrite<u64[]>(slots_ * chunkWords_)),
      sizes_(slots_)
{
}

u64 *
CommandRing::acquire()
{
    std::unique_lock<std::mutex> lock(mu_);
    if (count_ == slots_ && !consumerDone_) {
        ++stats_.producerWaits;
        notFull_.wait(lock,
                      [this] { return count_ < slots_ || consumerDone_; });
    }
    if (consumerDone_)
        return nullptr;
    // The producer alone adds to count_, so this slot stays free until
    // it publishes.
    return words_.get() + (head_ + count_) % slots_ * chunkWords_;
}

void
CommandRing::publish(std::size_t words)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        sizes_[(head_ + count_) % slots_] = words;
        ++count_;
        stats_.maxOccupancy = std::max<u64>(stats_.maxOccupancy, count_);
    }
    notEmpty_.notify_one();
}

void
CommandRing::closeProducer()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        producerDone_ = true;
    }
    notEmpty_.notify_one();
}

void
CommandRing::fail(std::exception_ptr error)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        error_ = std::move(error);
        producerDone_ = true;
    }
    notEmpty_.notify_one();
}

bool
CommandRing::take(std::span<const u64> &words)
{
    std::unique_lock<std::mutex> lock(mu_);
    if (count_ == 0 && !producerDone_) {
        ++stats_.consumerWaits;
        notEmpty_.wait(lock,
                       [this] { return count_ > 0 || producerDone_; });
    }
    if (count_ == 0) {
        if (error_)
            std::rethrow_exception(error_);
        return false;
    }
    words = {words_.get() + head_ * chunkWords_, sizes_[head_]};
    return true;
}

void
CommandRing::release()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        head_ = (head_ + 1) % slots_;
        --count_;
    }
    notFull_.notify_one();
}

void
CommandRing::closeConsumer()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        consumerDone_ = true;
    }
    notFull_.notify_one();
}

CommandRing::Stats
CommandRing::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
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
 * The DRAM side: times recorded commands as they arrive, at their
 * phase's issue cycle, and closes each phase on the PhaseClock when
 * the next mark shows all of its commands were timed.
 */
class CommandTimer
{
  public:
    CommandTimer(dram::DramSystem &dram, PhaseClock &clock,
                 Cycles crypto_latency)
        : dram_(&dram), clock_(&clock), cryptoLatency_(crypto_latency)
    {
    }

    void
    time(std::span<const u64> words)
    {
        namespace cmd = dram::cmd;
        for (std::size_t i = 0; i < words.size(); ++i) {
            const u64 w = words[i];
            switch (cmd::kind(w)) {
              case cmd::kLine: {
                // Lines queue up for one accessBatch, which serves them
                // in order exactly as per-line access() would.
                const bool crypto = cmd::isCrypto(w);
                if (numLines_ == lines_.size() ||
                    (numLines_ != 0 && crypto != linesCrypto_))
                    timeLines();
                linesCrypto_ = crypto;
                lines_[numLines_++] = {cmd::addr(w), cmd::isWrite(w),
                                       issue_};
                break;
              }
              case cmd::kRange:
                timeLines();
                fold(dram_->accessRange(cmd::addr(w), words[i + 1],
                                        cmd::isWrite(w), issue_),
                     cmd::isCrypto(w));
                ++i;
                break;
              default: // cmd::kMark
                timeLines();
                beginSection(cmd::markCode(w), words[i + 1]);
                ++i;
                break;
            }
        }
    }

    /** Completion of the end-of-run flush, once every chunk is timed. */
    Cycles
    flushed()
    {
        timeLines();
        assert(!inPhase_ && "the engine thread always records a flush");
        return ready_;
    }

  private:
    void
    fold(Cycles done, bool crypto)
    {
        ready_ = std::max(ready_, crypto ? done + cryptoLatency_ : done);
    }

    void
    timeLines()
    {
        if (numLines_ == 0)
            return;
        fold(dram_->accessBatch({lines_.data(), numLines_}), linesCrypto_);
        numLines_ = 0;
    }

    /** Close the open phase; start the phase or flush marked @p code. */
    void
    beginSection(u64 code, u64 payload)
    {
        if (inPhase_)
            clock_->close(ready_, compute_);
        issue_ = clock_->issue();
        ready_ = issue_;
        inPhase_ = code == kPhaseMark;
        compute_ = payload;
    }

    dram::DramSystem *dram_;
    PhaseClock *clock_;
    Cycles cryptoLatency_;
    Cycles issue_ = 0;   ///< issue cycle of the open section
    Cycles ready_ = 0;   ///< its data_ready so far
    Cycles compute_ = 0; ///< the open phase's compute (accelerator cycles)
    bool inPhase_ = false;
    // Pending lines, timed in batches of at most 64 as they arrive:
    // holding a phase's lines until its end would stall both threads.
    std::array<dram::Request, 64> lines_;
    std::size_t numLines_ = 0;
    bool linesCrypto_ = false;
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
