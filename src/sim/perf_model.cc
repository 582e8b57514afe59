#include "perf_model.h"

#include <algorithm>
#include <cmath>

namespace mgx::sim {

PhaseClock::PhaseClock(double accel_mhz, double ctrl_mhz)
    : accelMhz_(accel_mhz), ctrlMhz_(ctrl_mhz)
{
}

Cycles
PhaseClock::toCtrl(Cycles accel_cycles) const
{
    return static_cast<Cycles>(
        std::ceil(static_cast<double>(accel_cycles) * ctrlMhz_ /
                  accelMhz_));
}

void
PhaseClock::close(Cycles data_ready, Cycles compute_cycles)
{
    memBusy_ += data_ready - memFree_;
    memFree_ = data_ready;

    const Cycles compute = toCtrl(compute_cycles);
    const Cycles start = std::max(data_ready, computeDone_);
    computeDone_ = start + compute;
    computeTotal_ += compute;
}

void
PhaseClock::finish(Cycles flushed, RunResult &result) const
{
    result.totalCycles = std::max(computeDone_, flushed);
    result.computeCycles = computeTotal_;
    result.memoryCycles = memBusy_;
    result.seconds =
        static_cast<double>(result.totalCycles) / (ctrlMhz_ * 1e6);
}

void
recordEngineCounters(const protection::ProtectionEngine &engine,
                     RunResult &result)
{
    result.traffic = engine.traffic();
    result.logicalAccesses = engine.logicalAccesses();
    result.metaCacheHits = engine.metaCache().hits();
    result.metaCacheMisses = engine.metaCache().misses();
    result.metaCacheWritebacks = engine.metaCache().writebacks();
}

PerfModel::PerfModel(protection::ProtectionEngine *engine,
                     double accel_mhz, double ctrl_mhz)
    : engine_(engine), accelMhz_(accel_mhz), ctrlMhz_(ctrl_mhz)
{
}

namespace {

/**
 * Replays each streamed phase the moment it arrives: the serialized
 * memory stream plus the overlap rule.
 */
class StreamSink final : public core::PhaseSink
{
  public:
    StreamSink(protection::ProtectionEngine &engine, PhaseClock &clock)
        : engine_(&engine), clock_(&clock)
    {
    }

    void
    consume(const core::Phase &phase) override
    {
        const Cycles issue = clock_->issue();
        Cycles data_ready = issue;
        for (const auto &acc : phase.accesses)
            data_ready =
                std::max(data_ready, engine_->access(acc, issue));
        clock_->close(data_ready, phase.computeCycles);
        footprint_.add(phase);
    }

    const core::PhaseFootprint &footprint() const { return footprint_; }

  private:
    protection::ProtectionEngine *engine_;
    PhaseClock *clock_;
    core::PhaseFootprint footprint_;
};

} // namespace

RunResult
PerfModel::run(core::PhaseSource &source)
{
    PhaseClock clock(accelMhz_, ctrlMhz_);
    StreamSink sink(*engine_, clock);
    source.drainTo(sink);

    RunResult result;
    clock.finish(engine_->flush(clock.issue()), result);
    recordEngineCounters(*engine_, result);
    result.dramAccesses = engine_->dram().accessCount();
    result.traceBytes = sink.footprint().streamedBytes;
    result.peakPhaseBytes = sink.footprint().peakBytes;
    return result;
}

} // namespace mgx::sim
