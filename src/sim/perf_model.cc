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

void
PerfModel::step(PhaseClock &clock, Cycles compute_cycles,
                std::span<const core::LogicalAccess> accesses)
{
    const Cycles issue = clock.issue();
    Cycles data_ready = issue;
    for (const auto &acc : accesses)
        data_ready = std::max(data_ready, engine_->access(acc, issue));
    clock.close(data_ready, compute_cycles);
}

RunResult
PerfModel::finish(const PhaseClock &clock, u64 trace_bytes,
                  u64 peak_phase_bytes)
{
    RunResult result;
    clock.finish(engine_->flush(clock.issue()), result);
    recordEngineCounters(*engine_, result);
    result.dramAccesses = engine_->dram().accessCount();
    result.traceBytes = trace_bytes;
    result.peakPhaseBytes = peak_phase_bytes;
    return result;
}

RunResult
PerfModel::run(const core::Trace &trace)
{
    PhaseClock clock(accelMhz_, ctrlMhz_);
    for (const auto &phase : trace)
        step(clock, phase.computeCycles, phase.accesses);
    // The whole trace is resident while it replays.
    return finish(clock, trace.memoryBytes(), trace.memoryBytes());
}

/** Feeds each streamed phase into step() the moment it arrives. */
class PerfModel::StreamSink final : public core::PhaseSink
{
  public:
    StreamSink(PerfModel &model, PhaseClock &clock)
        : model_(&model), clock_(&clock)
    {
    }

    void
    consume(const core::Phase &phase) override
    {
        model_->step(*clock_, phase.computeCycles,
                     {phase.accesses.data(), phase.accesses.size()});
        footprint_.add(phase);
    }

    const core::PhaseFootprint &footprint() const { return footprint_; }

  private:
    PerfModel *model_;
    PhaseClock *clock_;
    core::PhaseFootprint footprint_;
};

RunResult
PerfModel::run(core::PhaseSource &source)
{
    PhaseClock clock(accelMhz_, ctrlMhz_);
    StreamSink sink(*this, clock);
    source.drainTo(sink);
    return finish(clock, sink.footprint().streamedBytes,
                  sink.footprint().peakBytes);
}

} // namespace mgx::sim
