#include "perf_model.h"

#include <algorithm>
#include <cmath>

namespace mgx::sim {

PerfModel::PerfModel(protection::ProtectionEngine *engine,
                     double accel_mhz, double ctrl_mhz)
    : engine_(engine), accelMhz_(accel_mhz), ctrlMhz_(ctrl_mhz)
{
}

Cycles
PerfModel::toCtrl(Cycles accel_cycles) const
{
    return static_cast<Cycles>(
        std::ceil(static_cast<double>(accel_cycles) * ctrlMhz_ /
                  accelMhz_));
}

void
PerfModel::step(Replay &rep, Cycles compute_cycles,
                std::span<const core::LogicalAccess> accesses)
{
    const Cycles issue = rep.memFree;
    Cycles data_ready = issue;
    for (const auto &acc : accesses)
        data_ready = std::max(data_ready, engine_->access(acc, issue));
    rep.memBusy += data_ready - issue;
    rep.memFree = data_ready;

    const Cycles compute = toCtrl(compute_cycles);
    const Cycles start = std::max(data_ready, rep.computeDone);
    rep.computeDone = start + compute;
    rep.computeTotal += compute;
}

RunResult
PerfModel::finish(const Replay &rep, u64 trace_bytes,
                  u64 peak_phase_bytes)
{
    const Cycles flushed = engine_->flush(rep.memFree);
    RunResult result;
    result.totalCycles = std::max(rep.computeDone, flushed);
    result.computeCycles = rep.computeTotal;
    result.memoryCycles = rep.memBusy;
    result.traffic = engine_->traffic();
    result.dramAccesses = engine_->dram().accessCount();
    result.logicalAccesses = engine_->logicalAccesses();
    result.traceBytes = trace_bytes;
    result.peakPhaseBytes = peak_phase_bytes;
    result.metaCacheHits = engine_->metaCache().hits();
    result.metaCacheMisses = engine_->metaCache().misses();
    result.metaCacheWritebacks = engine_->metaCache().writebacks();
    result.seconds =
        static_cast<double>(result.totalCycles) / (ctrlMhz_ * 1e6);
    return result;
}

RunResult
PerfModel::run(const core::Trace &trace)
{
    Replay rep;
    for (const auto &phase : trace)
        step(rep, phase.computeCycles, phase.accesses);
    // The whole trace is resident while it replays.
    return finish(rep, trace.memoryBytes(), trace.memoryBytes());
}

/** Feeds each streamed phase into step() the moment it arrives. */
class PerfModel::StreamSink final : public core::PhaseSink
{
  public:
    StreamSink(PerfModel &model, Replay &rep)
        : model_(&model), rep_(&rep)
    {
    }

    void
    consume(const core::Phase &phase) override
    {
        model_->step(*rep_, phase.computeCycles,
                     {phase.accesses.data(), phase.accesses.size()});
        const u64 bytes = core::phaseArenaBytes(phase);
        streamedBytes_ += bytes;
        peakBytes_ = std::max(peakBytes_, bytes);
    }

    u64 streamedBytes() const { return streamedBytes_; }
    u64 peakBytes() const { return peakBytes_; }

  private:
    PerfModel *model_;
    Replay *rep_;
    u64 streamedBytes_ = 0; ///< arena bytes a materialization would hold
    u64 peakBytes_ = 0;     ///< largest phase buffer seen at once
};

RunResult
PerfModel::run(core::PhaseSource &source)
{
    Replay rep;
    StreamSink sink(*this, rep);
    source.drainTo(sink);
    return finish(rep, sink.streamedBytes(), sink.peakBytes());
}

} // namespace mgx::sim
