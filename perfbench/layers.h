/**
 * @file
 * Per-layer numbers of the traced runs: the traced replica of one
 * simulator cell, and the reduction of its spans and RunResults to the
 * layer metrics (see main.cc for the full list and units).
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "sim/experiment.h"
#include "trace.h"

namespace perfbench {

/** One simulator cell to run traced. */
struct TracedCellSpec
{
    std::string workload;
    mgx::sim::Platform platform;
    mgx::protection::Scheme scheme = mgx::protection::Scheme::NP;
};

/**
 * Run @p cell through makeKernel -> stream -> PerfModel (over the phase
 * ring when @p pipelined) with spans around each call; the result is
 * the cell's RunRecord, identical to Experiment's on every pinned field.
 */
mgx::sim::RunRecord runTracedCell(Tracer &tracer,
                                  const TracedCellSpec &cell,
                                  bool pipelined);

/** Layer times of one traced rep, reduced from its spans. */
struct RepLayers
{
    double wall = 0.0;    ///< the traced rep's wall seconds
    /// Wall seconds of the untraced Experiment rep this one follows: the
    /// base of experiment.pool_efficiency, so a change to Experiment's
    /// own cell pool shows there.
    double untracedWall = 0.0;
    unsigned threads = 0; ///< cells run at once
    std::vector<double> cellSeconds;
    double makeSeconds = 0.0;   ///< in sim::makeKernel
    double genSeconds = 0.0;    ///< kernel nextChunk self time
    double replaySeconds = 0.0; ///< replay.consume + replay.flush
    std::array<double, 5> replayBySchemeSeconds{}; ///< by Scheme value
    std::uint64_t phases = 0;   ///< phases replayed
    std::uint64_t spans = 0;
};

RepLayers aggregateSpans(const std::vector<Span> &spans, double wall,
                         unsigned threads);

/**
 * experiment.* (when @p withPool), kernel.*, replay.*, protection.*,
 * dram.* and meta_cache.* from the traced reps and one rep's records.
 */
void fillSimLayers(const std::vector<RepLayers> &reps,
                   const std::vector<mgx::sim::RunRecord> &records,
                   bool withPool, Report &rep);

/** trace.* for a simulator workload: traced rep wall vs untraced. */
void fillTraceOverhead(double untracedWall,
                       const std::vector<RepLayers> &reps, Report &rep);

/** Write the spans of the last traced rep under opt.outDir. */
void writeSpanFile(const Options &opt, const std::vector<Span> &spans,
                   Report &rep);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
