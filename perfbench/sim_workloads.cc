/**
 * @file
 * The simulator workloads — paper_grid (all 215 listWorkloads() x
 * scheme cells through one Experiment) and scaled_pokec (the oversized
 * random-gather PageRank cell, NP then BP, each its own single-cell
 * Experiment) — plus the traced replica of a cell that the per-layer
 * numbers come from, and the reference writer.
 *
 * The traced replica makes the same public calls Experiment makes for
 * a streamed cell (makeKernel -> Kernel::stream -> PerfModel::run, or
 * the phase-ring pipeline for a single cell) with spans around each:
 *
 *   cell            one grid cell, tag = scheme
 *   kernel.make     sim::makeKernel
 *   kernel.next     the kernel source's nextChunk; its self time is
 *                   phase generation (the sink call is a child)
 *   replay.consume  the perf model's sink: PerfModel -> protection ->
 *                   DRAM for one phase
 *   replay.flush    end of the stream to PerfModel::run's return (the
 *                   final metadata flush)
 *   ring.push       pipelined producer handing a phase to the ring
 *   ring.next       pipelined consumer's nextChunk (ring wait + replay)
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/phase_ring.h"
#include "dram/dram_system.h"
#include "host.h"
#include "layers.h"
#include "reference.h"
#include "sim/report.h"
#include "sim/workload_registry.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using namespace mgx;

const char *const kScaledPokec =
    "graph/pokec/pagerank?scale=1&vector=random";

namespace {

/** Sink wrapper: one span per consumed phase. */
class TracedSink final : public core::PhaseSink
{
  public:
    TracedSink(core::PhaseSink &inner, Tracer &tracer, const char *name,
               std::uint64_t parent, std::uint32_t tag)
        : inner_(&inner), tracer_(&tracer), name_(name), parent_(parent),
          tag_(tag)
    {
    }

    void
    consume(const core::Phase &phase) override
    {
        ScopedSpan span(*tracer_, name_, parent_, 0, tag_);
        inner_->consume(phase);
    }

  private:
    core::PhaseSink *inner_;
    Tracer *tracer_;
    const char *name_;
    std::uint64_t parent_;
    std::uint32_t tag_;
};

/** Source wrapper: one span per nextChunk, the sink wrapped inside. */
class TracedSource final : public core::PhaseSource
{
  public:
    TracedSource(core::PhaseSource &inner, Tracer &tracer,
                 const char *name, const char *sinkName,
                 std::uint64_t parent, std::uint32_t tag)
        : inner_(&inner), tracer_(&tracer), name_(name),
          sinkName_(sinkName), parent_(parent), tag_(tag)
    {
    }

    bool
    nextChunk(core::PhaseSink &sink) override
    {
        ScopedSpan span(*tracer_, name_, parent_, 0, tag_);
        TracedSink traced(sink, *tracer_, sinkName_, span.id(), tag_);
        const bool more = inner_->nextChunk(traced);
        if (!more)
            doneNs_ = nowNs();
        return more;
    }

    /** When the stream reported exhaustion. */
    std::int64_t doneNs() const { return doneNs_; }

  private:
    core::PhaseSource *inner_;
    Tracer *tracer_;
    const char *name_;
    const char *sinkName_;
    std::uint64_t parent_;
    std::uint32_t tag_;
    std::int64_t doneNs_ = 0;
};

void
recordFlush(Tracer &tracer, std::int64_t from, std::uint64_t parent,
            std::uint32_t tag)
{
    Span span;
    span.name = "replay.flush";
    span.id = tracer.newId();
    span.parent = parent;
    span.tag = tag;
    span.startNs = from;
    span.endNs = nowNs();
    tracer.record(span);
}

/** Load the committed cell reference or end the run. */
Reference
loadCells(const Options &opt)
{
    Reference ref;
    std::string error;
    if (!loadReference(opt.referenceDir + "/cells.tsv", &ref, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        std::exit(1);
    }
    return ref;
}

void
checkRecords(const std::vector<sim::RunRecord> &records,
             const Reference &ref, Report &rep)
{
    for (const sim::RunRecord &r : records) {
        const auto diffs = compareCell(ref, cellOutputs(r));
        rep.check(diffs.empty(), diffs.empty() ? "" : diffs.front());
    }
}

/** The cells of @p workloads x allSchemes(), in Experiment's order. */
std::vector<TracedCellSpec>
gridCells(const std::vector<std::string> &workloads,
          const std::vector<protection::Scheme> &schemes)
{
    std::vector<TracedCellSpec> cells;
    for (const auto &w : workloads)
        for (protection::Scheme s : schemes)
            cells.push_back({w, sim::defaultPlatform(w), s});
    return cells;
}

/** Set-ups of @p body (no state kept) spread over the run. */
template <typename Body>
SetupSchedule
timedSetups(const Options &opt, const Body &body)
{
    return SetupSchedule(opt.seconds, [body] {
        const double t0 = wallSeconds();
        body();
        return wallSeconds() - t0;
    });
}

/** Geomean over @p values (all > 0). */
double
geomean(const std::vector<double> &values)
{
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return values.empty() ? 0.0
                          : std::exp(logSum /
                                     static_cast<double>(values.size()));
}

/** The model-accuracy line: simulated per-domain overheads beside the
 *  paper's averages. Reported, never gated. */
void
accuracyLines(const sim::ResultSet &rs, Report &rep)
{
    struct PaperAverages
    {
        const char *domain;
        double mgx, bp; ///< paper's average normalized-time overhead
    };
    static const PaperAverages kPaper[] = {{"dnn", 0.04, 0.28},
                                           {"graph", 0.05, 0.33}};
    for (const auto &[domain, paperMgx, paperBp] : kPaper) {
        std::vector<double> mgx, bp;
        for (const auto &w : rs.workloads()) {
            if (w.rfind(std::string(domain) + "/", 0) != 0)
                continue;
            for (const auto &p : rs.platforms()) {
                if (auto t = rs.normalizedTime(w, p,
                                               protection::Scheme::MGX))
                    mgx.push_back(*t);
                if (auto t = rs.normalizedTime(w, p,
                                               protection::Scheme::BP))
                    bp.push_back(*t);
            }
        }
        char line[256];
        std::snprintf(line, sizeof line,
                      "model accuracy (simulated time, not gated) %s: "
                      "MGX +%.1f%% (paper +%.0f%%), BP +%.1f%% (paper "
                      "+%.0f%%) over %zu workloads",
                      domain, (geomean(mgx) - 1.0) * 100.0,
                      paperMgx * 100.0, (geomean(bp) - 1.0) * 100.0,
                      paperBp * 100.0, mgx.size());
        rep.lines.push_back(line);
    }
    rep.lines.push_back(
        "model accuracy: the model is validated only against these "
        "averages reported by the MGX paper, not against per-workload "
        "measurements");
}

u64
totalDramAccesses(const std::vector<sim::RunRecord> &records)
{
    u64 n = 0;
    for (const auto &r : records)
        n += r.result.dramAccesses;
    return n;
}

/** Pipeline counters of an untraced rep (scheduling-dependent). */
void
pipelineLayers(const std::vector<sim::RunRecord> &records, Report &rep)
{
    u64 producer = 0, consumer = 0, occupancy = 0;
    for (const auto &r : records) {
        producer += r.result.pipelineProducerWaits;
        consumer += r.result.pipelineConsumerWaits;
        occupancy = std::max(occupancy, r.result.pipelineMaxOccupancy);
    }
    rep.layers["pipeline.producer_waits"] = static_cast<double>(producer);
    rep.layers["pipeline.consumer_waits"] = static_cast<double>(consumer);
    rep.layers["pipeline.max_occupancy"] = static_cast<double>(occupancy);
}

/**
 * The measured part shared by the simulator workloads: untraced reps
 * (the gated numbers) until the run's time is up, each followed under
 * --trace 1 by a traced rep of the same cells, so both see the same
 * host conditions. @p untraced and @p traced return the rep's records;
 * @p setups run between reps.
 */
template <typename Untraced, typename Traced>
void
measureSim(const Options &opt, const Reference &ref, unsigned poolThreads,
           SetupSchedule &setups, const Untraced &untraced,
           const Traced &traced, Report &rep)
{
    std::vector<double> walls, cpus;
    std::vector<sim::RunRecord> last, tracedRecords;
    std::vector<RepLayers> layers;
    std::vector<Span> lastSpans;
    const double start = wallSeconds();
    // A rep starts only if, judged by the one before, at least half of it
    // falls within the run's time: a run lasts about --seconds, not up to
    // a multi-second rep more.
    double lastIteration = 0.0;
    for (setups.due(0.0);
         walls.empty() ||
         wallSeconds() - start + lastIteration / 2 <= opt.seconds;
         setups.due(wallSeconds() - start)) {
        const double c0 = cpuSeconds();
        const double t0 = wallSeconds();
        last = untraced();
        walls.push_back(wallSeconds() - t0);
        cpus.push_back(cpuSeconds() - c0);
        checkRecords(last, ref, rep);
        if (opt.trace) {
            Tracer tracer;
            const double t1 = wallSeconds();
            tracedRecords = traced(tracer);
            const double tracedWall = wallSeconds() - t1;
            checkRecords(tracedRecords, ref, rep);
            lastSpans = tracer.collect();
            layers.push_back(
                aggregateSpans(lastSpans, tracedWall, poolThreads));
            layers.back().untracedWall = walls.back();
        }
        lastIteration = wallSeconds() - t0;
    }
    rep.endToEnd["setup_s"] = setups.finish();
    // A run holds only a handful of multi-second reps, and the host's
    // speed changes from one to the next; the median of five is one
    // rep's moment, a mean without the extremes covers the whole run.
    const double wall = trimmedMean(walls);
    rep.endToEnd["wall_s"] = wall;
    rep.endToEnd["cpu_s"] = trimmedMean(cpus);
    rep.repWalls = walls;
    rep.note("sim_lines_per_s",
             static_cast<double>(totalDramAccesses(last)) / wall, "1/s");
    if (opt.trace) {
        pipelineLayers(last, rep);
        fillSimLayers(layers, tracedRecords, /*withPool=*/true, rep);
        fillTraceOverhead(wall, layers, rep);
        writeSpanFile(opt, lastSpans, rep);
    }
    rep.endToEnd["peak_rss_mb"] = peakRssMb();
}

} // namespace

sim::RunRecord
runTracedCell(Tracer &tracer, const TracedCellSpec &cell, bool pipelined)
{
    const auto tag = static_cast<std::uint32_t>(cell.scheme);
    ScopedSpan span(tracer, "cell", 0, 0, tag);
    std::unique_ptr<core::Kernel> kernel;
    {
        ScopedSpan make(tracer, "kernel.make", span.id(), 0, tag);
        kernel = sim::makeKernel(cell.workload, cell.platform);
    }
    auto source = kernel->stream();
    dram::DramSystem dram(cell.platform.dram);
    protection::ProtectionConfig cfg;
    cfg.scheme = cell.scheme;
    protection::ProtectionEngine engine(cfg, &dram);
    sim::PerfModel model(&engine, cell.platform.clockMhz);

    sim::RunResult result;
    if (!pipelined) {
        TracedSource traced(*source, tracer, "kernel.next",
                            "replay.consume", span.id(), tag);
        result = model.run(traced);
        recordFlush(tracer, traced.doneNs(), span.id(), tag);
    } else {
        // sim::runPipelined's shape, with the kernel side traced on the
        // producer thread and the replay side on this one.
        core::PhaseRing ring(8);
        TracedSource produced(*source, tracer, "kernel.next", "ring.push",
                              span.id(), tag);
        std::thread producer([&ring, &produced] {
            try {
                core::RingPushSink sink(ring);
                produced.drainTo(sink);
                ring.closeProducer();
            } catch (const core::RingPushSink::ConsumerClosed &) {
                ring.closeProducer();
            } catch (...) {
                ring.fail(std::current_exception());
            }
        });
        core::PhaseRingSource ringSource(ring);
        TracedSource consumed(ringSource, tracer, "ring.next",
                              "replay.consume", span.id(), tag);
        try {
            result = model.run(consumed);
        } catch (...) {
            ring.closeConsumer();
            producer.join();
            throw;
        }
        ring.closeConsumer();
        producer.join();
        recordFlush(tracer, consumed.doneNs(), span.id(), tag);
    }
    return {{cell.workload, cell.platform.name, cell.scheme}, result};
}

Report
runPaperGrid(const Options &opt)
{
    Report rep;
    const Reference ref = loadCells(opt);
    const std::vector<std::string> names = sim::listWorkloads();
    // One host thread is left to everything else on the machine: with a
    // pool on every vCPU, one busy core elsewhere stretched the pool's
    // makespan by 30% on a 4-vCPU VM (8% with one vCPU left free).
    const unsigned threads = hostThreads() > 1 ? hostThreads() - 1 : 1;

    // Set-up: resolve every workload of the grid to its kernel (the
    // registry validation mgx_serve also does before a run).
    SetupSchedule setups = timedSetups(opt, [&names] {
        for (const auto &w : names)
            sim::makeKernel(w, sim::defaultPlatform(w));
    });

    sim::ResultSet last;
    const auto cells = gridCells(names, sim::allSchemes());
    measureSim(
        opt, ref, threads, setups,
        [&] {
            last = sim::Experiment().workloads(names).threads(threads).run();
            return last.records();
        },
        [&](Tracer &tracer) {
            // A replica of Experiment's cell pool (workers claim cells in
            // grid order); only its per-cell spans are reported, and
            // pool_efficiency divides them by Experiment's own wall.
            std::vector<sim::RunRecord> records(cells.size());
            std::atomic<std::size_t> next{0};
            std::vector<std::thread> pool;
            for (unsigned w = 0; w < threads; ++w)
                pool.emplace_back([&] {
                    for (std::size_t i = next.fetch_add(1); i < cells.size();
                         i = next.fetch_add(1))
                        records[i] = runTracedCell(tracer, cells[i],
                                                   /*pipelined=*/false);
                });
            for (auto &t : pool)
                t.join();
            return records;
        },
        rep);
    accuracyLines(last, rep);
    return rep;
}

Report
runScaledPokec(const Options &opt)
{
    Report rep;
    const Reference ref = loadCells(opt);
    const sim::Platform platform = sim::defaultPlatform(kScaledPokec);
    const protection::Scheme schemes[] = {protection::Scheme::NP,
                                          protection::Scheme::BP};

    SetupSchedule setups = timedSetups(
        opt, [&platform] { sim::makeKernel(kScaledPokec, platform); });

    // A single-cell Experiment pipelines whenever it has two threads;
    // the traced replica follows the same decision.
    const bool pipelined = hostThreads() >= 2;
    std::vector<double> cellSeconds[2];
    measureSim(
        opt, ref, 1, setups,
        [&] {
            std::vector<sim::RunRecord> records;
            for (int i = 0; i < 2; ++i) {
                const double t0 = wallSeconds();
                sim::ResultSet rs = sim::Experiment()
                                        .workload(kScaledPokec)
                                        .schemes({schemes[i]})
                                        .run();
                cellSeconds[i].push_back(wallSeconds() - t0);
                records.push_back(rs.records().front());
            }
            return records;
        },
        [&](Tracer &tracer) {
            std::vector<sim::RunRecord> records;
            for (protection::Scheme s : schemes)
                records.push_back(runTracedCell(
                    tracer, {kScaledPokec, platform, s}, pipelined));
            return records;
        },
        rep);
    rep.note("np_cell_s", median(cellSeconds[0]), "s");
    rep.note("bp_cell_s", median(cellSeconds[1]), "s");
    return rep;
}

int
writeReferences(const Options &opt)
{
    namespace fs = std::filesystem;
    fs::create_directories(opt.referenceDir + "/served");

    std::vector<CellOutputs> cells;
    sim::ResultSet grid = sim::Experiment()
                              .workloads(sim::listWorkloads())
                              .threads(hostThreads())
                              .run();
    for (const auto &r : grid.records())
        cells.push_back(cellOutputs(r));
    for (protection::Scheme s :
         {protection::Scheme::NP, protection::Scheme::BP}) {
        sim::ResultSet rs =
            sim::Experiment().workload(kScaledPokec).schemes({s}).run();
        cells.push_back(cellOutputs(rs.records().front()));
    }
    if (!writeReference(opt.referenceDir + "/cells.tsv", cells))
        return 1;

    // Served bodies: what mgx_serve answers for /run?workload=W&
    // schemes=NP,MGX,BP — byte-identical to a serial, unpipelined
    // Experiment of the same grid.
    std::vector<std::string> served = servedHotWorkloads();
    served.push_back(kColdWorkload);
    for (const auto &w : served) {
        const std::string body = sim::toJson(
            sim::Experiment()
                .workload(w)
                .schemes({protection::Scheme::NP, protection::Scheme::MGX,
                          protection::Scheme::BP})
                .threads(1)
                .pipelined(false)
                .run());
        if (!writeFile(servedBodyPath(opt.referenceDir + "/served", w),
                       body))
            return 1;
    }
    std::printf("perfbench: wrote %zu reference cells and %zu served "
                "bodies under %s\n",
                cells.size(), served.size(), opt.referenceDir.c_str());
    return 0;
}

} // namespace perfbench
