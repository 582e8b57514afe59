#include "layers.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "stats.h"

namespace perfbench {

using namespace mgx;

RepLayers
aggregateSpans(const std::vector<Span> &spans, double wall,
               unsigned threads)
{
    RepLayers out;
    out.wall = wall;
    out.threads = threads;
    out.spans = spans.size();
    const std::vector<std::int64_t> self = selfTimes(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double dur = static_cast<double>(s.endNs - s.startNs) * 1e-9;
        if (std::strcmp(s.name, "cell") == 0) {
            out.cellSeconds.push_back(dur);
        } else if (std::strcmp(s.name, "kernel.make") == 0) {
            out.makeSeconds += dur;
        } else if (std::strcmp(s.name, "kernel.next") == 0) {
            out.genSeconds += static_cast<double>(self[i]) * 1e-9;
        } else {
            const bool phase = std::strcmp(s.name, "replay.consume") == 0;
            if (!phase && std::strcmp(s.name, "replay.flush") != 0)
                continue;
            out.phases += phase ? 1 : 0;
            out.replaySeconds += dur;
            if (s.tag < out.replayBySchemeSeconds.size())
                out.replayBySchemeSeconds[s.tag] += dur;
        }
    }
    return out;
}

void
fillSimLayers(const std::vector<RepLayers> &reps,
              const std::vector<sim::RunRecord> &records, bool withPool,
              Report &rep)
{
    auto medianOf = [&](auto field) {
        std::vector<double> v;
        for (const RepLayers &r : reps)
            v.push_back(field(r));
        return median(v);
    };

    if (withPool) {
        std::vector<double> cells;
        for (const RepLayers &r : reps)
            cells.insert(cells.end(), r.cellSeconds.begin(),
                         r.cellSeconds.end());
        rep.layers["experiment.cell_s.p50"] = median(cells);
        rep.layers["experiment.cell_s.max"] = medianOf([](const auto &r) {
            return r.cellSeconds.empty()
                       ? 0.0
                       : *std::max_element(r.cellSeconds.begin(),
                                           r.cellSeconds.end());
        });
        rep.layers["experiment.cell_s.sum"] =
            medianOf([](const auto &r) { return sum(r.cellSeconds); });
        rep.layers["experiment.threads"] = reps.front().threads;
        // Cell times come from the traced replica, the wall from
        // Experiment itself.
        rep.layers["experiment.wall_s"] =
            medianOf([](const auto &r) { return r.untracedWall; });
        rep.layers["experiment.pool_efficiency"] =
            medianOf([](const auto &r) {
                return sum(r.cellSeconds) / (r.threads * r.untracedWall);
            });
    }

    rep.layers["kernel.make_s"] =
        medianOf([](const auto &r) { return r.makeSeconds; });
    rep.layers["kernel.gen_s"] =
        medianOf([](const auto &r) { return r.genSeconds; });
    rep.layers["kernel.phases"] = static_cast<double>(reps.back().phases);
    const double replay =
        medianOf([](const auto &r) { return r.replaySeconds; });
    rep.layers["replay.s"] = replay;
    for (protection::Scheme s : sim::allSchemes())
        rep.layers[std::string("replay.s.") + protection::schemeName(s)] =
            medianOf([s](const auto &r) {
                return r.replayBySchemeSeconds[static_cast<std::size_t>(
                    s)];
            });

    u64 logical = 0, dram = 0, hits = 0, misses = 0, writebacks = 0;
    for (const auto &r : records) {
        logical += r.result.logicalAccesses;
        dram += r.result.dramAccesses;
        hits += r.result.metaCacheHits;
        misses += r.result.metaCacheMisses;
        writebacks += r.result.metaCacheWritebacks;
    }
    rep.layers["replay.ns_per_line"] =
        dram == 0 ? 0.0 : replay * 1e9 / static_cast<double>(dram);
    rep.layers["protection.logical_accesses"] = static_cast<double>(logical);
    rep.layers["dram.accesses"] = static_cast<double>(dram);
    rep.layers["meta_cache.hits"] = static_cast<double>(hits);
    rep.layers["meta_cache.misses"] = static_cast<double>(misses);
    rep.layers["meta_cache.writebacks"] = static_cast<double>(writebacks);
    rep.layers["meta_cache.lookups"] = static_cast<double>(hits + misses);
    rep.layers["meta_cache.hit_ratio"] =
        hits + misses == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(hits + misses);
}

void
fillTraceOverhead(double untracedWall, const std::vector<RepLayers> &reps,
                  Report &rep)
{
    std::vector<double> walls, spans;
    for (const RepLayers &r : reps) {
        walls.push_back(r.wall);
        spans.push_back(static_cast<double>(r.spans));
    }
    const double traced = median(walls);
    rep.layers["trace.untraced_wall_s"] = untracedWall;
    rep.layers["trace.traced_wall_s"] = traced;
    rep.layers["trace.overhead_frac"] = traced / untracedWall - 1.0;
    rep.layers["trace.spans"] = median(spans);
}

void
writeSpanFile(const Options &opt, const std::vector<Span> &spans,
              Report &rep)
{
    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    const std::string path =
        opt.outDir + "/spans-" + opt.workload + ".tsv";
    if (writeSpans(spans, path))
        rep.lines.push_back("spans: " + std::to_string(spans.size()) +
                            " of the last traced rep written to " + path);
    else
        rep.lines.push_back("spans: could not write " + path);
}

} // namespace perfbench
