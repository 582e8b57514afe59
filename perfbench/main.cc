/**
 * @file
 * The benchmark program. One run measures one workload:
 *
 *   perfbench --workload paper_grid|scaled_pokec|serve_mix|fleet_mix
 *             --seed N --seconds S --trace 0|1
 *             [--reference-dir perfbench/reference] [--out-dir .bench_out]
 *             [--run-dir .bench_run] [--serve-binary path/to/mgx_serve]
 *   perfbench --write-reference [--reference-dir DIR]
 *
 * It prints a human-readable report — every gated end-to-end metric,
 * the printed-only ones (latency percentiles, throughput, failed
 * fraction, model accuracy), and with --trace 1 the per-layer table —
 * then, as the last line, one JSON object: {"correct", "attempted",
 * "failed", "metrics"}, where metrics holds the end-to-end metrics
 * (--trace 0) or the per-layer metrics (--trace 1). The same numbers go
 * to <out-dir>/result-<workload>-seed<N>-trace<T>.json.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "host.h"
#include "reference.h"
#include "stats.h"

namespace perfbench {

void
Report::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (errors.size() < 8)
        errors.push_back(what);
}

void
SetupSchedule::round()
{
    double total = 0.0;
    for (int i = 0; i < kSetupsPerRound; ++i)
        total += once_();
    rounds_.push_back(total / kSetupsPerRound);
}

void
SetupSchedule::due(double elapsed)
{
    while (rounds_.size() < static_cast<std::size_t>(kSetupRounds) &&
           elapsed >=
               seconds_ * static_cast<double>(rounds_.size()) / kSetupRounds)
        round();
}

double
SetupSchedule::finish()
{
    while (rounds_.size() < static_cast<std::size_t>(kSetupRounds))
        round();
    return median(rounds_);
}

namespace {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Gated in every workload (BENCHMARK.json end_to_end). */
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** Emitted by every traced run (BENCHMARK.json per_layer); a layer a
 *  workload does not exercise reads 0. */
const MetricSpec kPerLayer[] = {
    {"experiment.cell_s.p50", "s"},
    {"experiment.cell_s.max", "s"},
    {"experiment.cell_s.sum", "s"},
    {"experiment.threads", "count"},
    {"experiment.wall_s", "s"},
    {"experiment.pool_efficiency", "ratio"},
    {"kernel.make_s", "s"},
    {"kernel.gen_s", "s"},
    {"kernel.phases", "count"},
    {"replay.s", "s"},
    {"replay.s.NP", "s"},
    {"replay.s.MGX", "s"},
    {"replay.s.MGX_VN", "s"},
    {"replay.s.MGX_MAC", "s"},
    {"replay.s.BP", "s"},
    {"replay.ns_per_line", "ns"},
    {"protection.logical_accesses", "count"},
    {"dram.accesses", "count"},
    {"meta_cache.hits", "count"},
    {"meta_cache.misses", "count"},
    {"meta_cache.writebacks", "count"},
    {"meta_cache.lookups", "count"},
    {"meta_cache.hit_ratio", "ratio"},
    {"pipeline.producer_waits", "count"},
    {"pipeline.consumer_waits", "count"},
    {"pipeline.max_occupancy", "count"},
    {"serve.hot_ms.p50", "ms"},
    {"serve.cold_ms.p50", "ms"},
    {"serve.cold_ms.p99", "ms"},
    {"serve.cold_samples", "count"},
    {"serve.healthz_ms.p50", "ms"},
    {"serve.engine_ms", "ms"},
    {"serve.memo_hits", "count"},
    {"serve.cell_lookups", "count"},
    {"serve.memo_hit_ratio", "ratio"},
    {"serve.cells_run", "count"},
    {"serve.dedup_collapsed", "count"},
    {"serve.rejected", "count"},
    {"serve.keepalive_reused", "count"},
    {"serve.max_queue_depth", "count"},
    {"fleet.hop_ms.p50", "ms"},
    {"fleet.start_s", "s"},
    {"fleet.routed", "count"},
    {"fleet.failovers", "count"},
    {"trace.untraced_wall_s", "s"},
    {"trace.traced_wall_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.overhead_p50_ms", "ms"},
    {"trace.spans", "count"},
};

struct WorkloadSpec
{
    const char *name;
    const char *why;
    std::function<Report(const Options &)> run;
};

const WorkloadSpec kWorkloads[] = {
    {"paper_grid",
     "all 43 paper workloads x 5 schemes (215 cells) through one "
     "Experiment at nproc-1 threads: the cost of reproducing the paper, "
     "replay-bound",
     runPaperGrid},
    {"scaled_pokec",
     "full-scale pokec PageRank with random gathers, NP then BP, each a "
     "default single-cell Experiment: generation, decode and metadata "
     "cache at scale",
     runScaledPokec},
    {"serve_mix",
     "an assumed scenario, not recorded traffic: in-process mgx_serve "
     "defaults, 4 closed-loop keep-alive clients, seeded 90% memo-hit "
     "hot / 10% never-seen cold /run mix",
     runServeMix},
    {"fleet_mix",
     "the same assumed seeded mix through mgx_fleet's proxy to 2 mgx_serve "
     "workers: the routing hop and supervision layer",
     runFleetMix},
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--reference-dir DIR] "
                 "[--out-dir DIR] [--run-dir DIR] [--serve-binary PATH]\n"
                 "       perfbench --write-reference [--reference-dir "
                 "DIR]\n",
                 msg);
    std::exit(2);
}

/** A metric value as JSON: all its digits, never NaN/inf. */
std::string
jsonValue(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

template <typename Specs>
std::string
metricsJson(const Specs &specs, const std::map<std::string, double> &values)
{
    std::string out = "{";
    bool first = true;
    for (const MetricSpec &m : specs) {
        auto it = values.find(m.name);
        out += (first ? "" : ", ") + jsonString(m.name) + ": {\"value\": " +
               jsonValue(it == values.end() ? 0.0 : it->second) +
               ", \"unit\": " + jsonString(m.unit) + "}";
        first = false;
    }
    return out + "}";
}

/** Abort on a metric name outside @p specs (a benchmark bug). */
template <typename Specs>
void
requireKnown(const Specs &specs, const std::map<std::string, double> &values,
             bool requireAll)
{
    for (const auto &[name, v] : values) {
        bool known = false;
        for (const MetricSpec &m : specs)
            known = known || name == m.name;
        if (!known) {
            std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                         name.c_str());
            std::abort();
        }
    }
    if (requireAll)
        for (const MetricSpec &m : specs)
            if (!values.count(m.name)) {
                std::fprintf(stderr, "perfbench: missing metric %s\n",
                             m.name);
                std::abort();
            }
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    opt.referenceDir = "perfbench/reference";
    opt.outDir = ".bench_out";
    opt.runDir = ".bench_run";
    bool writeRef = false;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
            haveSeed = true;
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value().c_str(), nullptr);
            haveSeconds = true;
        } else if (arg == "--trace") {
            opt.trace = value() == "1";
            haveTrace = true;
        } else if (arg == "--reference-dir") {
            opt.referenceDir = value();
        } else if (arg == "--out-dir") {
            opt.outDir = value();
        } else if (arg == "--run-dir") {
            opt.runDir = value();
        } else if (arg == "--serve-binary") {
            opt.serveBinary = value();
        } else if (arg == "--write-reference") {
            writeRef = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (writeRef)
        return writeReferences(opt);
    if (!haveSeed || !haveSeconds || !haveTrace || !(opt.seconds > 0))
        usage("--workload, --seed, --seconds and --trace are required");

    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : kWorkloads)
        if (opt.workload == w.name)
            spec = &w;
    if (spec == nullptr)
        usage(("unknown workload " + opt.workload).c_str());

    std::printf("perfbench: workload %s, seed %llu, %g s, trace %d, %u "
                "host threads\n  why: %s\n",
                spec->name, static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, hostThreads(), spec->why);
    std::fflush(stdout);
    const Report rep = spec->run(opt);
    requireKnown(kEndToEnd, rep.endToEnd, /*requireAll=*/true);
    requireKnown(kPerLayer, rep.layers, /*requireAll=*/false);

    std::vector<Note> printed = rep.notes;
    printed.push_back({"reps", static_cast<double>(rep.repWalls.size()),
                       "count"});
    printed.push_back(
        {"failed_frac",
         rep.attempted == 0 ? 1.0
                            : static_cast<double>(rep.failed) /
                                  static_cast<double>(rep.attempted),
         "ratio"});

    std::ostringstream text;
    auto row = [&text](const std::string &name, double value,
                       const std::string &unit) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-28s %14.6g %s\n",
                      name.c_str(), value, unit.c_str());
        text << line;
    };
    text << "end-to-end (gated):\n";
    for (const MetricSpec &m : kEndToEnd)
        row(m.name, rep.endToEnd.at(m.name), m.unit);
    text << "end-to-end (printed only):\n";
    for (const Note &n : printed)
        row(n.name, n.value, n.unit);
    if (opt.trace) {
        text << "per-layer (traced run; 0 = layer not exercised):\n";
        for (const MetricSpec &m : kPerLayer) {
            auto it = rep.layers.find(m.name);
            row(m.name, it == rep.layers.end() ? 0.0 : it->second, m.unit);
        }
    }
    text << rep.failed << " failed of " << rep.attempted
         << " checked operations\n";
    for (const std::string &l : rep.lines)
        text << l << "\n";
    for (const std::string &e : rep.errors)
        text << "FAILED: " << e << "\n";
    std::fputs(text.str().c_str(), stdout);

    const bool correct = rep.failed == 0 && rep.attempted > 0;
    const std::string result =
        std::string("{\"correct\": ") + (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(rep.attempted) +
        ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": " +
        (opt.trace ? metricsJson(kPerLayer, rep.layers)
                   : metricsJson(kEndToEnd, rep.endToEnd)) +
        "}";

    std::string notes = "{";
    for (const Note &n : printed)
        notes += (notes.size() > 1 ? ", " : "") + jsonString(n.name) +
                 ": {\"value\": " + jsonValue(n.value) +
                 ", \"unit\": " + jsonString(n.unit) + "}";
    std::string walls = "[";
    for (double w : rep.repWalls)
        walls += (walls.size() > 1 ? ", " : "") + jsonValue(w);
    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    writeFile(opt.outDir + "/result-" + opt.workload + "-seed" +
                  std::to_string(opt.seed) + "-trace" +
                  (opt.trace ? "1" : "0") + ".json",
              "{\"workload\": " + jsonString(opt.workload) +
                  ", \"seed\": " + std::to_string(opt.seed) +
                  ", \"seconds\": " + jsonValue(opt.seconds) +
                  ", \"why\": " + jsonString(spec->why) +
                  ",\n \"result\": " + result +
                  ",\n \"end_to_end\": " +
                  metricsJson(kEndToEnd, rep.endToEnd) +
                  ",\n \"printed\": " + notes + "}" +
                  ",\n \"rep_walls\": " + walls + "]" +
                  ",\n \"per_layer\": " +
                  (opt.trace ? metricsJson(kPerLayer, rep.layers) : "{}") +
                  "}\n");

    std::printf("%s\n", result.c_str());
    return 0;
}
