/**
 * @file
 * Simulator-throughput benchmark: how fast the timing model itself
 * replays traces, measured in simulated 64-byte DRAM lines per wall
 * second. This quantifies the *simulator* (the repo's hot path), not
 * the modeled hardware — the companion of bench_micro's substrate
 * numbers and the source of the BENCH_perf.json trajectory artifact.
 *
 * Each (workload, scheme) cell generates the trace once, then replays
 * it through a fresh DramSystem + ProtectionEngine + PerfModel until
 * the wall-time budget is spent. Every replay of a trace is
 * deterministic, so the bench also asserts that repeated replays
 * produce identical cycle counts — a cheap self-check that the hot
 * path stays bitwise-stable while it is being optimized.
 *
 * Usage:
 *   bench_perf_throughput [--set micro|full] [--min-seconds S]
 *                         [--json FILE] [--quiet]
 *
 * Besides the replay cells, the bench times a fixed AES-128 loop and
 * reports it as a calibration score: lines-per-second divided by the
 * score is roughly hardware-independent, so CI can normalize a fresh
 * measurement to the committed baseline's runner before applying its
 * regression gate.
 *
 * JSON schema "mgx-bench-v1": {schema, bench, unit,
 *   calibration: {aesBlocksPerSecond, blocks, wallSeconds, checksum},
 *   results:[
 *   {workload, platform, scheme, mode (replay|stream|pipeline),
 *    linesPerSecond, wallSeconds, replays, linesPerReplay,
 *    cyclesPerReplay, traceBytes, peakPhaseBytes, tracePhases}]}
 * where traceBytes and peakPhaseBytes are RunResult's streamed
 * estimate of the whole trace and its largest phase, and tracePhases
 * counts the phases of a materialized trace (0 when streamed).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "crypto/aes128.h"
#include "sim/experiment.h"
#include "sim/pipeline.h"
#include "sim/report.h"
#include "sim/workload_registry.h"

namespace {

using namespace mgx;
using Clock = std::chrono::steady_clock;

/** The largest --min-seconds accepted: one day. */
constexpr double kMaxSeconds = 86400;

struct CellResult
{
    std::string workload;
    std::string platform;
    protection::Scheme scheme = protection::Scheme::NP;
    /**
     * Measurement axis: "replay" times the hot path alone, replaying
     * a trace generated once through core::TracePhaseSource;
     * "stream" generates + replays serially per rep; "pipeline" runs
     * the same end-to-end stream split at the engine/DRAM boundary:
     * generation and engine expansion on one thread, DRAM timing on
     * another (sim/pipeline.h).
     */
    const char *mode = "replay";
    double linesPerSecond = 0.0;
    double wallSeconds = 0.0;
    u64 replays = 0;
    u64 linesPerReplay = 0;
    Cycles cyclesPerReplay = 0;
    u64 traceBytes = 0;
    u64 peakPhaseBytes = 0;
    u64 tracePhases = 0;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Hardware calibration score (see file header). */
struct Calibration
{
    double aesBlocksPerSecond = 0.0;
    double wallSeconds = 0.0;
    u64 blocks = 0;
    u8 checksum = 0; ///< fold of the final block (pins determinism)
};

/**
 * Time a fixed, dependency-chained AES-128 encryption loop. The work
 * is deterministic and compute-bound with a tiny footprint, so the
 * score tracks the single-core speed of the machine rather than the
 * simulator — the denominator CI uses to compare runners.
 */
Calibration
measureCalibration()
{
    Calibration cal;
    cal.blocks = 1u << 20;
    const crypto::Key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                             0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                             0x09, 0xcf, 0x4f, 0x3c};
    const crypto::Aes128 aes(key);
    crypto::Block block = {};
    const auto t0 = Clock::now();
    // Each encryption consumes the previous ciphertext, so the chain
    // cannot be reordered or elided.
    for (u64 i = 0; i < cal.blocks; ++i)
        block = aes.encryptBlock(block);
    cal.wallSeconds = secondsSince(t0);
    for (u8 b : block)
        cal.checksum ^= b;
    cal.aesBlocksPerSecond =
        static_cast<double>(cal.blocks) / cal.wallSeconds;
    return cal;
}

/**
 * Stream @p workload end to end (fresh kernel, pull-based replay, no
 * materialized trace) under @p scheme until the budget is spent — the
 * throughput of the streaming pipeline, generation included. With
 * @p pipelined, the cell is split at the engine/DRAM boundary
 * (sim/pipeline.h): kernel streaming and protection-engine expansion
 * on one thread, DRAM timing on another, over the command ring. Same
 * work, same results either way (the self-check still compares cycle
 * counts), different wall clock on a multi-core host.
 */
CellResult
measureStreamedCell(const std::string &workload,
                    const sim::Platform &platform,
                    protection::Scheme scheme, double min_seconds,
                    bool pipelined = false)
{
    CellResult cell;
    cell.workload = workload;
    cell.platform = platform.name;
    cell.scheme = scheme;
    cell.mode = pipelined ? "pipeline" : "stream";

    protection::ProtectionConfig cfg;
    cfg.scheme = scheme;

    const auto t0 = Clock::now();
    Cycles cycles = 0;
    u64 lines = 0;
    u64 reps = 0;
    do {
        std::unique_ptr<core::Kernel> kernel;
        const auto makeSource = [&] {
            kernel = sim::makeKernel(workload, platform);
            return kernel->stream();
        };
        sim::RunResult r;
        if (pipelined) {
            r = sim::runPipelined(makeSource, cfg, platform);
        } else {
            auto source = makeSource();
            dram::DramSystem dram(platform.dram);
            protection::ProtectionEngine engine(cfg, &dram);
            sim::PerfModel model(&engine, platform.clockMhz);
            r = model.run(*source);
        }
        if (reps == 0) {
            cycles = r.totalCycles;
            lines = r.dramAccesses;
            cell.traceBytes = r.traceBytes;
            cell.peakPhaseBytes = r.peakPhaseBytes;
        } else if (cycles != r.totalCycles || lines != r.dramAccesses) {
            std::fprintf(stderr,
                         "bench_perf_throughput: %s rep %llu of "
                         "%s/%s diverged (nondeterministic stream!)\n",
                         cell.mode,
                         static_cast<unsigned long long>(reps),
                         workload.c_str(),
                         protection::schemeName(scheme));
            std::exit(1);
        }
        ++reps;
    } while (reps < 2 || secondsSince(t0) < min_seconds);

    cell.wallSeconds = secondsSince(t0);
    cell.replays = reps;
    cell.linesPerReplay = lines;
    cell.cyclesPerReplay = cycles;
    cell.linesPerSecond = static_cast<double>(lines) *
                          static_cast<double>(reps) / cell.wallSeconds;
    return cell;
}

/** Replay @p trace under @p scheme until the time budget is spent. */
CellResult
measureCell(const std::string &workload, const sim::Platform &platform,
            const core::Trace &trace, protection::Scheme scheme,
            double min_seconds)
{
    CellResult cell;
    cell.workload = workload;
    cell.platform = platform.name;
    cell.scheme = scheme;
    cell.tracePhases = trace.size();

    protection::ProtectionConfig cfg;
    cfg.scheme = scheme;

    const auto t0 = Clock::now();
    Cycles cycles = 0;
    u64 lines = 0;
    u64 reps = 0;
    do {
        dram::DramSystem dram(platform.dram);
        protection::ProtectionEngine engine(cfg, &dram);
        sim::PerfModel model(&engine, platform.clockMhz);
        core::TracePhaseSource source(trace);
        const sim::RunResult r = model.run(source);
        if (reps == 0) {
            cycles = r.totalCycles;
            lines = dram.accessCount();
            cell.traceBytes = r.traceBytes;
            cell.peakPhaseBytes = r.peakPhaseBytes;
        } else if (cycles != r.totalCycles ||
                   lines != dram.accessCount()) {
            std::fprintf(stderr,
                         "bench_perf_throughput: replay %llu of %s/%s "
                         "diverged (nondeterministic hot path!)\n",
                         static_cast<unsigned long long>(reps),
                         workload.c_str(),
                         protection::schemeName(scheme));
            std::exit(1);
        }
        ++reps;
    } while (reps < 2 || secondsSince(t0) < min_seconds);

    cell.wallSeconds = secondsSince(t0);
    cell.replays = reps;
    cell.linesPerReplay = lines;
    cell.cyclesPerReplay = cycles;
    cell.linesPerSecond = static_cast<double>(lines) *
                          static_cast<double>(reps) / cell.wallSeconds;
    return cell;
}

void
writeJson(const std::vector<CellResult> &cells, const Calibration &cal,
          std::ostream &out)
{
    char cnum[64];
    std::snprintf(cnum, sizeof cnum, "%.6g", cal.aesBlocksPerSecond);
    out << "{\n  \"schema\": \"mgx-bench-v1\",\n"
        << "  \"bench\": \"perf_throughput\",\n"
        << "  \"unit\": \"simulated_lines_per_second\",\n"
        << "  \"calibration\": {\"aesBlocksPerSecond\": " << cnum
        << ", \"blocks\": " << cal.blocks;
    std::snprintf(cnum, sizeof cnum, "%.6g", cal.wallSeconds);
    out << ", \"wallSeconds\": " << cnum
        << ", \"checksum\": " << static_cast<unsigned>(cal.checksum)
        << "},\n"
        << "  \"results\": [";
    bool first = true;
    for (const auto &c : cells) {
        char num[64];
        std::snprintf(num, sizeof num, "%.6g", c.linesPerSecond);
        out << (first ? "\n" : ",\n") << "    {\"workload\": \""
            << c.workload << "\", \"platform\": \"" << c.platform
            << "\", \"scheme\": \"" << protection::schemeName(c.scheme)
            << "\", \"mode\": \"" << c.mode
            << "\",\n     \"linesPerSecond\": " << num;
        std::snprintf(num, sizeof num, "%.6g", c.wallSeconds);
        out << ", \"wallSeconds\": " << num
            << ", \"replays\": " << c.replays
            << ",\n     \"linesPerReplay\": " << c.linesPerReplay
            << ", \"cyclesPerReplay\": " << c.cyclesPerReplay
            << ", \"traceBytes\": " << c.traceBytes
            << ", \"peakPhaseBytes\": " << c.peakPhaseBytes
            << ", \"tracePhases\": " << c.tracePhases << "}";
        first = false;
    }
    out << "\n  ]\n}\n";
}

int
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: bench_perf_throughput [options]\n"
        "  --set micro|full    workload set (default micro)\n"
        "                      micro: the tiled-MatMul cells under\n"
        "                             NP/MGX/BP on the replay, stream\n"
        "                             and pipeline axes, plus genome\n"
        "                             and video BP cells (the floor)\n"
        "                      full:  + dnn/resnet50 + graph/pokec\n"
        "  --min-seconds S     time budget per cell (default 0.5)\n"
        "  --json FILE         write the mgx-bench-v1 artifact\n"
        "  --quiet             suppress the table\n");
    return out == stdout ? 0 : 2;
}

/** One bench workload and the schemes it replays / streams under. */
struct WorkloadSpec
{
    const char *workload;
    std::vector<protection::Scheme> schemes;
    std::vector<protection::Scheme> streamedSchemes;
    std::vector<protection::Scheme> pipelinedSchemes;
};

/**
 * The micro set covers every BP cell the perf gate watches: the
 * MatMul replay under all three headline schemes, plus one genome and
 * one video cell pinned to BP — the throughput floor — so the floor
 * is tracked across domains without full-set runtimes. The full set
 * adds the DNN and graph workloads, completing all five domains.
 */
std::vector<WorkloadSpec>
workloadSet(const std::string &set)
{
    using protection::Scheme;
    const std::vector<Scheme> all = {Scheme::NP, Scheme::MGX,
                                     Scheme::BP};
    const std::vector<Scheme> bp = {Scheme::BP};
    const std::vector<Scheme> none;
    // The MatMul cells also run on the streamed axis (fresh kernel +
    // pull-based replay per rep): the end-to-end throughput of the
    // default mgx_run path, tracked next to the pure-replay numbers.
    // The pipeline axis repeats the streamed cells with engine
    // expansion and DRAM timing on two threads, so stream-vs-pipeline
    // is a direct wall-clock comparison of serial and pipelined
    // single-cell replay.
    std::vector<WorkloadSpec> specs = {
        {"core/matmul?m=256&n=256&k=256", all, all, all},
        {"genome/chr1PacBio?reads=2", bp, none, none},
        {"video/h264?frames=2", bp, none, none},
    };
    if (set == "full") {
        specs.push_back(
            {"dnn/resnet50?task=inference", all, none, none});
        specs.push_back({"graph/pokec/pagerank", all, all, bp});
    }
    return specs;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string set = "micro";
    std::string json_path;
    double min_seconds = 0.5;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "bench_perf_throughput: %s needs a value\n",
                             arg.c_str());
                std::exit(usage(stderr));
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            return usage(stdout);
        if (arg == "--set")
            set = value();
        else if (arg == "--min-seconds") {
            const char *v = value();
            if (!parseFraction(v, kMaxSeconds, min_seconds)) {
                std::fprintf(stderr,
                             "bench_perf_throughput: --min-seconds needs "
                             "a non-negative decimal number no larger "
                             "than %.0f, got '%s'\n",
                             kMaxSeconds, v);
                return 2;
            }
        } else if (arg == "--json")
            json_path = value();
        else if (arg == "--quiet" || arg == "-q")
            quiet = true;
        else {
            std::fprintf(stderr,
                         "bench_perf_throughput: unknown option '%s'\n",
                         arg.c_str());
            return usage(stderr);
        }
    }

    if (set != "micro" && set != "full") {
        std::fprintf(stderr,
                     "bench_perf_throughput: unknown set '%s'\n",
                     set.c_str());
        return usage(stderr);
    }

    const Calibration cal = measureCalibration();
    if (!quiet)
        std::printf("calibration: %.4g AES blocks/sec "
                    "(checksum %u)\n\n",
                    cal.aesBlocksPerSecond,
                    static_cast<unsigned>(cal.checksum));

    std::vector<CellResult> cells;
    const auto printCell = [quiet](const CellResult &c) {
        if (quiet)
            return;
        std::printf("%-34s %-8s %-8s %-8s %14.0f %9llu %8.2f\n",
                    c.workload.c_str(), c.platform.c_str(),
                    protection::schemeName(c.scheme),
                    c.mode, c.linesPerSecond,
                    static_cast<unsigned long long>(c.replays),
                    c.wallSeconds);
    };
    if (!quiet)
        std::printf("%-34s %-8s %-8s %-8s %14s %9s %8s\n", "workload",
                    "platform", "scheme", "mode", "lines/sec",
                    "replays", "wall(s)");
    for (const WorkloadSpec &spec : workloadSet(set)) {
        const std::string w = spec.workload;
        const sim::Platform platform = sim::defaultPlatform(w);
        const core::Trace trace =
            sim::makeKernel(w, platform)->generate();
        for (protection::Scheme s : spec.schemes) {
            cells.push_back(
                measureCell(w, platform, trace, s, min_seconds));
            printCell(cells.back());
        }
        for (protection::Scheme s : spec.streamedSchemes) {
            cells.push_back(
                measureStreamedCell(w, platform, s, min_seconds));
            printCell(cells.back());
        }
        for (protection::Scheme s : spec.pipelinedSchemes) {
            cells.push_back(measureStreamedCell(w, platform, s,
                                                min_seconds, true));
            printCell(cells.back());
        }
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr,
                         "bench_perf_throughput: cannot write '%s'\n",
                         json_path.c_str());
            return 1;
        }
        writeJson(cells, cal, out);
        if (!quiet)
            std::printf("\nwrote %zu results to %s\n", cells.size(),
                        json_path.c_str());
    }
    return 0;
}
