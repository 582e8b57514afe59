/**
 * @file
 * mgx_run: the experiment CLI. Runs any registry workload grid under
 * any scheme set and emits the fixed-width table and/or the
 * mgx-resultset-v1 JSON artifact — the machine-readable path for
 * tracking the repo's performance trajectory.
 *
 * Usage:
 *   mgx_run --list
 *   mgx_run --workload dnn/resnet50 --schemes NP,MGX,BP --json out.json
 *   mgx_run --all --platforms cloud,edge --threads 8 --json all.json
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/parse.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/workload_registry.h"

namespace {

using namespace mgx;

int
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: mgx_run [options]\n"
        "  --list                 print every registry workload and exit\n"
        "  --list-scaled          print the oversized streaming-only\n"
        "                         workload variants and exit\n"
        "  --workload NAME[,...]  add workloads (repeatable); see --list\n"
        "  --all                  run every registry workload\n"
        "  --platforms P[,...]    cloud, edge, graph, genome\n"
        "                         (default: each workload's paper platform)\n"
        "  --schemes S[,...]      NP, MGX, MGX_VN, MGX_MAC, BP\n"
        "                         (default: all five)\n"
        "  --threads N            worker threads (default 0: all cores)\n"
        "  --pipeline             split every cell onto two threads at\n"
        "                         the engine/DRAM boundary: kernel and\n"
        "                         protection-engine expansion on one,\n"
        "                         DRAM timing on the other, over a\n"
        "                         ~1 MB ring of recorded DRAM commands\n"
        "                         — bitwise-identical results (only the\n"
        "                         pipeline stall counters vary run to\n"
        "                         run)\n"
        "  --no-pipeline          force serial cells. Default: auto —\n"
        "                         pipeline only a single-cell grid.\n"
        "                         --threads N stays a true concurrency\n"
        "                         cap: a pipelined cell costs two\n"
        "                         threads (engine + DRAM timer), so the\n"
        "                         pool runs floor(N/2) cells at once,\n"
        "                         and --threads 1 never pipelines\n"
        "  --json FILE            write the mgx-resultset-v1 artifact\n"
        "  --quiet                suppress the table on stdout\n"
        "  --help                 this message\n"
        "\n"
        "example:\n"
        "  mgx_run --workload dnn/resnet50 --schemes NP,MGX,BP "
        "--json out.json\n");
    return out == stdout ? 0 : 2;
}

std::vector<std::string>
splitCommas(const std::string &arg)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= arg.size()) {
        std::size_t pos = arg.find(',', start);
        if (pos == std::string::npos)
            pos = arg.size();
        if (pos > start)
            parts.push_back(arg.substr(start, pos - start));
        start = pos + 1;
    }
    return parts;
}

bool
platformByName(const std::string &name, sim::Platform &out)
{
    if (name == "cloud")
        out = sim::cloudPlatform();
    else if (name == "edge")
        out = sim::edgePlatform();
    else if (name == "graph")
        out = sim::graphPlatform();
    else if (name == "genome")
        out = sim::genomePlatform();
    else
        return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> workloads;
    std::vector<sim::Platform> platforms;
    std::vector<protection::Scheme> schemes;
    std::string json_path;
    u32 threads = 0;
    bool quiet = false;
    int pipeline = -1; // -1 auto, 0 forced off, 1 forced on

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "mgx_run: %s needs a value\n",
                             arg.c_str());
                std::exit(usage(stderr));
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            return usage(stdout);
        if (arg == "--list") {
            for (const auto &name : sim::listWorkloads())
                std::printf("%s\n", name.c_str());
            return 0;
        }
        if (arg == "--list-scaled") {
            for (const auto &name : sim::listScaledWorkloads())
                std::printf("%s\n", name.c_str());
            return 0;
        }
        if (arg == "--workload" || arg == "-w") {
            for (auto &w : splitCommas(value()))
                workloads.push_back(w);
        } else if (arg == "--all") {
            for (auto &w : sim::listWorkloads())
                workloads.push_back(w);
        } else if (arg == "--platforms" || arg == "--platform") {
            for (auto &p : splitCommas(value())) {
                sim::Platform platform;
                if (!platformByName(p, platform)) {
                    std::fprintf(stderr,
                                 "mgx_run: unknown platform '%s'\n",
                                 p.c_str());
                    return usage(stderr);
                }
                platforms.push_back(platform);
            }
        } else if (arg == "--schemes" || arg == "--scheme") {
            for (auto &s : splitCommas(value()))
                schemes.push_back(sim::schemeByName(s));
        } else if (arg == "--threads") {
            const char *v = value();
            u64 n = 0;
            if (!parseDecimal(v, std::numeric_limits<u32>::max(), n)) {
                std::fprintf(stderr,
                             "mgx_run: %s needs a non-negative integer "
                             "no larger than %u, got '%s'\n",
                             arg.c_str(), std::numeric_limits<u32>::max(),
                             v);
                return usage(stderr);
            }
            threads = static_cast<u32>(n);
        } else if (arg == "--json") {
            json_path = value();
        } else if (arg == "--pipeline") {
            pipeline = 1;
        } else if (arg == "--no-pipeline") {
            pipeline = 0;
        } else if (arg == "--quiet" || arg == "-q") {
            quiet = true;
        } else {
            std::fprintf(stderr, "mgx_run: unknown option '%s'\n",
                         arg.c_str());
            return usage(stderr);
        }
    }

    if (workloads.empty()) {
        std::fprintf(stderr, "mgx_run: no workloads selected\n");
        return usage(stderr);
    }

    sim::Experiment experiment;
    experiment.workloads(workloads).threads(threads);
    if (pipeline != -1)
        experiment.pipelined(pipeline == 1);
    if (!platforms.empty())
        experiment.platforms(platforms);
    if (!schemes.empty())
        experiment.schemes(schemes);

    sim::ResultSet rs = experiment.run();

    if (!quiet)
        sim::printTable(rs);

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (out)
            sim::writeJson(rs, out);
        // The stream buffers: a full disk (or /dev/full) only surfaces
        // when the bytes are flushed, so check after the flush, not
        // just after the open.
        if (!out || !out.flush()) {
            std::fprintf(stderr, "mgx_run: cannot write '%s'\n",
                         json_path.c_str());
            return 1;
        }
        if (!quiet)
            std::printf("\nwrote %zu records to %s\n",
                        rs.records().size(), json_path.c_str());
    }
    return 0;
}
