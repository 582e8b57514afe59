/**
 * @file
 * Golden cycle/traffic equivalence tests for the simulation hot path.
 *
 * The hot-path overhaul (handle-based stats, incremental range decode,
 * the DRAM same-open-row fast path, the compact trace layout) is a
 * speed change, not a model change: every cycle count and traffic
 * total must match the pre-overhaul simulator bit for bit. The tables
 * below were captured from the seed implementation (commit d8b123c,
 * the naive decode-per-line / string-map-stats hot path) for a
 * cross-domain sample of registry workloads under every scheme, and
 * pin the model's outputs against accidental drift from future
 * optimizations.
 *
 * The per-class mac/vn/tree splits for the cache-backed schemes (BP,
 * MGX_MAC) reflect the *corrected* writeback attribution — dirty
 * victims are charged to the evicted line's own metadata class — so
 * those columns differ from the seed's (which charged every flush
 * writeback to tree and every mid-run eviction to the accessing
 * line's class); their sum and every other column are unchanged.
 *
 * The DRAM request count and the metadata-cache hit/miss/writeback
 * columns, and the random-gather google-plus rows, are a whole-run
 * per-line oracle for run-length replay (DramChannel::accessRun and
 * the same-line metadata steps). They were captured at commit 5beabb8
 * twice — serial replay and channel-sharded replay, whose capture
 * mode timed every 64 B line on its own — and the two agreed on all
 * 30 cells.
 */

#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/report.h"

namespace mgx::sim {
namespace {

using protection::Scheme;

struct GoldenRow
{
    const char *workload;
    const char *platform;
    Scheme scheme;
    Cycles cycles;
    u64 data, expand, mac, vn, tree;
    u64 dramAccesses, metaHits, metaMisses, metaWritebacks;
};

// Captured as described in the file header; regenerate with
//   mgx_run --workload <w> --threads 1 --json out.json
// only when the *model* (not the simulator plumbing) changes.
constexpr GoldenRow kGolden[] = {
    {"core/matmul", "Cloud", Scheme::NP, 701594, 8388608, 0, 0, 0, 0,
     131072, 0, 0, 0},
    {"core/matmul", "Cloud", Scheme::MGX, 711128, 8388608, 0, 131072, 0,
     0, 133120, 0, 0, 0},
    {"core/matmul", "Cloud", Scheme::MGX_VN, 782604, 8388608, 0,
     1048576, 0, 0, 147456, 0, 0, 0},
    {"core/matmul", "Cloud", Scheme::MGX_MAC, 820273, 8388608, 0,
     131072, 1572864, 240896, 161460, 245728, 18895, 8933},
    {"core/matmul", "Cloud", Scheme::BP, 1024172, 8388608, 0, 1574656,
     1574656, 253440, 184240, 360374, 35468, 17188},

    {"video/h264?frames=4", "Genome", Scheme::NP, 9829440, 18662400, 0,
     0, 0, 0, 291600, 0, 0, 0},
    {"video/h264?frames=4", "Genome", Scheme::MGX, 9836266, 18662400, 0,
     292032, 0, 0, 296163, 0, 0, 0},
    {"video/h264?frames=4", "Genome", Scheme::MGX_VN, 9883186, 18662400,
     0, 2332800, 0, 0, 328050, 0, 0, 0},
    {"video/h264?frames=4", "Genome", Scheme::MGX_MAC, 9899220,
     18662400, 0, 292032, 3499200, 533952, 359181, 546679, 42010,
     20496},
    {"video/h264?frames=4", "Genome", Scheme::BP, 10035704, 18662400, 0,
     3499200, 3499200, 534080, 409295, 801828, 78462, 38721},

    {"graph/google-plus/pagerank", "Graph", Scheme::NP, 848330,
     41454120, 0, 0, 0, 0, 647724, 0, 0, 0},
    {"graph/google-plus/pagerank", "Graph", Scheme::MGX, 858118,
     41454120, 2520, 648192, 0, 0, 657909, 0, 0, 0},
    {"graph/google-plus/pagerank", "Graph", Scheme::MGX_VN, 934172,
     41454120, 216, 5182272, 0, 0, 728700, 0, 0, 0},
    {"graph/google-plus/pagerank", "Graph", Scheme::MGX_MAC, 971812,
     41454120, 216, 648192, 5222592, 799488, 751947, 1214319, 93351,
     497},
    {"graph/google-plus/pagerank", "Graph", Scheme::BP, 1061713,
     41454120, 216, 5223936, 5223936, 809088, 823614, 1781028, 174513,
     946},

    {"genome/chr1PacBio?reads=2", "Genome", Scheme::NP, 154710, 153600,
     0, 0, 0, 0, 2400, 0, 0, 0},
    {"genome/chr1PacBio?reads=2", "Genome", Scheme::MGX, 154903, 153600,
     0, 20800, 0, 0, 2725, 0, 0, 0},
    {"genome/chr1PacBio?reads=2", "Genome", Scheme::MGX_VN, 154903,
     153600, 0, 20800, 0, 0, 2725, 0, 0, 0},
    {"genome/chr1PacBio?reads=2", "Genome", Scheme::MGX_MAC, 155988,
     153600, 0, 20800, 32064, 8128, 3353, 4497, 386, 10},
    {"genome/chr1PacBio?reads=2", "Genome", Scheme::BP, 155992, 153600,
     0, 32064, 32064, 8128, 3529, 6596, 687, 113},

    {"dnn/DLRM?task=inference", "Cloud", Scheme::NP, 174090, 3921664, 0,
     0, 0, 0, 61276, 0, 0, 0},
    {"dnn/DLRM?task=inference", "Cloud", Scheme::MGX, 188942, 3921664,
     1792, 271296, 0, 0, 65555, 0, 0, 0},
    {"dnn/DLRM?task=inference", "Cloud", Scheme::MGX_VN, 205174,
     3921664, 0, 676928, 0, 0, 71853, 0, 0, 0},
    {"dnn/DLRM?task=inference", "Cloud", Scheme::MGX_MAC, 290302,
     3921664, 0, 271296, 745408, 748864, 88863, 112374, 21530, 1605},
    {"dnn/DLRM?task=inference", "Cloud", Scheme::BP, 326141, 3921664, 0,
     765184, 765184, 768704, 97199, 162937, 32498, 3283},

    {"graph/google-plus/pagerank?vector=random", "Graph", Scheme::NP,
     924778, 46296660, 0, 0, 0, 0, 723387, 0, 0, 0},
    {"graph/google-plus/pagerank?vector=random", "Graph", Scheme::MGX,
     1017052, 46296660, 1260, 5808384, 0, 0, 814182, 0, 0, 0},
    {"graph/google-plus/pagerank?vector=random", "Graph",
     Scheme::MGX_VN, 1091490, 46296660, 108, 10307136, 0, 0, 884439, 0,
     0, 0},
    {"graph/google-plus/pagerank?vector=random", "Graph",
     Scheme::MGX_MAC, 1413602, 46296660, 108, 5808384, 5222592, 799488,
     908238, 1365645, 93351, 497},
    {"graph/google-plus/pagerank?vector=random", "Graph", Scheme::BP,
     1278625, 46296660, 108, 5674048, 5674048, 830720, 913681, 1993951,
     188917, 946},
};

TEST(GoldenEquivalence, CyclesAndTrafficMatchSeedSimulator)
{
    // One grid per workload (they run on different default platforms).
    std::vector<std::string> workloads;
    for (const GoldenRow &row : kGolden) {
        if (workloads.empty() || workloads.back() != row.workload)
            workloads.push_back(row.workload);
    }
    ResultSet rs = Experiment().workloads(workloads).run();

    for (const GoldenRow &row : kGolden) {
        const RunResult *r =
            rs.find(row.workload, row.platform, row.scheme);
        ASSERT_NE(r, nullptr)
            << row.workload << " " << row.platform << " "
            << protection::schemeName(row.scheme);
        const std::string ctx = std::string(row.workload) + "/" +
                                protection::schemeName(row.scheme);
        EXPECT_EQ(r->totalCycles, row.cycles) << ctx;
        EXPECT_EQ(r->traffic.dataBytes, row.data) << ctx;
        EXPECT_EQ(r->traffic.expandBytes, row.expand) << ctx;
        EXPECT_EQ(r->traffic.macBytes, row.mac) << ctx;
        EXPECT_EQ(r->traffic.vnBytes, row.vn) << ctx;
        EXPECT_EQ(r->traffic.treeBytes, row.tree) << ctx;
        EXPECT_EQ(r->dramAccesses, row.dramAccesses) << ctx;
        EXPECT_EQ(r->metaCacheHits, row.metaHits) << ctx;
        EXPECT_EQ(r->metaCacheMisses, row.metaMisses) << ctx;
        EXPECT_EQ(r->metaCacheWritebacks, row.metaWritebacks) << ctx;
    }
}

TEST(GoldenEquivalence, ReplayIsDeterministic)
{
    // Two replays of the same trace on fresh engines are bitwise
    // identical — the property bench_perf_throughput leans on.
    Experiment e;
    e.workload("core/matmul").schemes({Scheme::BP}).threads(1);
    ResultSet a = e.run();
    ResultSet b = e.run();
    ASSERT_EQ(a.records().size(), 1u);
    ASSERT_EQ(b.records().size(), 1u);
    EXPECT_EQ(a.records()[0].result.totalCycles,
              b.records()[0].result.totalCycles);
    EXPECT_EQ(a.records()[0].result.dramAccesses,
              b.records()[0].result.dramAccesses);
}

TEST(GoldenEquivalence, DramAccessesReportsRealDramCount)
{
    // The satellite fix: dramAccesses is the DRAM request count, not
    // the engine's logical-access count. For NP the whole traffic is
    // data lines, so the two are related by the 64 B block size.
    ResultSet rs = Experiment()
                       .workload("core/matmul")
                       .schemes({Scheme::NP})
                       .threads(1)
                       .run();
    ASSERT_EQ(rs.records().size(), 1u);
    const RunResult &r = rs.records()[0].result;
    EXPECT_GT(r.logicalAccesses, 0u);
    EXPECT_EQ(r.dramAccesses, r.traffic.totalBytes() / 64);
    EXPECT_GT(r.dramAccesses, r.logicalAccesses);
    EXPECT_GT(r.traceBytes, 0u);
}

} // namespace
} // namespace mgx::sim
