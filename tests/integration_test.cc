/**
 * @file
 * Cross-module integration tests reproducing the paper's headline
 * claims at reduced scale:
 *
 *  - DNN inference/training: MGX near-zero overhead, BP 1.2-1.5x,
 *    ablations ordered MGX < MGX_VN, MGX_MAC < BP.
 *  - Graph: same orderings on a scaled benchmark graph.
 *  - The whole registry grid: the scheme ordering holds on every
 *    workload, in time and in traffic, and each domain's geomean
 *    overhead stays in a band around the values the model reproduces.
 *  - Scale invariance: a graph's normalized time barely moves between
 *    a quarter of its size and all of it.
 *  - A functional tiled MatMul over SecureMemory that computes the
 *    correct product while the kernel regenerates every VN.
 *  - Dynamic pruning (§VII-B): sparse features round-trip with the
 *    shared VN_F; skipped VNs cause no harm.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/matmul_kernel.h"
#include "dnn/dnn_kernel.h"
#include "dnn/models.h"
#include "graph/graph_gen.h"
#include "graph/graph_kernel.h"
#include "protection/secure_memory.h"
#include "sim/experiment.h"
#include "sim/runner.h"
#include "sim/workload_registry.h"

namespace mgx {
namespace {

using protection::Scheme;

// -- DNN end-to-end -------------------------------------------------------------

/** All five schemes over @p model's trace, as workload "dnn" on the
 *  Edge or Cloud platform. */
sim::ResultSet
runDnn(const dnn::Model &model, dnn::DnnTask task, bool edge)
{
    dnn::DnnKernel kernel(model, edge ? dnn::edgeAccel()
                                      : dnn::cloudAccel(),
                          task);
    return sim::Experiment()
        .trace("dnn", kernel.generate())
        .platform(edge ? sim::edgePlatform() : sim::cloudPlatform())
        .run();
}

TEST(IntegrationDnn, AlexNetCloudInferenceOverheads)
{
    // Cloud is memory-bound (600+ MACs/byte roofline), so protection
    // overhead shows up fully in execution time there.
    sim::ResultSet rs =
        runDnn(dnn::alexnet(), dnn::DnnTask::Inference, false);
    const double mgx = rs.normalizedTime("dnn", "Cloud", Scheme::MGX).value();
    const double bp = rs.normalizedTime("dnn", "Cloud", Scheme::BP).value();
    EXPECT_LT(mgx, 1.10);       // near-zero overhead
    EXPECT_GT(bp, 1.08);        // baseline pays real cost
    EXPECT_LT(bp, 1.60);
    EXPECT_LE(mgx,
              rs.normalizedTime("dnn", "Cloud", Scheme::MGX_VN).value() +
                  1e-9);
    EXPECT_LE(rs.normalizedTime("dnn", "Cloud", Scheme::MGX_MAC).value(),
              bp + 1e-9);
}

TEST(IntegrationDnn, EdgeComputeBoundHidesMoreOverhead)
{
    // The Edge config has 64x fewer PEs: compute hides a larger share
    // of the metadata traffic, so BP's slowdown shrinks vs Cloud.
    sim::ResultSet edge =
        runDnn(dnn::alexnet(), dnn::DnnTask::Inference, true);
    sim::ResultSet cloud =
        runDnn(dnn::alexnet(), dnn::DnnTask::Inference, false);
    EXPECT_LT(edge.normalizedTime("dnn", "Edge", Scheme::BP).value(),
              cloud.normalizedTime("dnn", "Cloud", Scheme::BP).value());
    EXPECT_LT(edge.normalizedTime("dnn", "Edge", Scheme::MGX).value(),
              1.05);
}

TEST(IntegrationDnn, ResNetCloudTrainingOrdering)
{
    sim::ResultSet rs =
        runDnn(dnn::resnet50(), dnn::DnnTask::Training, false);
    EXPECT_LT(rs.normalizedTime("dnn", "Cloud", Scheme::MGX).value(),
              rs.normalizedTime("dnn", "Cloud", Scheme::BP).value());
    EXPECT_GT(rs.trafficIncrease("dnn", "Cloud", Scheme::BP).value(),
              1.15);
    EXPECT_LT(rs.trafficIncrease("dnn", "Cloud", Scheme::MGX).value(),
              1.08);
}

TEST(IntegrationDnn, DlrmIsWorstCaseForBaseline)
{
    // DLRM's random embedding gathers defeat the VN/MAC cache.
    sim::ResultSet dlrm =
        runDnn(dnn::dlrm(1u << 18, 64), dnn::DnnTask::Inference, false);
    sim::ResultSet vgg =
        runDnn(dnn::vgg16(), dnn::DnnTask::Inference, false);
    EXPECT_GT(dlrm.trafficIncrease("dnn", "Cloud", Scheme::BP).value(),
              vgg.trafficIncrease("dnn", "Cloud", Scheme::BP).value());
}

// -- Graph end-to-end -------------------------------------------------------------

TEST(IntegrationGraph, PageRankOverheadOrdering)
{
    graph::GraphSpec spec{"test", 200000, 2000000, 1, 1.8};
    graph::GraphTiles tiles =
        graph::buildTiles(spec, 1 << 17, 1 << 17, 3);
    graph::GraphKernel kernel(tiles, graph::GraphAlgorithm::PageRank,
                              3);
    sim::ResultSet rs = sim::Experiment()
                            .trace("pagerank", kernel.generate())
                            .platform(sim::graphPlatform())
                            .run();

    const double mgx =
        rs.normalizedTime("pagerank", "Graph", Scheme::MGX).value();
    const double bp =
        rs.normalizedTime("pagerank", "Graph", Scheme::BP).value();
    EXPECT_LT(mgx, 1.10);
    EXPECT_GT(bp, mgx);
    EXPECT_LT(rs.trafficIncrease("pagerank", "Graph", Scheme::MGX).value(),
              1.05);
    EXPECT_GT(rs.trafficIncrease("pagerank", "Graph", Scheme::BP).value(),
              1.15);
}

// -- the paper's shape over the whole grid ----------------------------------------

TEST(PaperShape, SchemeOrderingHoldsOnEveryWorkload)
{
    // Every registry workload x all five schemes on its paper
    // platform: the `mgx_run --all` grid. Protection only adds work,
    // MGX adds the least, and each ablation adds back one of the two
    // metadata streams BP pays for in full:
    //   NP <= MGX <= MGX_VN,  MGX <= MGX_MAC,  MGX_VN, MGX_MAC <= BP
    // in normalized time and in traffic, on every workload. A wrong
    // VN or MAC model breaks this ordering, not just a golden value.
    const std::vector<std::string> workloads = sim::listWorkloads();
    ASSERT_EQ(workloads.size(), 43u);
    const sim::ResultSet rs =
        sim::Experiment().workloads(workloads).run();
    ASSERT_EQ(rs.records().size(),
              workloads.size() * sim::allSchemes().size());

    for (const auto &w : workloads) {
        const std::string platform = sim::defaultPlatform(w).name;
        const auto check = [&](const char *metric, const auto &value) {
            const std::string label = w + " " + metric;
            const auto at = [&](Scheme s) {
                const std::optional<double> v = value(s);
                EXPECT_TRUE(v.has_value()) << label;
                return v.value_or(0.0);
            };
            EXPECT_LE(at(Scheme::NP), at(Scheme::MGX)) << label;
            EXPECT_LE(at(Scheme::MGX), at(Scheme::MGX_VN)) << label;
            EXPECT_LE(at(Scheme::MGX), at(Scheme::MGX_MAC)) << label;
            EXPECT_LE(at(Scheme::MGX_VN), at(Scheme::BP)) << label;
            EXPECT_LE(at(Scheme::MGX_MAC), at(Scheme::BP)) << label;
        };
        check("normalizedTime", [&](Scheme s) {
            return rs.normalizedTime(w, platform, s);
        });
        check("trafficIncrease", [&](Scheme s) {
            return rs.trafficIncrease(w, platform, s);
        });
    }

    // Per-domain bands on the same grid: each domain's geomean
    // normalized time stays within 0.01 (MGX) and 0.03 (BP) of the
    // values the model reproduces, so a mis-modelled VN or MAC path
    // moves a band even where it keeps the ordering. The paper reports
    // both overheads for DNN (4% vs 28%) and graph (5% vs 33%); there
    // MGX's overhead must also stay at most a quarter of BP's.
    struct Band
    {
        const char *domain;
        double mgx, bp;
        bool paperRatio;
    };
    constexpr Band kBands[] = {
        {"core", 1.0136, 1.4598, false},
        {"dnn", 1.0213, 1.4715, true},
        {"genome", 1.0799, 1.4758, false},
        {"graph", 1.0131, 1.2791, true},
        {"video", 1.0001, 1.0043, false},
    };
    for (const Band &band : kBands) {
        const std::string prefix = std::string(band.domain) + "/";
        const auto geomean = [&](Scheme s) {
            double log_sum = 0.0;
            int n = 0;
            for (const auto &w : workloads) {
                if (w.rfind(prefix, 0) != 0)
                    continue;
                log_sum += std::log(
                    rs.normalizedTime(w, sim::defaultPlatform(w).name, s)
                        .value_or(1.0));
                ++n;
            }
            EXPECT_GT(n, 0) << band.domain;
            return std::exp(log_sum / n);
        };
        const double mgx = geomean(Scheme::MGX);
        const double bp = geomean(Scheme::BP);
        EXPECT_NEAR(mgx, band.mgx, 0.01) << band.domain << " MGX";
        EXPECT_NEAR(bp, band.bp, 0.03) << band.domain << " BP";
        if (band.paperRatio) {
            EXPECT_LE(mgx - 1.0, (bp - 1.0) / 4) << band.domain;
        }
    }
}

TEST(PaperShape, GraphNormalizedTimeIsScaleInvariant)
{
    // DESIGN.md simulates the graphs scaled down 4-16x on the claim
    // that MGX's metrics are scale-invariant: metadata and data
    // traffic both grow linearly with the edge count. Check it on one
    // graph at a quarter, a half and its full published size: the
    // normalized time may spread at most 0.005 under MGX and 0.02
    // under BP (the model spreads about 0.001 and 0.017).
    const std::vector<std::string> workloads = {
        "graph/google-plus/pagerank?scale=4",
        "graph/google-plus/pagerank?scale=2",
        "graph/google-plus/pagerank?scale=1",
    };
    const sim::ResultSet rs =
        sim::Experiment()
            .workloads(workloads)
            .schemes({Scheme::NP, Scheme::MGX, Scheme::BP})
            .run();
    const std::string platform = sim::graphPlatform().name;

    // The scales must really differ: the full graph moves about four
    // times the data of the quarter one.
    const sim::RunResult *quarter =
        rs.find(workloads.front(), platform, Scheme::NP);
    const sim::RunResult *full =
        rs.find(workloads.back(), platform, Scheme::NP);
    ASSERT_TRUE(quarter && full);
    EXPECT_GT(full->traffic.dataBytes, 3 * quarter->traffic.dataBytes);

    for (const auto &[scheme, spread] :
         {std::pair{Scheme::MGX, 0.005}, std::pair{Scheme::BP, 0.02}}) {
        std::vector<double> times;
        for (const auto &w : workloads) {
            const std::optional<double> t =
                rs.normalizedTime(w, platform, scheme);
            ASSERT_TRUE(t.has_value()) << w;
            times.push_back(*t);
        }
        const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
        EXPECT_GT(*lo, 1.0) << protection::schemeName(scheme);
        EXPECT_LT(*hi - *lo, spread)
            << protection::schemeName(scheme) << " spans " << *lo
            << " to " << *hi;
    }
}

// -- functional MatMul over SecureMemory --------------------------------------------

TEST(IntegrationFunctional, TiledMatMulOverSecureMemory)
{
    // A real 8x8 integer MatMul, tiled 2x2x2, where every DRAM-level
    // read/write goes through encryption + MAC with kernel-tracked VNs.
    constexpr int kN = 8;
    constexpr int kTile = 4;
    using Mat = std::vector<i32>;

    Mat a(kN * kN), b(kN * kN), c_ref(kN * kN, 0);
    for (int i = 0; i < kN * kN; ++i) {
        a[static_cast<std::size_t>(i)] = i % 7 - 3;
        b[static_cast<std::size_t>(i)] = (i * 5) % 11 - 5;
    }
    for (int i = 0; i < kN; ++i)
        for (int j = 0; j < kN; ++j)
            for (int k = 0; k < kN; ++k)
                c_ref[static_cast<std::size_t>(i * kN + j)] +=
                    a[static_cast<std::size_t>(i * kN + k)] *
                    b[static_cast<std::size_t>(k * kN + j)];

    protection::SecureMemoryConfig mcfg;
    mcfg.encKey[3] = 7;
    mcfg.macKey[5] = 9;
    mcfg.macGranularity = 64; // one 4x4 i32 tile = 64 bytes
    protection::SecureMemory mem(mcfg);

    // Tile layout: row-major tiles of 4x4 at 64-byte blocks.
    auto tile_bytes = [](const Mat &m, int ti, int tj) {
        std::vector<u8> bytes(64);
        for (int r = 0; r < kTile; ++r)
            for (int col = 0; col < kTile; ++col) {
                i32 v = m[static_cast<std::size_t>(
                    (ti * kTile + r) * kN + tj * kTile + col)];
                std::memcpy(&bytes[static_cast<std::size_t>(
                                (r * kTile + col) * 4)],
                            &v, 4);
            }
        return bytes;
    };
    auto addr_a = [](int ti, int tj) {
        return static_cast<Addr>(0x0000 + (ti * 2 + tj) * 64);
    };
    auto addr_b = [](int ti, int tj) {
        return static_cast<Addr>(0x1000 + (ti * 2 + tj) * 64);
    };
    auto addr_c = [](int ti, int tj) {
        return static_cast<Addr>(0x2000 + (ti * 2 + tj) * 64);
    };

    // Session setup: operands written with VN n = 1.
    const Vn n = 1;
    for (int ti = 0; ti < 2; ++ti)
        for (int tj = 0; tj < 2; ++tj) {
            mem.write(addr_a(ti, tj), tile_bytes(a, ti, tj), n);
            mem.write(addr_b(ti, tj), tile_bytes(b, ti, tj), n);
        }

    // Fig. 4 schedule: K rounds with VN[C] incrementing per round.
    Vn vn_c = n;
    for (int k = 0; k < 2; ++k) {
        const Vn vn_read = vn_c;
        const Vn vn_write = ++vn_c;
        for (int ti = 0; ti < 2; ++ti) {
            for (int tj = 0; tj < 2; ++tj) {
                std::vector<u8> abuf(64), bbuf(64), cbuf(64, 0);
                ASSERT_TRUE(mem.read(addr_a(ti, k), abuf, n));
                ASSERT_TRUE(mem.read(addr_b(k, tj), bbuf, n));
                if (k > 0) {
                    ASSERT_TRUE(
                        mem.read(addr_c(ti, tj), cbuf, vn_read));
                }
                // Multiply-accumulate the 4x4 tiles.
                i32 at[16], bt[16], ct[16];
                std::memcpy(at, abuf.data(), 64);
                std::memcpy(bt, bbuf.data(), 64);
                std::memcpy(ct, cbuf.data(), 64);
                for (int r = 0; r < 4; ++r)
                    for (int col = 0; col < 4; ++col)
                        for (int kk = 0; kk < 4; ++kk)
                            ct[r * 4 + col] +=
                                at[r * 4 + kk] * bt[kk * 4 + col];
                std::vector<u8> out(64);
                std::memcpy(out.data(), ct, 64);
                mem.write(addr_c(ti, tj), out, vn_write);
            }
        }
    }

    // Read back the final product and compare with the reference.
    for (int ti = 0; ti < 2; ++ti)
        for (int tj = 0; tj < 2; ++tj) {
            std::vector<u8> cbuf(64);
            ASSERT_TRUE(mem.read(addr_c(ti, tj), cbuf, vn_c));
            EXPECT_EQ(cbuf, tile_bytes(c_ref, ti, tj))
                << "tile " << ti << "," << tj;
        }

    // Stale partial results (round-1 ciphertext) must not be readable
    // as final results.
    std::vector<u8> cbuf(64);
    EXPECT_FALSE(mem.read(addr_c(0, 0), cbuf, vn_c - 1));
}

// -- dynamic pruning (§VII-B) --------------------------------------------------------

TEST(IntegrationFunctional, DynamicPruningSharedVn)
{
    // A layer writes only its unpruned tiles with the shared VN_F; the
    // next layer reads exactly those tiles with the same VN. Skipped
    // VN/tile pairs are simply never used — no reuse, no gap issues.
    protection::SecureMemoryConfig mcfg;
    mcfg.macGranularity = 64;
    protection::SecureMemory mem(mcfg);

    const Vn vn_f = 42;
    std::vector<int> unpruned = {0, 2, 3, 7, 9}; // survives gating
    auto tile_data = [](int t) {
        return std::vector<u8>(64, static_cast<u8>(0x30 + t));
    };
    for (int t : unpruned)
        mem.write(static_cast<Addr>(t) * 64, tile_data(t), vn_f);

    for (int t : unpruned) {
        std::vector<u8> out(64);
        ASSERT_TRUE(
            mem.read(static_cast<Addr>(t) * 64, out, vn_f));
        EXPECT_EQ(out, tile_data(t));
    }
    // A pruned (never-written) tile fails verification if read — the
    // accelerator's index metadata prevents that read in practice.
    std::vector<u8> out(64);
    EXPECT_FALSE(mem.read(4 * 64, out, vn_f));
}

} // namespace
} // namespace mgx
