/**
 * @file
 * Graph substrate tests: CSR construction and serialization, the
 * functional GraphBLAS algorithms, the synthetic tile generator, and
 * the graph kernel's one-counter VN scheme (§V-B).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/invariant_checker.h"
#include "graph/csr.h"
#include "graph/graph_gen.h"
#include "graph/graph_kernel.h"
#include "graph/pagerank.h"

namespace mgx::graph {
namespace {

// -- CSR ----------------------------------------------------------------------

TEST(Csr, SmallGraphWellFormed)
{
    CsrGraph g = makeSmallGraph(100, 500, 1);
    EXPECT_EQ(g.numVertices, 100u);
    EXPECT_EQ(g.rowPtr.size(), 101u);
    EXPECT_EQ(g.rowPtr.back(), g.numEdges());
    for (u32 c : g.colIdx)
        EXPECT_LT(c, 100u);
    // Roughly the requested edge count (degree rounding adds slack).
    EXPECT_GT(g.numEdges(), 350u);
    EXPECT_LT(g.numEdges(), 700u);
}

TEST(Csr, GenerationIsDeterministic)
{
    CsrGraph a = makeSmallGraph(50, 200, 42);
    CsrGraph b = makeSmallGraph(50, 200, 42);
    EXPECT_EQ(a.rowPtr, b.rowPtr);
    EXPECT_EQ(a.colIdx, b.colIdx);
}

TEST(Csr, SerializeRoundTrip)
{
    CsrGraph g = makeSmallGraph(64, 300, 7);
    CsrGraph back = deserializeCsr(serializeCsr(g));
    EXPECT_EQ(back.numVertices, g.numVertices);
    EXPECT_EQ(back.rowPtr, g.rowPtr);
    EXPECT_EQ(back.colIdx, g.colIdx);
}

// -- functional algorithms -------------------------------------------------------

TEST(PageRank, SumsToOne)
{
    CsrGraph g = makeSmallGraph(200, 1000, 3);
    auto rank = pagerank(g, 20);
    const double sum =
        std::accumulate(rank.begin(), rank.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(PageRank, HighInDegreeRanksHigher)
{
    // A star graph: every vertex points at vertex 0.
    CsrGraph g;
    g.numVertices = 10;
    g.rowPtr = {0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    g.rowPtr.resize(11);
    for (u64 v = 0; v <= 10; ++v)
        g.rowPtr[v] = v == 0 ? 0 : v - 1;
    g.rowPtr[10] = 9;
    g.colIdx.assign(9, 0);
    auto rank = pagerank(g, 30);
    for (u64 v = 1; v < 10; ++v)
        EXPECT_GT(rank[0], rank[v]);
}

TEST(Bfs, LevelsAreShortestPaths)
{
    // A path graph 0 -> 1 -> 2 -> 3.
    CsrGraph g;
    g.numVertices = 4;
    g.rowPtr = {0, 1, 2, 3, 3};
    g.colIdx = {1, 2, 3};
    auto level = bfs(g, 0);
    EXPECT_EQ(level[0], 0u);
    EXPECT_EQ(level[1], 1u);
    EXPECT_EQ(level[2], 2u);
    EXPECT_EQ(level[3], 3u);
}

TEST(Bfs, UnreachableStaysMax)
{
    CsrGraph g;
    g.numVertices = 3;
    g.rowPtr = {0, 1, 1, 1};
    g.colIdx = {1};
    auto level = bfs(g, 0);
    EXPECT_EQ(level[2], 0xffffffffu);
}

TEST(Sssp, MatchesBfsOnUnitWeights)
{
    CsrGraph g = makeSmallGraph(64, 256, 5);
    auto level = bfs(g, 0);
    auto dist = sssp(g, 0);
    for (u64 v = 0; v < 64; ++v) {
        if (level[v] == 0xffffffffu) {
            EXPECT_TRUE(std::isinf(dist[v]));
        } else {
            EXPECT_DOUBLE_EQ(dist[v], static_cast<double>(level[v]));
        }
    }
}

// -- synthetic tiles ------------------------------------------------------------

TEST(GraphGen, PaperGraphListMatchesBenchmarks)
{
    auto graphs = paperGraphs();
    ASSERT_EQ(graphs.size(), 6u);
    EXPECT_EQ(graphs[0].name, "google-plus");
    EXPECT_EQ(graphs[5].name, "ogbn-products");
    // Published sizes (unscaled).
    EXPECT_EQ(graphs[4].vertices, 576289u);  // ogbl-ppa: 576K
    EXPECT_EQ(graphs[5].edges, 123718280u);  // ogbn-products: 124M
}

TEST(GraphGen, TileEdgeCountsSumToTotal)
{
    GraphSpec spec = graphByName("google-plus");
    GraphTiles tiles = buildTiles(spec, 8192, 8192, 1);
    u64 sum = 0;
    for (const auto &row : tiles.tileEdges)
        sum += std::accumulate(row.begin(), row.end(), u64{0});
    EXPECT_EQ(sum, tiles.edges);
    // Within 10% of the scaled target.
    const double target =
        static_cast<double>(spec.scaledEdges());
    EXPECT_NEAR(static_cast<double>(tiles.edges), target,
                0.1 * target);
}

TEST(GraphGen, TilingDimensions)
{
    GraphSpec spec{"tiny", 10000, 50000, 1, 1.8};
    GraphTiles tiles = buildTiles(spec, 4000, 2500, 1);
    EXPECT_EQ(tiles.dstBlocks, 3u); // ceil(10000/4000)
    EXPECT_EQ(tiles.srcTiles, 4u);  // ceil(10000/2500)
}

// -- graph kernel ----------------------------------------------------------------

GraphTiles
tinyTiles()
{
    GraphSpec spec{"tiny", 20000, 100000, 1, 1.8};
    return buildTiles(spec, 8192, 8192, 1);
}

TEST(GraphKernel, IterCounterIsTheWholeState)
{
    GraphKernel kernel(tinyTiles(), GraphAlgorithm::PageRank, 5);
    kernel.generate();
    EXPECT_EQ(kernel.iterCounter(), 5u);
    // One Iter counter + one adjacency VN: 16 bytes of on-chip state
    // (the paper quotes 64 bits for Iter alone).
    EXPECT_EQ(kernel.vnStateBytes(), 16u);
}

TEST(GraphKernel, VnInvariantsAcrossIterations)
{
    GraphKernel kernel(tinyTiles(), GraphAlgorithm::PageRank, 6);
    core::InvariantChecker checker;
    checker.observeTrace(kernel.generate());
    auto report = checker.report();
    EXPECT_TRUE(report.ok) << (report.violations.empty()
                                   ? "?"
                                   : report.violations.front());
}

TEST(GraphKernel, RankVectorDoubleBuffers)
{
    GraphKernel kernel(tinyTiles(), GraphAlgorithm::PageRank, 2);
    auto trace = kernel.generate();
    // Writes of iteration 1 and 2 must target different buffers.
    Addr it1_write = 0, it2_write = 0;
    for (const auto &phase : trace) {
        for (const auto &acc : phase.accesses) {
            if (acc.type != AccessType::Write)
                continue;
            if (phase.name.rfind("it1", 0) == 0)
                it1_write = acc.addr;
            if (phase.name.rfind("it2", 0) == 0)
                it2_write = acc.addr;
        }
    }
    EXPECT_NE(it1_write, 0u);
    EXPECT_NE(it2_write, 0u);
    EXPECT_NE(it1_write, it2_write);
}

TEST(GraphKernel, AdjacencyIsReadOnlyConstantVn)
{
    GraphKernel kernel(tinyTiles(), GraphAlgorithm::BFS, 3);
    auto trace = kernel.generate();
    Vn adj_vn = 0;
    for (const auto &phase : trace) {
        for (const auto &acc : phase.accesses) {
            if (acc.cls != DataClass::GraphMatrix)
                continue;
            EXPECT_EQ(acc.type, AccessType::Read);
            if (adj_vn == 0)
                adj_vn = acc.vn;
            EXPECT_EQ(acc.vn, adj_vn);
        }
    }
    EXPECT_NE(adj_vn, 0u);
}

TEST(GraphKernel, SpMSpVUsesFineGrainedGathers)
{
    GraphKernel spmv(tinyTiles(), GraphAlgorithm::PageRank, 1);
    GraphKernel spmspv(tinyTiles(), GraphAlgorithm::PageRank, 1, {},
                       VectorAccess::Random);
    u64 fine_spmv = 0, fine_spmspv = 0;
    for (const auto &phase : spmv.generate())
        for (const auto &acc : phase.accesses)
            fine_spmv += acc.macGranularity == 64;
    for (const auto &phase : spmspv.generate())
        for (const auto &acc : phase.accesses)
            fine_spmspv += acc.macGranularity == 64;
    EXPECT_EQ(fine_spmv, 0u);
    EXPECT_GT(fine_spmspv, 0u);
}

TEST(GraphKernel, TrafficScalesWithEdges)
{
    GraphSpec small{"s", 20000, 50000, 1, 1.8};
    GraphSpec big{"b", 20000, 500000, 1, 1.8};
    GraphKernel ks(buildTiles(small, 8192, 8192, 1),
                   GraphAlgorithm::PageRank, 1);
    GraphKernel kb(buildTiles(big, 8192, 8192, 1),
                   GraphAlgorithm::PageRank, 1);
    EXPECT_GT(core::traceDataBytes(kb.generate()),
              3 * core::traceDataBytes(ks.generate()));
}

} // namespace
} // namespace mgx::graph
