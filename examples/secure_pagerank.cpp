/**
 * @file
 * Secure graph processing (§V): PageRank on the GraphBLAS accelerator.
 *
 * Part 1 (functional): computes real PageRank on a small synthetic
 * power-law graph where the rank vectors live in encrypted,
 * integrity-protected memory. The kernel's only VN state is the Iter
 * counter: reads use (Iter-1), writes use Iter, exactly as §V-B.
 *
 * Part 2 (timing): simulates PageRank over the scaled 'pokec' graph
 * under each scheme and prints the overhead figures of Fig. 14.
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "common/log.h"
#include "graph/csr.h"
#include "graph/graph_gen.h"
#include "graph/graph_kernel.h"
#include "graph/pagerank.h"
#include "protection/secure_memory.h"
#include "sim/experiment.h"

namespace {

using namespace mgx;

/** PageRank where every vector access goes through SecureMemory. */
std::vector<double>
securePagerank(const graph::CsrGraph &g, u32 iters,
               protection::SecureMemory &mem)
{
    const u64 v = g.numVertices;
    const u64 vec_bytes = v * sizeof(double);
    const u64 gran = mem.macGranularity();
    const u64 padded = (vec_bytes + gran - 1) / gran * gran;
    const Addr buf[2] = {0, padded}; // double-buffered rank vectors

    // Iteration counter: the kernel's entire VN state (§V-B).
    u64 iter = 0;

    // Initial ranks written with VN = Iter (0 -> buffer 0)... the
    // first write uses VN 1 so VN 0 is never consumed from memory.
    std::vector<double> rank(v, 1.0 / static_cast<double>(v));
    std::vector<u8> bytes(padded, 0);
    std::memcpy(bytes.data(), rank.data(), vec_bytes);
    iter = 1;
    mem.write(buf[1], bytes, iter);

    std::vector<double> next(v);
    for (u32 it = 0; it < iters; ++it) {
        // Read the current rank vector with VN = Iter.
        std::vector<u8> in(padded);
        if (!mem.read(buf[iter % 2], in, iter))
            fatal("rank vector failed integrity verification");
        std::memcpy(rank.data(), in.data(), vec_bytes);

        // One SpMV on the arithmetic semiring.
        std::fill(next.begin(), next.end(), 0.0);
        for (u64 u = 0; u < v; ++u) {
            const u64 deg = g.degree(u);
            if (deg == 0)
                continue;
            const double share = rank[u] / static_cast<double>(deg);
            for (u64 e = g.rowPtr[u]; e < g.rowPtr[u + 1]; ++e)
                next[g.colIdx[e]] += share;
        }
        for (u64 i = 0; i < v; ++i)
            next[i] = 0.15 / static_cast<double>(v) + 0.85 * next[i];

        // Write the updated ranks with VN = Iter + 1.
        ++iter;
        std::memcpy(bytes.data(), next.data(), vec_bytes);
        mem.write(buf[iter % 2], bytes, iter);
    }

    std::vector<u8> out(padded);
    if (!mem.read(buf[iter % 2], out, iter))
        fatal("final rank vector failed verification");
    std::memcpy(rank.data(), out.data(), vec_bytes);
    return rank;
}

} // namespace

int
main()
{
    using protection::Scheme;

    // -- Part 1: functional secure PageRank ---------------------------
    graph::CsrGraph g = graph::makeSmallGraph(2000, 20000, 99);
    protection::SecureMemoryConfig mcfg;
    mcfg.encKey[1] = 0xaa;
    mcfg.macKey[1] = 0xbb;
    protection::SecureMemory mem(mcfg);

    auto secure = securePagerank(g, 10, mem);
    auto reference = graph::pagerank(g, 10);
    double max_err = 0;
    for (u64 i = 0; i < g.numVertices; ++i)
        max_err = std::max(max_err,
                           std::abs(secure[i] - reference[i]));
    std::printf("functional secure PageRank over %llu vertices / "
                "%llu edges: max |err| vs plaintext = %.2e\n",
                static_cast<unsigned long long>(g.numVertices),
                static_cast<unsigned long long>(g.numEdges()), max_err);

    // -- Part 2: timing on the scaled pokec benchmark -----------------
    graph::GraphSpec spec = graph::graphByName("pokec");
    std::printf("\ntiming: PageRank on %s (%llu vertices, %llu edges, "
                "1/%u scale)\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(spec.scaledVertices()),
                static_cast<unsigned long long>(spec.scaledEdges()),
                spec.scale);
    graph::GraphTiles tiles =
        graph::buildTiles(spec, 512 << 10, 512 << 10, 17);
    graph::GraphKernel kernel(tiles, graph::GraphAlgorithm::PageRank,
                              3);
    const sim::Platform platform = sim::graphPlatform();
    sim::ResultSet rs = sim::Experiment()
                            .trace("pagerank", kernel.generate())
                            .platform(platform)
                            .run();
    std::printf("%-8s %12s %12s\n", "scheme", "norm. time", "traffic");
    for (Scheme s : rs.schemes())
        std::printf("%-8s %12.3f %12.3f\n", protection::schemeName(s),
                    rs.normalizedTime("pagerank", platform.name, s).value(),
                    rs.trafficIncrease("pagerank", platform.name, s).value());
    std::printf("\nkernel on-chip VN state: %llu bytes (one Iter "
                "counter plus the adjacency VN)\n",
                static_cast<unsigned long long>(kernel.vnStateBytes()));
    return 0;
}
