/**
 * @file
 * The GraphBLAS accelerator kernel: GraphLily-like tiled SpMV schedule
 * (paper Fig. 10) with MGX VN generation (paper §V-B).
 *
 * VN rules: the adjacency matrix is read-only with a constant VN
 * (VN_adj); the rank / updated-rank vectors double-buffer, with
 * (Iter-1) as the read VN and Iter as the write VN, and the parity of
 * Iter picks the buffer. So the kernel's whole VN state is the 64-bit
 * iteration counter plus VN_adj.
 */

#ifndef MGX_GRAPH_GRAPH_KERNEL_H
#define MGX_GRAPH_GRAPH_KERNEL_H

#include "core/kernel.h"
#include "graph_gen.h"

namespace mgx::graph {

/** Which algorithm runs on the SpMV engine. */
enum class GraphAlgorithm { PageRank, BFS, SSSP };

/** GraphLily-like engine configuration. */
struct SpmvEngineConfig
{
    u64 dstBlockVertices = 512 << 10; ///< output-buffer capacity
    u64 srcTileVertices = 512 << 10;  ///< vector-buffer capacity
    u32 lanes = 32;                   ///< edges processed per cycle (HBM-class)
    u32 entryBytes = 4;               ///< per-edge and per-vertex bytes
    double clockMhz = 800.0;
};

/** SpMSpV-style variant knobs (paper §V-B last paragraph). */
enum class VectorAccess {
    Sequential, ///< SpMV: rank vector streamed per tile
    Random,     ///< SpMSpV: per-element gathers, fine-grained MACs
};

/** Control-processor kernel for one graph workload. */
class GraphKernel : public core::Kernel
{
  public:
    /**
     * @param tiles       tiled structure from buildTiles()
     * @param algorithm   PageRank or BFS
     * @param iterations  SpMV sweeps to simulate
     */
    GraphKernel(GraphTiles tiles, GraphAlgorithm algorithm,
                u32 iterations, SpmvEngineConfig engine = {},
                VectorAccess vector_access = VectorAccess::Sequential);

    std::string name() const override;

    /** Stream the tiled SpMV schedule, one (iter, block, tile) phase
     *  per chunk; Iter bumps as each sweep begins. */
    std::unique_ptr<core::PhaseSource> stream() override;

    /** The 64-bit Iter counter after the run. */
    Vn iterCounter() const { return iter_; }

    /** On-chip VN state in bytes: Iter and VN_adj, 8 bytes each. */
    u64 vnStateBytes() const { return 2 * sizeof(Vn); }

  private:
    class Source; // the streaming producer (graph_kernel.cc)

    GraphTiles tiles_;
    GraphAlgorithm algorithm_;
    u32 iterations_;
    SpmvEngineConfig engine_;
    VectorAccess vectorAccess_;

    Addr adjacencyBase_ = 0;
    Addr vectorBase_[2] = {12ull << 30, 13ull << 30};

    Vn iter_ = 0;  ///< Iter: bumps as each sweep begins
    Vn vnAdj_ = 1; ///< VN_adj: matrix loaded once at session start
};

} // namespace mgx::graph

#endif // MGX_GRAPH_GRAPH_KERNEL_H
