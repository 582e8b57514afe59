#include "graph_kernel.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/rng.h"
#include "core/counter.h"

namespace mgx::graph {

using core::makeVn;
using core::Phase;

GraphKernel::GraphKernel(GraphTiles tiles, GraphAlgorithm algorithm,
                         u32 iterations, SpmvEngineConfig engine,
                         VectorAccess vector_access)
    : tiles_(std::move(tiles)), algorithm_(algorithm),
      iterations_(iterations), engine_(engine),
      vectorAccess_(vector_access)
{
}

std::string
GraphKernel::name() const
{
    const char *prefix = algorithm_ == GraphAlgorithm::PageRank
                             ? "PR-"
                             : algorithm_ == GraphAlgorithm::BFS
                                   ? "BFS-"
                                   : "SSSP-";
    return prefix + std::to_string(tiles_.vertices) + "v";
}

/**
 * Streaming producer for the Fig. 10 schedule: one non-empty
 * (iteration, block, tile) phase per chunk, with Iter bumped as each
 * sweep starts and the gather Rng advanced in exactly the order the
 * materializing loop consumed it, so the emitted phase sequence is
 * identical. The per-tile adjacency offsets are precomputed (the
 * schedule metadata, O(blocks x tiles) words — not the trace).
 */
class GraphKernel::Source final : public core::PhaseSource
{
  public:
    explicit Source(GraphKernel &kernel)
        : k_(&kernel),
          vnAdj_(makeVn(DataClass::GraphMatrix, kernel.vnAdj_)),
          rng_(0x9e3779b9u ^ kernel.tiles_.vertices)
    {
        // Byte offset of each adjacency tile, in schedule order.
        const GraphTiles &tiles = k_->tiles_;
        const u64 eb = k_->engine_.entryBytes;
        tileOffset_.assign(tiles.dstBlocks,
                           std::vector<u64>(tiles.srcTiles, 0));
        u64 adj_off = 0;
        for (u32 b = 0; b < tiles.dstBlocks; ++b) {
            for (u32 t = 0; t < tiles.srcTiles; ++t) {
                tileOffset_[b][t] = adj_off;
                adj_off += alignUp(tiles.tileEdges[b][t] * eb, 64);
            }
        }
    }

    bool
    nextChunk(core::PhaseSink &sink) override
    {
        const GraphTiles &tiles = k_->tiles_;
        const SpmvEngineConfig &engine = k_->engine_;
        const u64 eb = engine.entryBytes;

        while (it_ <= k_->iterations_) {
            if (b_ == 0 && t_ == 0 && !iterOpen_) {
                // A new sweep begins: bump Iter, derive this sweep's
                // VNs and double-buffer addresses. The buffers follow
                // Iter, not it_: a further run continues from the
                // buffer the last sweep wrote.
                const Vn iter = ++k_->iter_;
                vnRead_ = makeVn(DataClass::GraphVector, iter - 1 + 1);
                vnWrite_ = makeVn(DataClass::GraphVector, iter + 1);
                bufIn_ = k_->vectorBase_[(iter + 1) % 2];
                bufOut_ = k_->vectorBase_[iter % 2];
                iterOpen_ = true;
            }
            for (; b_ < tiles.dstBlocks; ++b_, t_ = 0) {
                const u64 block_lo = std::min<u64>(
                    static_cast<u64>(b_) * engine.dstBlockVertices,
                    tiles.vertices);
                const u64 block_hi =
                    std::min<u64>(block_lo + engine.dstBlockVertices,
                                  tiles.vertices);
                for (; t_ < tiles.srcTiles;) {
                    const u32 t = t_++;
                    const u64 edges = tiles.tileEdges[b_][t];
                    if (edges == 0)
                        continue;
                    emitTile(sink, b_, t, edges, block_lo, block_hi,
                             eb);
                    return true;
                }
            }
            // Sweep exhausted; advance to the next iteration.
            iterOpen_ = false;
            b_ = 0;
            t_ = 0;
            ++it_;
        }
        return false;
    }

  private:
    void
    emitTile(core::PhaseSink &sink, u32 b, u32 t, u64 edges,
             u64 block_lo, u64 block_hi, u64 eb)
    {
        const GraphTiles &tiles = k_->tiles_;
        const SpmvEngineConfig &engine = k_->engine_;
        scratch_.name = "it" + std::to_string(it_) + ".b" +
                        std::to_string(b) + ".t" + std::to_string(t);
        scratch_.computeCycles =
            std::max<Cycles>(1, edges / engine.lanes);
        scratch_.accesses.clear();
        // Sparse adjacency tile: sequential read, tile-grained MAC
        // (the paper's per-tile MAC; 512 B default covers it since
        // the tile is one contiguous run).
        scratch_.accesses.push_back(
            {k_->adjacencyBase_ + tileOffset_[b][t], edges * eb, vnAdj_,
             AccessType::Read, DataClass::GraphMatrix, 0});
        // Rank tile for the source vertices of this tile.
        const u64 tile_lo =
            std::min<u64>(static_cast<u64>(t) * engine.srcTileVertices,
                          tiles.vertices);
        const u64 tile_hi = std::min<u64>(
            tile_lo + engine.srcTileVertices, tiles.vertices);
        if (k_->vectorAccess_ == VectorAccess::Sequential) {
            if (tile_hi > tile_lo) {
                scratch_.accesses.push_back(
                    {bufIn_ + tile_lo * eb, (tile_hi - tile_lo) * eb,
                     vnRead_, AccessType::Read, DataClass::GraphVector,
                     0});
            }
        } else {
            // SpMSpV: gather one vector entry per edge sample (capped
            // so trace size stays bounded); fine MACs.
            const u64 gathers = std::min<u64>(edges, tile_hi - tile_lo);
            for (u64 i = 0; i < gathers; ++i) {
                const u64 v = tile_lo + rng_.below(tile_hi - tile_lo);
                scratch_.accesses.push_back(
                    {bufIn_ + alignDown(v * eb, 64), 64, vnRead_,
                     AccessType::Read, DataClass::GraphVector, 64});
            }
        }
        // Partial updated-rank stays on chip; only the final tile of
        // a block writes it out (Fig. 10).
        if (t + 1 == tiles.srcTiles && block_hi > block_lo) {
            scratch_.accesses.push_back(
                {bufOut_ + block_lo * eb, (block_hi - block_lo) * eb,
                 vnWrite_, AccessType::Write, DataClass::GraphVector,
                 0});
        }
        sink.consume(scratch_);
    }

    GraphKernel *k_;
    Vn vnAdj_;
    Rng rng_;
    std::vector<std::vector<u64>> tileOffset_;
    u32 it_ = 1;
    u32 b_ = 0;
    u32 t_ = 0;
    bool iterOpen_ = false;
    Vn vnRead_ = 0;
    Vn vnWrite_ = 0;
    Addr bufIn_ = 0;
    Addr bufOut_ = 0;
    Phase scratch_;
};

std::unique_ptr<core::PhaseSource>
GraphKernel::stream()
{
    return std::make_unique<Source>(*this);
}

} // namespace mgx::graph
