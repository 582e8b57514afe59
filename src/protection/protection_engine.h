/**
 * @file
 * Timing model of the memory-protection unit (paper Fig. 2).
 *
 * The engine sits between the accelerator and DRAM. For every logical
 * access it issues the data requests plus whatever metadata traffic the
 * active scheme requires:
 *
 *  - NP:      data only.
 *  - BP:      per-64 B VN + MAC lines and an integrity-tree walk, all
 *             through the shared 32 KB write-back metadata cache; tree
 *             walks stop at the first cached (trusted) node.
 *  - MGX:     data plus uncached coarse-grained MAC lines. Reads expand
 *             to MAC-block boundaries (the whole block is needed to
 *             verify the tag); partial-block writes read-modify-write
 *             the block edges and tag lines.
 *  - MGX_VN:  like MGX with the MAC granularity forced to 64 B.
 *  - MGX_MAC: BP's VN/tree path combined with MGX's coarse MAC path.
 *
 * The engine never touches data bytes; functional security lives in
 * SecureMemory. Both consume the same kernel-generated VNs.
 *
 * Which metadata lines an access needs follows from on-chip state
 * alone (the metadata cache and the layout); DRAM timing only decides
 * when they arrive. So the engine's one output is the DRAM command log
 * (dram/command_log.h): every path records Line and Range commands
 * and tracks no completion time. A timed engine records into its own
 * dram::TimedRecorder, which plays each access's commands at the
 * access's arrival before access() returns; a recording engine writes
 * into another thread's recorder (the engine/DRAM split,
 * sim/pipeline.h).
 *
 * BP streams: each VN line and tree node is recorded the moment the
 * cache resolves it, with any dirty victim that lookup evicts; only
 * the per-block MAC lines wait, as 8-byte words, until the access's
 * VN/tree lines are out. Every channel sees the data range, then
 * VN/tree lines in block order, then MAC lines in block order, and
 * memory stays bounded by the MAC words of one access.
 */

#ifndef MGX_PROTECTION_PROTECTION_ENGINE_H
#define MGX_PROTECTION_PROTECTION_ENGINE_H

#include <memory>
#include <vector>

#include "core/access.h"
#include "dram/command_log.h"
#include "meta_cache.h"
#include "metadata_layout.h"
#include "scheme.h"

namespace mgx::protection {

/** Per-category traffic counters of one engine run. */
struct TrafficBreakdown
{
    u64 dataBytes = 0;   ///< requested data traffic (as issued by NP)
    u64 expandBytes = 0; ///< read/write amplification from coarse MACs
    u64 macBytes = 0;    ///< MAC tag lines
    u64 vnBytes = 0;     ///< VN lines (BP / MGX_MAC)
    u64 treeBytes = 0;   ///< integrity-tree lines (BP / MGX_MAC)

    u64
    totalBytes() const
    {
        return dataBytes + expandBytes + macBytes + vnBytes + treeBytes;
    }

    /** Metadata bytes per data byte, the paper's traffic overhead. */
    double
    overhead() const
    {
        return dataBytes == 0
                   ? 0.0
                   : static_cast<double>(totalBytes() - dataBytes) /
                         static_cast<double>(dataBytes);
    }
};

/** The protection unit's timing model. */
class ProtectionEngine
{
  public:
    /** Time every DRAM request on @p dram. */
    ProtectionEngine(const ProtectionConfig &cfg, dram::DramSystem *dram);

    /**
     * Record every DRAM request into @p recorder instead of timing it.
     * Every counter of the engine (traffic, metadata cache, logical
     * accesses) is the same as on a DramSystem; access() and flush()
     * time nothing and return their arrival.
     */
    ProtectionEngine(const ProtectionConfig &cfg,
                     dram::CommandRecorder *recorder);

    /**
     * Issue one logical access and all implied metadata traffic.
     * @param arrival controller cycle the access becomes ready
     * @return completion cycle of the last implied DRAM burst (plus the
     *         AES pipeline latency on the read path)
     */
    Cycles access(const core::LogicalAccess &acc, Cycles arrival);

    /** Write back all dirty metadata (end of run). */
    Cycles flush(Cycles arrival);

    /** Per-category traffic counters. */
    const TrafficBreakdown &traffic() const { return traffic_; }

    /** The shared metadata cache (hit/miss/writeback counters). */
    const MetaCache &metaCache() const { return cache_; }

    /** Logical accesses served (the kernel-facing request count). */
    u64 logicalAccesses() const { return logicalAccesses_; }

    /**
     * The DRAM system behind this engine (real access counts). Not
     * available on a recording engine.
     */
    const dram::DramSystem &dram() const { return timed_->player.dram(); }

    const MetadataLayout &layout() const { return layout_; }

  private:
    /** Data+MAC path shared by MGX and MGX_VN (and MGX_MAC's MAC half). */
    void mgxMacPath(const core::LogicalAccess &acc, u32 gran, bool data_too);

    /** BP's per-64 B VN + tree (+ optional MAC) path. */
    void baselinePath(const core::LogicalAccess &acc, bool mac_per_block);

    /** The traffic counter a @p cls metadata line is charged to. */
    u64 &trafficFor(MetaClass cls);

    ProtectionConfig cfg_;
    MetadataLayout layout_;
    std::unique_ptr<dram::TimedRecorder> timed_; ///< timed engines only
    dram::CommandRecorder *recorder_;            ///< the one output
    MetaCache cache_;
    TrafficBreakdown traffic_;
    u64 logicalAccesses_ = 0;
    // BP's MAC lines of one access, `line | write` (lines are 64 B
    // aligned), issued in push order once its VN/tree lines are out.
    // Reused across calls, so the hot path stops allocating at its
    // high-water mark.
    std::vector<u64> macWords_;
    // Same-line coalescing memos: consecutive baseline blocks usually
    // share their VN/MAC line and level-1 tree node, so the common
    // case touches the memoized line instead of re-probing the set
    // (see MetaCache::touch). One memo per metadata request stream.
    MetaCache::Memo vnMemo_;
    MetaCache::Memo macMemo_;
    MetaCache::Memo treeMemo_;
    // End-of-run flush scratch (same reuse pattern as the queues).
    std::vector<MetaCache::FlushedLine> flushScratch_;
};

} // namespace mgx::protection

#endif // MGX_PROTECTION_PROTECTION_ENGINE_H
