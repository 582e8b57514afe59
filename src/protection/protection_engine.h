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
 * when they arrive. So the engine can also run without a DramSystem,
 * recording every DRAM call into a dram::CommandRecorder for another
 * thread to time (the engine/DRAM split, sim/pipeline.h).
 */

#ifndef MGX_PROTECTION_PROTECTION_ENGINE_H
#define MGX_PROTECTION_PROTECTION_ENGINE_H

#include <memory>
#include <span>

#include "common/stats.h"
#include "core/access.h"
#include "dram/command_log.h"
#include "dram/dram_system.h"
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
     * time nothing, so their values are not completion times.
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

    /** Cache and engine statistics. */
    const StatGroup &stats() const { return stats_; }

    /** The shared metadata cache (hit/miss/writeback counters). */
    const MetaCache &metaCache() const { return cache_; }

    /** Logical accesses served (the kernel-facing request count). */
    u64 logicalAccesses() const { return statLogicalAccesses_.value(); }

    /**
     * The DRAM system behind this engine (real access counts). Not
     * available on a recording engine.
     */
    const dram::DramSystem &dram() const { return *dram_; }

    const MetadataLayout &layout() const { return layout_; }

  private:
    /** Data+MAC path shared by MGX and MGX_VN (and MGX_MAC's MAC half). */
    Cycles mgxMacPath(const core::LogicalAccess &acc, u32 gran,
                      Cycles arrival, bool data_too);

    /** BP's per-64 B VN + tree (+ optional MAC) path. */
    Cycles baselinePath(const core::LogicalAccess &acc, Cycles arrival,
                        bool mac_per_block);

    /** The traffic counter a @p cls metadata line is charged to. */
    u64 &trafficFor(MetaClass cls);

    // The DRAM calls: timed on dram_, or recorded into recorder_ (then
    // they return their arrival; see the recording constructor).
    Cycles issueRange(Addr addr, u64 bytes, bool is_write, Cycles arrival);
    Cycles issueLine(Addr line, bool is_write, Cycles arrival);
    Cycles issueBatch(std::span<const dram::Request> reqs);

    ProtectionConfig cfg_;
    MetadataLayout layout_;
    dram::DramSystem *dram_ = nullptr;
    dram::CommandRecorder *recorder_ = nullptr;
    u32 blockBytes_; ///< DRAM block (column access) size
    StatGroup stats_;
    MetaCache cache_;
    TrafficBreakdown traffic_;
    StatGroup::Counter statLogicalAccesses_;
    // Scratch queues reused across baselinePath calls so the per-access
    // hot path never allocates once their high-water mark is reached;
    // replayed in push order through DramSystem::accessBatch.
    std::vector<dram::Request> metaReqs_;
    std::vector<dram::Request> macReqs_;
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
