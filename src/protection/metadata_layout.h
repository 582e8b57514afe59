/**
 * @file
 * Address-space layout of protection metadata.
 *
 * The protected data region occupies [0, protectedBytes). Metadata
 * regions are appended above it in DRAM:
 *
 *   [macBase, ...)   one tag per MAC block of data
 *   [vnBase,  ...)   one VN per baseline block (BP / MGX_MAC only)
 *   [treeBase[l], .) integrity-tree levels over the VN lines, level 1
 *                    nearest the leaves; the root stays on-chip
 *
 * All metadata is accessed at 64-byte line granularity, matching the
 * DRAM burst size.
 */

#ifndef MGX_PROTECTION_METADATA_LAYOUT_H
#define MGX_PROTECTION_METADATA_LAYOUT_H

#include <algorithm>
#include <vector>

#include "common/bitops.h"
#include "common/types.h"
#include "scheme.h"

namespace mgx::protection {

/** Computes metadata addresses for one ProtectionConfig. */
class MetadataLayout
{
  public:
    static constexpr u32 kLineBytes = 64;

    explicit MetadataLayout(const ProtectionConfig &cfg);

    /** 64 B-aligned address of the MAC line holding the tag for the MAC
     *  block containing @p data_addr, at granularity @p mac_gran. */
    Addr macLineAddr(Addr data_addr, u32 mac_gran) const;

    /** 64 B-aligned address of the VN line for baseline block
     *  @p data_addr. */
    Addr vnLineAddr(Addr data_addr) const;

    /** Number of in-DRAM tree levels (root excluded). */
    u32 treeLevels() const { return static_cast<u32>(treeBase_.size()); }

    /**
     * Address of the tree node at @p level (1 = closest to the VN
     * lines) on the path of baseline block @p data_addr.
     */
    Addr treeNodeAddr(u32 level, Addr data_addr) const;

    /**
     * Incremental metadata-address stream over consecutive baseline
     * blocks: the VN line, level-1 tree node, and
     * baseline-granularity MAC line of each block in a range, derived
     * with two adds per step instead of the per-block shift chains of
     * the point queries. Produced by baselineWalker(); next()
     * advances exactly one baseline block and matches vnLineAddr(),
     * treeNodeAddr(1, .) and macLineAddr(., baselineGranularity) bit
     * for bit (pinned by bp_pipeline_test.cc).
     */
    class BaselineWalker
    {
      public:
        /** VN line of the current block (== vnLineAddr). */
        Addr
        vnLine() const
        {
            return alignDown(vnBase_ + vnOff_, kLineBytes);
        }

        /** Level-1 tree node of the current block (== treeNodeAddr(1,.)).
         *  Only meaningful when the layout has at least one level. */
        Addr
        treeNode1() const
        {
            return treeBase1_ +
                   ((vnOff_ / kLineBytes) >> arityShift_) * kLineBytes;
        }

        /** Baseline-granularity MAC line (== macLineAddr(., gran)). */
        Addr
        macLine() const
        {
            return alignDown(macBase_ + macOff_, kLineBytes);
        }

        /** Advance to the next consecutive baseline block. */
        void next() { advance(1); }

        /** Advance @p k blocks (the same as k calls to next()). */
        void
        advance(u64 k)
        {
            vnOff_ += k * vnStride_;
            macOff_ += k * macStride_;
        }

        /**
         * Blocks after the current one that share its VN line, its
         * level-1 tree node and, when @p mac, its MAC line — at most
         * kLineBytes / vnBytes - 1.
         */
        u64
        sameLineBlocks(bool mac) const
        {
            constexpr u64 kLast = kLineBytes - 1;
            const u64 tree_last = (u64{kLineBytes} << arityShift_) - 1;
            u64 k = std::min(
                (kLast - ((vnBase_ + vnOff_) & kLast)) / vnStride_,
                (tree_last - (vnOff_ & tree_last)) / vnStride_);
            if (mac)
                k = std::min(
                    k, (kLast - ((macBase_ + macOff_) & kLast)) / macStride_);
            return k;
        }

      private:
        friend class MetadataLayout;
        Addr vnBase_ = 0;
        Addr macBase_ = 0;
        Addr treeBase1_ = 0;
        u64 vnOff_ = 0;     ///< byte offset into the VN region
        u64 macOff_ = 0;    ///< byte offset into the MAC region
        u32 vnStride_ = 0;  ///< VN bytes per baseline block
        u32 macStride_ = 0; ///< MAC bytes per baseline block
        u32 arityShift_ = 0;
    };

    /** Start a metadata walk at the baseline block of @p data_addr. */
    BaselineWalker baselineWalker(Addr data_addr) const;

    /** Total DRAM bytes occupied by metadata for this configuration. */
    u64 metadataBytes() const { return totalMetadataBytes_; }

    /** Start of the MAC region (for tests). */
    Addr macBase() const { return macBase_; }

    /** Start of the VN region (for tests). */
    Addr vnBase() const { return vnBase_; }

  private:
    ProtectionConfig cfg_;
    Addr macBase_ = 0;
    Addr vnBase_ = 0;
    std::vector<Addr> treeBase_; ///< treeBase_[l-1] = base of level l
    u64 totalMetadataBytes_ = 0;
    // log2 of the pow2-validated config values: the per-block address
    // computations shift instead of divide.
    u32 baselineShift_ = 0;
    u32 vnBytesShift_ = 0;
    u32 macBytesShift_ = 0;
    u32 arityShift_ = 0;
};

} // namespace mgx::protection

#endif // MGX_PROTECTION_METADATA_LAYOUT_H
