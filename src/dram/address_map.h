/**
 * @file
 * Physical-address to device-coordinate mapping.
 *
 * Uses the row:rank:bank:column-high:channel:column-low(block) order,
 * which interleaves consecutive 64-byte blocks across channels and then
 * across column space within a row, so streaming accesses hit open rows
 * on all channels — the mapping Ramulator calls RoBaRaCoCh-style
 * channel interleaving.
 *
 * Two decode paths exist: decode() splits an arbitrary address, and
 * LineWalker advances through consecutive blocks incrementally — one
 * add-and-mask per dimension with early exit, so a streaming range
 * never re-derives the whole coordinate from scratch.
 */

#ifndef MGX_DRAM_ADDRESS_MAP_H
#define MGX_DRAM_ADDRESS_MAP_H

#include "common/bitops.h"
#include "ddr4_timing.h"
#include "request.h"

namespace mgx::dram {

/** Splits byte addresses into (channel, rank, bank, row, column). */
class AddressMap
{
  public:
    explicit AddressMap(const Ddr4Config &cfg);

    /**
     * Decode @p addr (any byte address; aligned down to a block).
     * Inline: every single-line DRAM access pays it.
     */
    Coord
    decode(Addr addr) const
    {
        u64 block = addr >> blockBits_;
        Coord c;
        c.channel = static_cast<u32>(bits(block, 0, channelBits_));
        block >>= channelBits_;
        c.column = static_cast<u32>(bits(block, 0, columnBits_));
        block >>= columnBits_;
        c.bank = static_cast<u32>(bits(block, 0, bankBits_));
        block >>= bankBits_;
        c.rank = static_cast<u32>(bits(block, 0, rankBits_));
        block >>= rankBits_;
        c.row = static_cast<u32>(block) & rowMask_;
        return c;
    }

    /**
     * Incremental decoder over consecutive blocks. Produced by
     * walkerAt(); next() advances exactly one block (blockBytes) and
     * matches decode(addr + i * blockBytes) bit for bit — the unit
     * test pins this equivalence across row crossings.
     */
    class LineWalker
    {
      public:
        const Coord &coord() const { return coord_; }

        /** Advance to the next consecutive block. */
        void
        next()
        {
            // Carry-chain increment in device-coordinate space. Each
            // dimension is a power of two, so "wrapped" is "masked
            // increment landed on zero"; the common streaming case
            // stops at the first dimension.
            coord_.channel = (coord_.channel + 1) & channelMask_;
            if (coord_.channel == 0)
                nextInChannel(1);
        }

        /** Columns from the current one to the end of its row. */
        u32
        columnsLeftInRow() const
        {
            return columnMask_ + 1 - coord_.column;
        }

        /**
         * Advance @p n columns within the current channel — the same
         * as n * channels calls to next() — where
         * @p n <= columnsLeftInRow(), so the column carries at most
         * once, out of the row.
         */
        void
        nextInChannel(u32 n)
        {
            coord_.column = (coord_.column + n) & columnMask_;
            if (coord_.column != 0)
                return;
            coord_.bank = (coord_.bank + 1) & bankMask_;
            if (coord_.bank != 0)
                return;
            coord_.rank = (coord_.rank + 1) & rankMask_;
            if (coord_.rank != 0)
                return;
            coord_.row = (coord_.row + 1) & rowMask_;
        }

      private:
        friend class AddressMap;
        Coord coord_;
        u32 channelMask_ = 0;
        u32 columnMask_ = 0;
        u32 bankMask_ = 0;
        u32 rankMask_ = 0;
        u32 rowMask_ = 0;
    };

    /** Start an incremental walk at the block containing @p addr. */
    LineWalker
    walkerAt(Addr addr) const
    {
        LineWalker w;
        w.coord_ = decode(addr);
        w.channelMask_ = channels_ - 1;
        w.columnMask_ = blocksPerRow_ - 1;
        w.bankMask_ = banks_ - 1;
        w.rankMask_ = ranks_ - 1;
        w.rowMask_ = rowMask_;
        return w;
    }

    /** Size of one interleaved block (one column access). */
    u32 blockBytes() const { return blockBytes_; }

  private:
    u32 blockBytes_;
    u32 blockBits_;
    u32 channelBits_;
    u32 columnBits_; ///< bits of column-high (blocks within a row)
    u32 bankBits_;
    u32 rankBits_;
    u32 rowMask_;
    u32 channels_;
    u32 banks_;
    u32 ranks_;
    u32 blocksPerRow_;
};

} // namespace mgx::dram

#endif // MGX_DRAM_ADDRESS_MAP_H
