/**
 * @file
 * Multi-channel DRAM system: the Ramulator stand-in. Decodes addresses,
 * routes each 64-byte access to its channel, and reports completion
 * times and aggregate statistics; dram::CommandPlayer feeds it the
 * protection engine's command log. A single line costs one decode and
 * one channel access. Ranges of several blocks decode incrementally
 * through AddressMap::LineWalker instead of re-deriving every line's
 * coordinates, and ranges long enough to give a channel several blocks
 * are timed channel by channel as row runs (DramChannel::accessRun).
 */

#ifndef MGX_DRAM_DRAM_SYSTEM_H
#define MGX_DRAM_DRAM_SYSTEM_H

#include <memory>
#include <vector>

#include "address_map.h"
#include "ddr4_timing.h"
#include "dram_channel.h"
#include "request.h"

namespace mgx::dram {

/** The full off-chip memory system seen by the protection engine. */
class DramSystem
{
  public:
    explicit DramSystem(const Ddr4Config &cfg);

    /**
     * Serve one access; splits nothing (callers issue block-granular
     * requests). @return completion cycle of the data burst.
     */
    Cycles
    access(const Request &req)
    {
        const Coord coord = map_.decode(req.addr);
        ++accessCount_;
        return channels_[coord.channel]->access(coord, req.isWrite,
                                                req.arrival);
    }

    /**
     * Serve a contiguous @p bytes-long transfer starting at @p addr as a
     * run of block accesses all arriving at @p arrival. A range inside
     * one block is one access(). Ranges that give some channel two or
     * more blocks are served channel by channel as
     * DramChannel::accessRun row runs; other ranges walk line by line.
     * All are bitwise-identical to one access() per block in address
     * order.
     * @return completion cycle of the last burst.
     */
    Cycles accessRange(Addr addr, u64 bytes, bool is_write, Cycles arrival);

    /** Channel @p c (its per-channel counters and timing state). */
    const DramChannel &channel(u32 c) const { return *channels_[c]; }

    u32
    channelCount() const
    {
        return static_cast<u32>(channels_.size());
    }

    /** Completion time of the latest burst across all channels. */
    Cycles lastCompletion() const;

    /** Number of block accesses served so far. */
    u64 accessCount() const { return accessCount_; }

    /** Every channel's event counters, summed (see ChannelCounters). */
    ChannelCounters counters() const;

    /** Block (column access) size in bytes. */
    u32 blockBytes() const { return map_.blockBytes(); }

    const Ddr4Config &config() const { return cfg_; }

  private:
    Ddr4Config cfg_;
    AddressMap map_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    u64 accessCount_ = 0;
};

} // namespace mgx::dram

#endif // MGX_DRAM_DRAM_SYSTEM_H
