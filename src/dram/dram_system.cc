#include "dram_system.h"

#include <algorithm>

#include "common/bitops.h"

namespace mgx::dram {

DramSystem::DramSystem(const Ddr4Config &cfg)
    : cfg_(cfg), map_(cfg)
{
    channels_.reserve(cfg_.channels);
    for (u32 c = 0; c < cfg_.channels; ++c)
        channels_.push_back(std::make_unique<DramChannel>(cfg_));
}

Cycles
DramSystem::accessRange(Addr addr, u64 bytes, bool is_write, Cycles arrival)
{
    if (bytes == 0)
        return arrival;
    const u32 block = map_.blockBytes();
    const Addr first = alignDown(addr, block);
    if (addr + bytes - first <= block) // one block: one decode
        return std::max(arrival, access({addr, is_write, arrival}));
    const u64 blocks =
        (alignDown(addr + bytes - 1, block) - first) / block + 1;
    AddressMap::LineWalker walker = map_.walkerAt(first);
    accessCount_ += blocks;
    const u32 channels = channelCount();
    Cycles done = arrival;
    if (blocks <= channels) {
        // At most one block per channel (short gathers): nothing to
        // run-length, so the per-line walk is the cheapest path.
        for (u64 i = 0; i < blocks; ++i, walker.next()) {
            const Coord &coord = walker.coord();
            Cycles c =
                channels_[coord.channel]->access(coord, is_write, arrival);
            done = std::max(done, c);
        }
        return done;
    }
    // Serve the range one channel at a time, as row runs. Bitwise
    // identical to the interleaved per-line walk: a channel's timing
    // depends only on its own ordered command stream (kept: ascending
    // columns), every block shares one arrival, and the range returns
    // a max. The first `channels` blocks visit each channel once, at
    // its first block.
    for (u32 k = 0; k < channels; ++k, walker.next()) {
        AddressMap::LineWalker lane = walker;
        DramChannel &channel = *channels_[lane.coord().channel];
        for (u64 left = (blocks - k + channels - 1) / channels; left > 0;) {
            const u32 run = static_cast<u32>(
                std::min<u64>(left, lane.columnsLeftInRow()));
            done = std::max(done, channel.accessRun(lane.coord(), run,
                                                    is_write, arrival));
            lane.nextInChannel(run);
            left -= run;
        }
    }
    return done;
}

Cycles
DramSystem::lastCompletion() const
{
    Cycles t = 0;
    for (const auto &ch : channels_)
        t = std::max(t, ch->lastCompletion());
    return t;
}

ChannelCounters
DramSystem::counters() const
{
    ChannelCounters sum;
    for (const auto &ch : channels_) {
        const ChannelCounters &c = ch->counters();
        sum.rowHits += c.rowHits;
        sum.rowMisses += c.rowMisses;
        sum.rowConflicts += c.rowConflicts;
        sum.reads += c.reads;
        sum.writes += c.writes;
        sum.refreshStallCycles += c.refreshStallCycles;
    }
    return sum;
}

} // namespace mgx::dram
