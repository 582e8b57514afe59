#include "dram_system.h"

#include <algorithm>
#include <utility>

#include "common/bitops.h"

namespace mgx::dram {

DramSystem::DramSystem(const Ddr4Config &cfg)
    : cfg_(cfg), map_(cfg), stats_("dram")
{
    channels_.reserve(cfg_.channels);
    for (u32 c = 0; c < cfg_.channels; ++c)
        channels_.push_back(std::make_unique<DramChannel>(cfg_));
}

Cycles
DramSystem::access(const Request &req)
{
    Coord coord = map_.decode(req.addr);
    ++accessCount_;
    return channels_[coord.channel]->access(coord, req.isWrite,
                                            req.arrival);
}

Cycles
DramSystem::accessRange(Addr addr, u64 bytes, bool is_write, Cycles arrival)
{
    if (bytes == 0)
        return arrival;
    const u32 block = map_.blockBytes();
    const Addr first = alignDown(addr, block);
    const u64 blocks =
        (alignDown(addr + bytes - 1, block) - first) / block + 1;
    AddressMap::LineWalker walker = map_.walkerAt(first);
    accessCount_ += blocks;
    const u32 channels = channelCount();
    Cycles done = arrival;
    if (blocks <= channels) {
        // At most one block per channel (every random gather): nothing
        // to run-length, so the per-line walk is the cheapest path.
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
DramSystem::accessBatch(std::span<const Request> reqs)
{
    // Requests are served strictly in the order given: each channel's
    // command stream is timing-visible state (bus direction, open
    // rows, activate windows), so physically regrouping same-row
    // requests here would change cycle counts. The grouping the model
    // wants is already done by the callers' deferred queues; this
    // path only removes redundant address decodes.
    //
    // Metadata queues interleave (up to) two consecutive-line
    // streams: miss fills walk the VN/tree/MAC regions in address
    // order, and the dirty victims they evict — filled one cache
    // capacity earlier — walk their own ascending sequence between
    // them. Two predictor slots (most recent first) catch both; a
    // request neither slot predicts re-seeds the colder one.
    struct Slot
    {
        AddressMap::LineWalker walker;
        Addr prev = 0;
        bool valid = false;
    };
    const u32 block = map_.blockBytes();
    Cycles done = 0;
    Slot slots[2];
    for (const Request &req : reqs) {
        const Addr line = alignDown(req.addr, block);
        if (slots[0].valid && line == slots[0].prev + block) {
            slots[0].walker.next();
        } else if (slots[0].valid && line == slots[0].prev) {
            // same line again: coordinates already current
        } else if (slots[1].valid && (line == slots[1].prev + block ||
                                      line == slots[1].prev)) {
            if (line != slots[1].prev)
                slots[1].walker.next();
            std::swap(slots[0], slots[1]);
        } else {
            std::swap(slots[0], slots[1]);
            slots[0].walker = map_.walkerAt(line);
            slots[0].valid = true;
        }
        slots[0].prev = line;
        ++accessCount_;
        const Coord &coord = slots[0].walker.coord();
        const Cycles c = channels_[coord.channel]->access(
            coord, req.isWrite, req.arrival);
        done = std::max(done, c);
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

const StatGroup &
DramSystem::stats() const
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
    stats_.set("row_hits", sum.rowHits);
    stats_.set("row_misses", sum.rowMisses);
    stats_.set("row_conflicts", sum.rowConflicts);
    stats_.set("reads", sum.reads);
    stats_.set("writes", sum.writes);
    stats_.set("refresh_stall_cycles", sum.refreshStallCycles);
    return stats_;
}

} // namespace mgx::dram
