/**
 * @file
 * Multi-channel DRAM system: the Ramulator stand-in. Decodes addresses,
 * routes each 64-byte access to its channel, and reports completion
 * times and aggregate statistics. Contiguous ranges decode
 * incrementally through AddressMap::LineWalker instead of re-deriving
 * every line's coordinates, and ranges long enough to give a channel
 * several blocks are timed channel by channel as row runs
 * (DramChannel::accessRun).
 *
 * Channel-sharded replay seam: while a CaptureBuffer is attached
 * (beginCapture), every entry point decodes exactly as it would when
 * timing inline, but appends the pre-decoded request to the buffer's
 * per-channel lane and returns without touching channel state. The
 * captured lanes preserve each channel's serial command order, and a
 * channel's timing depends only on its own ordered stream — so
 * replaying each lane later (possibly on its own thread, see
 * sim/shard.h) reproduces the serial completion times bit for bit.
 */

#ifndef MGX_DRAM_DRAM_SYSTEM_H
#define MGX_DRAM_DRAM_SYSTEM_H

#include <memory>
#include <span>
#include <vector>

#include "address_map.h"
#include "common/stats.h"
#include "ddr4_timing.h"
#include "dram_channel.h"
#include "request.h"

namespace mgx::dram {

/** One pre-decoded request captured for deferred (sharded) replay. */
struct CapturedRequest
{
    Coord coord;
    bool isWrite = false;
    /**
     * Completion feeds the crypto-latency merge group: the request
     * belongs to a read access whose engine completion gets the AES
     * pipeline latency added (see ProtectionEngine::access). The
     * merge adds that constant to the max over this group instead of
     * per access — identical because every access in a phase shares
     * one arrival cycle.
     */
    bool crypto = false;
};

/**
 * Per-channel pre-decoded request lanes for one replay step (a phase's
 * traffic, or the end-of-run flush batch). Reused across steps:
 * reset() keeps lane capacity, so a steady-state phase captures
 * without allocating. All requests in a buffer share one arrival
 * cycle — the perf model issues every access of a phase at the same
 * mem_free edge.
 */
class CaptureBuffer
{
  public:
    /** Clear all lanes for a new step arriving at @p arrival. */
    void
    reset(u32 channels, Cycles arrival)
    {
        if (lanes_.size() != channels)
            lanes_.resize(channels);
        for (auto &lane : lanes_)
            lane.clear();
        arrival_ = arrival;
        crypto_ = false;
        total_ = 0;
    }

    /** Tag subsequently captured requests as crypto-group members. */
    void setCryptoTag(bool on) { crypto_ = on; }

    /** Arrival cycle shared by every captured request. */
    Cycles arrival() const { return arrival_; }

    u32 channels() const { return static_cast<u32>(lanes_.size()); }

    /** Channel @p c's captured stream, in serial command order. */
    std::span<const CapturedRequest>
    lane(u32 c) const
    {
        return {lanes_[c].data(), lanes_[c].size()};
    }

    /** Requests captured across all lanes this step. */
    u64 totalRequests() const { return total_; }

    /** Append one decoded request to its channel's lane. */
    void
    emit(const Coord &coord, bool is_write)
    {
        lanes_[coord.channel].push_back({coord, is_write, crypto_});
        ++total_;
    }

  private:
    std::vector<std::vector<CapturedRequest>> lanes_;
    Cycles arrival_ = 0;
    bool crypto_ = false;
    u64 total_ = 0;
};

/** The full off-chip memory system seen by the protection engine. */
class DramSystem
{
  public:
    explicit DramSystem(const Ddr4Config &cfg);

    /**
     * Serve one access; splits nothing (callers issue block-granular
     * requests). @return completion cycle of the data burst.
     */
    Cycles access(const Request &req);

    /**
     * Serve one access at pre-decoded coordinates — the hot path for
     * callers that walk ranges with a LineWalker and for repeated
     * accesses to the same line (read-modify-write pairs).
     */
    Cycles
    accessCoord(const Coord &coord, bool is_write, Cycles arrival)
    {
        ++accessCount_;
        if (capture_ != nullptr) {
            capture_->emit(coord, is_write);
            return arrival;
        }
        return channels_[coord.channel]->access(coord, is_write,
                                                arrival);
    }

    /**
     * Serve a contiguous @p bytes-long transfer starting at @p addr as a
     * run of block accesses all arriving at @p arrival. Ranges that
     * give some channel two or more blocks are served channel by
     * channel as DramChannel::accessRun row runs; shorter ranges, and
     * capture mode, walk line by line. Both are bitwise-identical to
     * one access() per block in address order.
     * @return completion cycle of the last burst.
     */
    Cycles accessRange(Addr addr, u64 bytes, bool is_write, Cycles arrival);

    /**
     * Serve a batch of block requests in order — the replay path for
     * deferred metadata queues. Equivalent to calling access() per
     * request and taking the max completion (the per-channel command
     * streams are identical, so every cycle and statistic matches bit
     * for bit); the win is that runs of same-line and
     * consecutive-line requests — the shape metadata miss streams
     * have — decode incrementally instead of from scratch.
     * @return max completion cycle across the batch; 0 when empty
     */
    Cycles accessBatch(std::span<const Request> reqs);

    /**
     * Divert all entry points into @p buf: decode (and bump
     * accessCount) exactly as inline timing would, but append to the
     * buffer's lanes and return the arrival cycle unchanged. The
     * caller replays the lanes later against the channels (see
     * sim/shard.h) and must endCapture() first.
     */
    void beginCapture(CaptureBuffer *buf) { capture_ = buf; }

    /** Resume inline timing. */
    void endCapture() { capture_ = nullptr; }

    bool capturing() const { return capture_ != nullptr; }

    /** Channel @p c, for shard workers replaying captured lanes. */
    DramChannel &channel(u32 c) { return *channels_[c]; }

    u32
    channelCount() const
    {
        return static_cast<u32>(channels_.size());
    }

    /** Completion time of the latest burst across all channels. */
    Cycles lastCompletion() const;

    /** Number of block accesses served so far. */
    u64 accessCount() const { return accessCount_; }

    /**
     * Aggregate statistics (row hits, misses, refresh stalls, ...).
     * Channels count events locally (so shard workers never share
     * slots); the named group is synced from them on each call.
     */
    const StatGroup &stats() const;

    /** Block (column access) size in bytes. */
    u32 blockBytes() const { return map_.blockBytes(); }

    /** The address map (range walkers for streaming callers). */
    const AddressMap &map() const { return map_; }

    const Ddr4Config &config() const { return cfg_; }

  private:
    Ddr4Config cfg_;
    AddressMap map_;
    /** Synced from the channels' local counters on stats() reads. */
    mutable StatGroup stats_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    u64 accessCount_ = 0;
    CaptureBuffer *capture_ = nullptr;
};

} // namespace mgx::dram

#endif // MGX_DRAM_DRAM_SYSTEM_H
