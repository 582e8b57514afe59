/**
 * @file
 * Timing model of one DDR4 channel.
 *
 * The model is O(1) per request: requests issue in arrival order, but
 * bank-level parallelism is captured through per-bank ready times, the
 * shared data bus through a bus-free time, activates through tRRD/tFAW
 * windows, and refresh through periodic tRFC blackouts. Row-buffer
 * state gives the open-page hit/miss/conflict behaviour that dominates
 * streaming-accelerator bandwidth.
 *
 * Hot-path notes: statistics bump plain channel-local integers (no
 * per-access map lookups; DramSystem::counters() sums them on
 * demand), the refresh phase is derived from a cached
 * tREFI window (no per-access division in steady state), and
 * same-open-row same-direction bursts take a short fast path that
 * skips the activate/precharge state machine — all
 * cycle-bitwise-identical to the general path. accessRun() goes one
 * step further for a row's worth of consecutive columns: the fast
 * path's recurrences have a closed form, so a stretch of row hits
 * costs O(1) instead of O(columns).
 *
 * A channel is entirely self-contained: banks, bus, activate windows,
 * refresh phase, and counters are all channel-local, so its timing
 * depends only on its own ordered command stream. That is what lets
 * DramSystem::accessRange serve a range channel by channel instead of
 * interleaving lines across channels.
 */

#ifndef MGX_DRAM_DRAM_CHANNEL_H
#define MGX_DRAM_DRAM_CHANNEL_H

#include <vector>

#include "ddr4_timing.h"
#include "request.h"

namespace mgx::dram {

/**
 * Channel-local event counters as plain integers. DramSystem::counters()
 * sums them over the channels.
 */
struct ChannelCounters
{
    u64 rowHits = 0;
    u64 rowMisses = 0;
    u64 rowConflicts = 0;
    u64 reads = 0;
    u64 writes = 0;
    u64 refreshStallCycles = 0;

    u64 requests() const { return reads + writes; }
};

/** Per-bank row-buffer and availability state. */
struct BankState
{
    static constexpr u32 kNoRow = 0xffffffff;

    u32 openRow = kNoRow;   ///< currently open row, kNoRow if precharged
    Cycles readyAt = 0;     ///< earliest cycle a new command may start
    Cycles activatedAt = 0; ///< when the open row was activated (tRAS)
};

/** One channel: banks, shared data bus, activate windows, refresh. */
class DramChannel
{
  public:
    explicit DramChannel(const Ddr4Config &cfg);

    /**
     * Serve one column access.
     * @param coord   decoded device coordinates (must be this channel)
     * @param is_write write or read
     * @param arrival earliest controller cycle the access may begin
     * @return cycle at which the data burst completes
     */
    Cycles access(const Coord &coord, bool is_write, Cycles arrival);

    /**
     * Serve @p count consecutive columns of one row in one bank, all
     * arriving at @p arrival — cycle- and counter-identical to
     * @p count access() calls. The first column takes access(); every
     * later one is a same-direction row hit, so each stretch of them
     * whose command starts stay inside the cached refresh window is
     * applied in closed form. Columns leaving the window, and writes
     * under timings that break the closed form's guard, fall back to
     * access().
     * @param first coordinates of the first column (its column field
     *              is not timing-visible)
     * @return completion cycle of the run's last (and latest) burst
     */
    Cycles accessRun(const Coord &first, u32 count, bool is_write,
                     Cycles arrival);

    /** Completion time of the latest burst seen so far. */
    Cycles lastCompletion() const { return lastCompletion_; }

    /** Channel-local event counters (see ChannelCounters). */
    const ChannelCounters &counters() const { return counters_; }

  private:
    /** Delay @p t past any refresh blackout it overlaps. */
    Cycles refreshAdjust(Cycles t);

    /** Earliest cycle a new ACT may issue given tRRD and tFAW. */
    Cycles earliestActivate(Cycles t) const;

    /** Record an ACT for the tRRD/tFAW windows. */
    void recordActivate(Cycles t);

    const Ddr4Config &cfg_;
    std::vector<BankState> banks_;
    Cycles busFreeAt_ = 0;
    bool lastBurstWrite_ = false;
    Cycles lastActivate_ = 0;
    Cycles activateWindow_[4] = {};
    unsigned activateIdx_ = 0;
    Cycles lastCompletion_ = 0;
    /** Start of the tREFI window containing the last adjusted cycle. */
    Cycles refreshWinStart_ = 0;

    ChannelCounters counters_;
};

} // namespace mgx::dram

#endif // MGX_DRAM_DRAM_CHANNEL_H
