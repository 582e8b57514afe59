#include "dram_channel.h"

#include <algorithm>
#include <cassert>

namespace mgx::dram {

DramChannel::DramChannel(const Ddr4Config &cfg)
    : cfg_(cfg),
      banks_(static_cast<std::size_t>(cfg.banksPerRank) *
             cfg.ranksPerChannel)
{
}

Cycles
DramChannel::refreshAdjust(Cycles t)
{
    // All banks are blocked for tRFC at every tREFI boundary. A command
    // that would start inside the blackout is pushed past it. The
    // division only happens when t leaves the cached tREFI window;
    // streaming accesses stay inside it for thousands of bursts.
    if (t < refreshWinStart_ || t - refreshWinStart_ >= cfg_.tREFI)
        refreshWinStart_ = t / cfg_.tREFI * cfg_.tREFI;
    const Cycles phase = t - refreshWinStart_;
    if (phase < cfg_.tRFC) {
        counters_.refreshStallCycles += cfg_.tRFC - phase;
        return t + (cfg_.tRFC - phase);
    }
    return t;
}

Cycles
DramChannel::earliestActivate(Cycles t) const
{
    Cycles earliest = std::max(t, lastActivate_ + cfg_.tRRD);
    // tFAW: at most four activates per rolling window.
    Cycles fourth = activateWindow_[activateIdx_];
    if (fourth + cfg_.tFAW > earliest)
        earliest = fourth + cfg_.tFAW;
    return earliest;
}

void
DramChannel::recordActivate(Cycles t)
{
    lastActivate_ = t;
    activateWindow_[activateIdx_] = t;
    activateIdx_ = (activateIdx_ + 1) % 4;
}

Cycles
DramChannel::access(const Coord &coord, bool is_write, Cycles arrival)
{
    const u32 bank_id = coord.rank * cfg_.banksPerRank + coord.bank;
    BankState &bank = banks_[bank_id];

    // Same-open-row fast path: a row hit with no bus-direction switch
    // whose start cycle falls inside the cached refresh window (past
    // its blackout) reduces to max/add arithmetic — the activate/
    // precharge machinery below cannot change the outcome. Bitwise
    // identical to the general path.
    if (bank.openRow == coord.row && is_write == lastBurstWrite_) {
        const Cycles start = std::max(arrival, bank.readyAt);
        if (start >= refreshWinStart_ + cfg_.tRFC &&
            start - refreshWinStart_ < cfg_.tREFI) {
            ++counters_.rowHits;
            const Cycles burst_start = std::max(
                start + (is_write ? cfg_.tCWL : cfg_.tCL), busFreeAt_);
            const Cycles burst_end = burst_start + cfg_.burstCycles();
            busFreeAt_ = burst_end;
            bank.readyAt = start + cfg_.tCCD;
            if (is_write) {
                bank.readyAt =
                    std::max(bank.readyAt, burst_end + cfg_.tWR);
                ++counters_.writes;
            } else {
                ++counters_.reads;
            }
            lastCompletion_ = std::max(lastCompletion_, burst_end);
            return burst_end;
        }
    }

    Cycles start = refreshAdjust(std::max(arrival, bank.readyAt));

    Cycles column_cmd; // cycle the RD/WR command issues
    if (bank.openRow == coord.row) {
        // Row hit: column command can go immediately.
        ++counters_.rowHits;
        column_cmd = start;
    } else {
        Cycles act_at;
        if (bank.openRow == BankState::kNoRow) {
            // Bank precharged: just activate.
            ++counters_.rowMisses;
            act_at = earliestActivate(start);
        } else {
            // Conflict: precharge (respecting tRAS), then activate.
            ++counters_.rowConflicts;
            Cycles pre_at =
                std::max(start, bank.activatedAt + cfg_.tRAS);
            act_at = earliestActivate(pre_at + cfg_.tRP);
        }
        recordActivate(act_at);
        bank.openRow = coord.row;
        bank.activatedAt = act_at;
        column_cmd = act_at + cfg_.tRCD;
    }

    const u32 cas = is_write ? cfg_.tCWL : cfg_.tCL;
    // The data burst occupies the shared bus after the CAS latency;
    // switching the bus direction costs a turnaround gap.
    Cycles bus_ready = busFreeAt_;
    if (is_write != lastBurstWrite_)
        bus_ready += lastBurstWrite_ ? cfg_.tWTR : cfg_.tRTW;
    Cycles burst_start = std::max(column_cmd + cas, bus_ready);
    Cycles burst_end = burst_start + cfg_.burstCycles();
    busFreeAt_ = burst_end;
    lastBurstWrite_ = is_write;

    // Next command to this bank must respect column-to-column timing and,
    // for writes, the write-recovery time before a future precharge. The
    // simplified model folds tWR into bank readiness.
    bank.readyAt = column_cmd + cfg_.tCCD;
    if (is_write)
        bank.readyAt = std::max(bank.readyAt, burst_end + cfg_.tWR);

    ++(is_write ? counters_.writes : counters_.reads);
    lastCompletion_ = std::max(lastCompletion_, burst_end);
    return burst_end;
}

Cycles
DramChannel::accessRun(const Coord &first, u32 count, bool is_write,
                       Cycles arrival)
{
    assert(count > 0);
    access(first, is_write, arrival);
    BankState &bank = banks_[first.rank * cfg_.banksPerRank + first.bank];
    const Cycles bl = cfg_.burstCycles();
    // A write's recovery (burst end + tWR) outlasts its tCCD exactly
    // when this guard holds; then each later write starts tWR after
    // the previous burst ends and bursts repeat with this period.
    const Cycles write_period = cfg_.tCWL + bl + cfg_.tWR;
    const bool closed_form = !is_write || write_period >= cfg_.tCCD;

    for (u64 left = count - 1; left > 0;) {
        // The row is open and the bus faces this direction, so every
        // remaining column would take access()'s fast path while its
        // start stays inside the cached refresh window. Any later
        // start is >= arrival (it is >= the previous column's command),
        // so only this stretch's first start can be the arrival.
        const Cycles start = std::max(arrival, bank.readyAt);
        const Cycles win_end = refreshWinStart_ + cfg_.tREFI;
        if (!closed_form || start < refreshWinStart_ + cfg_.tRFC ||
            start >= win_end) {
            access(first, is_write, arrival);
            --left;
            continue;
        }
        u64 n;             // columns in this stretch
        Cycles last_burst; // burst start of its last column
        if (!is_write) {
            // Column m starts at start + m*tCCD and bursts at
            // max(b0 + m*BL, start + tCL + m*tCCD).
            const u64 fit = cfg_.tCCD == 0
                                ? left
                                : (win_end - 1 - start) / cfg_.tCCD + 1;
            n = std::min(left, fit);
            const Cycles b0 = std::max(start + cfg_.tCL, busFreeAt_);
            last_burst = std::max(b0 + (n - 1) * bl,
                                  start + cfg_.tCL + (n - 1) * cfg_.tCCD);
            bank.readyAt = start + n * cfg_.tCCD;
            counters_.reads += n;
        } else {
            // Column m >= 1 starts at b0 - tCWL + m*period and bursts
            // at b0 + m*period.
            const Cycles b0 = std::max(start + cfg_.tCWL, busFreeAt_);
            const Cycles base = b0 - cfg_.tCWL;
            u64 fit = left;
            if (write_period != 0)
                fit = base + write_period >= win_end
                          ? 1
                          : (win_end - 1 - base) / write_period + 1;
            n = std::min(left, fit);
            last_burst = b0 + (n - 1) * write_period;
            bank.readyAt = last_burst + bl + cfg_.tWR;
            counters_.writes += n;
        }
        busFreeAt_ = last_burst + bl;
        counters_.rowHits += n;
        lastCompletion_ = std::max(lastCompletion_, busFreeAt_);
        left -= n;
    }
    // Bursts serialize on the bus, so the last one ends last.
    return busFreeAt_;
}

} // namespace mgx::dram
