/**
 * @file
 * DRAM model tests: address-map properties, row-buffer behaviour,
 * bank-level parallelism, bus saturation, refresh, channel scaling,
 * and the equivalence of the row-run paths (DramChannel::accessRun,
 * DramSystem::accessRange) with per-line access().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <random>
#include <set>
#include <string>

#include "dram/dram_system.h"

namespace mgx::dram {
namespace {

TEST(AddressMap, ConsecutiveBlocksInterleaveChannels)
{
    Ddr4Config cfg = ddr4_2400(4);
    AddressMap map(cfg);
    std::set<u32> channels;
    for (Addr a = 0; a < 4 * 64; a += 64)
        channels.insert(map.decode(a).channel);
    EXPECT_EQ(channels.size(), 4u);
}

TEST(AddressMap, SameRowForSequentialAccesses)
{
    Ddr4Config cfg = ddr4_2400(1);
    AddressMap map(cfg);
    Coord first = map.decode(0);
    // A full row is rowBytes; everything below maps to the same row.
    Coord last = map.decode(cfg.rowBytes - 64);
    EXPECT_EQ(first.row, last.row);
    EXPECT_EQ(first.bank, last.bank);
    EXPECT_NE(first.column, last.column);
}

TEST(AddressMap, DistinctCoordsForDistinctBlocks)
{
    Ddr4Config cfg = ddr4_2400(2);
    AddressMap map(cfg);
    std::set<std::tuple<u32, u32, u32, u32, u32>> seen;
    for (Addr a = 0; a < 1 << 20; a += 64) {
        Coord c = map.decode(a);
        auto key = std::make_tuple(c.channel, c.rank, c.bank, c.row,
                                   c.column);
        EXPECT_TRUE(seen.insert(key).second)
            << "alias at address " << a;
    }
}

TEST(AddressMap, LineWalkerMatchesDecodePerLine)
{
    // The incremental carry-chain decode must agree with the full
    // decode for every consecutive block — across channel, column,
    // bank, rank and row carries.
    for (u32 channels : {1u, 4u}) {
        Ddr4Config cfg = ddr4_2400(channels);
        cfg.ranksPerChannel = 2;
        AddressMap map(cfg);
        // Enough blocks to cross several rows on every bank.
        const u64 blocks =
            static_cast<u64>(cfg.rowBytes / 64) * cfg.banksPerRank *
                cfg.ranksPerChannel * channels * 3 +
            17;
        const Addr start = 0x12340; // unaligned start, mid-row
        AddressMap::LineWalker w = map.walkerAt(start);
        for (u64 i = 0; i < blocks; ++i, w.next()) {
            const Coord ref = map.decode(start + i * 64);
            const Coord &got = w.coord();
            ASSERT_EQ(got.channel, ref.channel) << "block " << i;
            ASSERT_EQ(got.column, ref.column) << "block " << i;
            ASSERT_EQ(got.bank, ref.bank) << "block " << i;
            ASSERT_EQ(got.rank, ref.rank) << "block " << i;
            ASSERT_EQ(got.row, ref.row) << "block " << i;
        }
    }
}

/** The reference for accessRange: one decode-per-line access() each. */
Cycles
accessPerLine(DramSystem &sys, Addr addr, u64 bytes, bool is_write,
              Cycles arrival)
{
    const Addr first = addr & ~Addr{63};
    const Addr last = (addr + bytes - 1) & ~Addr{63};
    Cycles done = arrival;
    for (Addr a = first; a <= last; a += 64)
        done = std::max(done, sys.access({a, is_write, arrival}));
    return done;
}

void
expectSameCounters(const ChannelCounters &got, const ChannelCounters &want,
                   const std::string &where)
{
    EXPECT_EQ(got.rowHits, want.rowHits) << where;
    EXPECT_EQ(got.rowMisses, want.rowMisses) << where;
    EXPECT_EQ(got.rowConflicts, want.rowConflicts) << where;
    EXPECT_EQ(got.reads, want.reads) << where;
    EXPECT_EQ(got.writes, want.writes) << where;
    EXPECT_EQ(got.refreshStallCycles, want.refreshStallCycles) << where;
}

/** Completion, access count, lastCompletion and every channel counter. */
void
expectSameSystems(DramSystem &got, DramSystem &want, Cycles got_done,
                  Cycles want_done, const std::string &where)
{
    ASSERT_EQ(got_done, want_done) << where;
    EXPECT_EQ(got.accessCount(), want.accessCount()) << where;
    EXPECT_EQ(got.lastCompletion(), want.lastCompletion()) << where;
    for (u32 c = 0; c < got.channelCount(); ++c)
        expectSameCounters(got.channel(c).counters(),
                           want.channel(c).counters(),
                           where + " channel " + std::to_string(c));
}

TEST(DramSystem, AccessRangeMatchesPerLineAccesses)
{
    // The range path (one access() inside a block, row runs channel
    // by channel, or the per-line walk for short ranges) must time and
    // count exactly like issuing each 64 B request through the
    // decode-per-line path — over channel and rank counts, and over
    // ranges inside one block, straddling two, shorter than the
    // channel count, row-straddling, and many rows long.
    struct Input
    {
        Addr base;
        u64 bytes;
        bool write;
        Cycles arrival;
    };
    for (u32 channels : {1u, 2u, 4u}) {
        for (u32 ranks : {1u, 2u}) {
            Ddr4Config cfg = ddr4_2400(channels);
            cfg.ranksPerChannel = ranks;
            DramSystem range_sys(cfg);
            DramSystem line_sys(cfg);
            const Input inputs[] = {
                {0x7ff40, 3 * cfg.rowBytes + 100, false, 5},
                {0x100, 64, false, 5},           // one block
                {0x104, 8, true, 60},            // inside one block
                {0x13c, 8, false, 80},           // straddles two
                {0x1fc0, 2 * 64, true, 9000},    // < channels when 4
                {0x7ff40, 3 * cfg.rowBytes + 100, true, 9400},
                {0x3000000, 40 * cfg.rowBytes, false, 20000},
                {0x2ffffc0, 5 * 64 + 1, true, 20000},
            };
            for (const Input &in : inputs) {
                const std::string where =
                    std::to_string(channels) + "ch/" +
                    std::to_string(ranks) + "rk @" + std::to_string(in.base);
                const Cycles got = range_sys.accessRange(
                    in.base, in.bytes, in.write, in.arrival);
                const Cycles want = accessPerLine(
                    line_sys, in.base, in.bytes, in.write, in.arrival);
                expectSameSystems(range_sys, line_sys, got, want, where);
            }
        }
    }
}

/**
 * A seeded random organization and timing aimed at the row-run closed
 * forms: 1/2/4 channels, one or two ranks, tCCD below the burst
 * length, write recoveries too short for the write closed form,
 * refresh windows only a few bursts long, and so few rows that ranges
 * wrap the row index.
 */
Ddr4Config
randomConfig(std::mt19937_64 &rng)
{
    const auto pick = [&rng](std::initializer_list<u32> values) {
        return values.begin()[rng() % values.size()];
    };
    Ddr4Config cfg = ddr4_2400(pick({1, 2, 4}));
    cfg.ranksPerChannel = pick({1, 2});
    cfg.banksPerRank = pick({2, 4, 16});
    cfg.rowsPerBank = pick({2, 4, 32768});
    cfg.rowBytes = pick({128, 512, 8192}); // 2, 8 or 128 columns
    cfg.tCCD = pick({1, 2, 4, 6, 24});     // BL is 4 cycles
    cfg.tWR = pick({0, 1, 18});
    cfg.tCWL = pick({1, 12});
    cfg.tRFC = pick({20, 420});
    cfg.tREFI = cfg.tRFC + pick({40, 300, 9360});
    return cfg;
}

std::string
describe(const Ddr4Config &cfg)
{
    return std::to_string(cfg.channels) + "ch " +
           std::to_string(cfg.ranksPerChannel) + "rk " +
           std::to_string(cfg.banksPerRank) + "bk " +
           std::to_string(cfg.rowsPerBank) + "rows " +
           std::to_string(cfg.rowBytes) + "B tCCD=" +
           std::to_string(cfg.tCCD) + " tWR=" + std::to_string(cfg.tWR) +
           " tCWL=" + std::to_string(cfg.tCWL) +
           " tRFC=" + std::to_string(cfg.tRFC) +
           " tREFI=" + std::to_string(cfg.tREFI);
}

/** The next arrival: repeats, small and window-crossing steps, rewinds. */
Cycles
nextArrival(std::mt19937_64 &rng, Cycles arrival, const Ddr4Config &cfg)
{
    switch (rng() % 4) {
      case 0: return arrival;
      case 1: return arrival + rng() % 64;
      case 2: return arrival + rng() % (3 * cfg.tREFI);
      default: return arrival > 500 ? arrival - rng() % 500 : arrival;
    }
}

TEST(DramChannel, AccessRunMatchesPerColumnAccesses)
{
    std::mt19937_64 rng(0x5a17);
    for (int trial = 0; trial < 200; ++trial) {
        const Ddr4Config cfg = randomConfig(rng);
        DramChannel run_ch(cfg);
        DramChannel col_ch(cfg);
        const u32 columns = cfg.rowBytes / cfg.accessBytes();
        Cycles arrival = 0;
        for (int op = 0; op < 100; ++op) {
            Coord first;
            first.rank = static_cast<u32>(rng() % cfg.ranksPerChannel);
            first.bank = static_cast<u32>(rng() % cfg.banksPerRank);
            // Few rows, so runs revisit open rows as often as they
            // conflict.
            first.row =
                static_cast<u32>(rng() % std::min(3u, cfg.rowsPerBank));
            first.column = static_cast<u32>(rng() % columns);
            const u32 count =
                1 + static_cast<u32>(rng() % (columns - first.column));
            const bool write = rng() % 2 != 0;
            arrival = nextArrival(rng, arrival, cfg);

            const Cycles got =
                run_ch.accessRun(first, count, write, arrival);
            Cycles want = 0;
            for (u32 i = 0; i < count; ++i) {
                Coord c = first;
                c.column += i;
                want = std::max(want, col_ch.access(c, write, arrival));
            }
            const std::string where = describe(cfg) + " trial " +
                                      std::to_string(trial) + " op " +
                                      std::to_string(op);
            ASSERT_EQ(got, want) << where;
            ASSERT_EQ(run_ch.lastCompletion(), col_ch.lastCompletion())
                << where;
            expectSameCounters(run_ch.counters(), col_ch.counters(), where);
        }
    }
}

TEST(DramSystem, AccessRangeMatchesPerLineOnRandomConfigs)
{
    // Random read/write ranges and arrivals on one shared system per
    // configuration, so every range starts from whatever bank, bus and
    // refresh state the previous ones left behind.
    std::mt19937_64 rng(0xd7a3);
    for (int trial = 0; trial < 120; ++trial) {
        const Ddr4Config cfg = randomConfig(rng);
        DramSystem range_sys(cfg);
        DramSystem line_sys(cfg);
        // Twice the mapped capacity, so addresses wrap the row index.
        const u64 span = 2ull * cfg.channels * cfg.ranksPerChannel *
                         cfg.banksPerRank * cfg.rowsPerBank * cfg.rowBytes;
        const u64 max_bytes =
            std::min<u64>(span, 6ull * cfg.channels * cfg.rowBytes);
        Cycles arrival = 0;
        for (int op = 0; op < 60; ++op) {
            const Addr addr = rng() % span;
            const u64 bytes = rng() % 3 == 0
                                  ? 1 + rng() % (cfg.channels * 64)
                                  : 1 + rng() % max_bytes;
            const bool write = rng() % 2 != 0;
            arrival = nextArrival(rng, arrival, cfg);

            const Cycles got =
                range_sys.accessRange(addr, bytes, write, arrival);
            const Cycles want =
                accessPerLine(line_sys, addr, bytes, write, arrival);
            expectSameSystems(range_sys, line_sys, got, want,
                              describe(cfg) + " trial " +
                                  std::to_string(trial) + " op " +
                                  std::to_string(op));
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(DramChannel, RowHitIsFasterThanMiss)
{
    Ddr4Config cfg = ddr4_2400(1);
    DramSystem sys(cfg);
    // First access opens the row (miss); the second hits it.
    Cycles t1 = sys.access({0, false, 0});
    Cycles t2 = sys.access({64, false, t1});
    const Cycles miss_latency = t1;
    const Cycles hit_latency = t2 - t1;
    EXPECT_LT(hit_latency, miss_latency);
    EXPECT_EQ(sys.counters().rowHits, 1u);
}

TEST(DramChannel, RowConflictCostsPrechargeActivate)
{
    Ddr4Config cfg = ddr4_2400(1);
    DramSystem sys(cfg);
    AddressMap map(cfg);
    // Two rows in the same bank: row stride = one full bank sweep.
    Coord a = map.decode(0);
    Addr conflict = 0;
    for (Addr cand = 64; cand < (1ull << 30); cand += 64) {
        Coord c = map.decode(cand);
        if (c.channel == a.channel && c.bank == a.bank &&
            c.rank == a.rank && c.row != a.row) {
            conflict = cand;
            break;
        }
    }
    ASSERT_NE(conflict, 0u);
    Cycles t1 = sys.access({0, false, 0});
    Cycles t2 = sys.access({conflict, false, t1});
    EXPECT_EQ(sys.counters().rowConflicts, 1u);
    // Conflict pays tRAS residue + tRP + tRCD + CL; far more than a hit.
    EXPECT_GT(t2 - t1, static_cast<Cycles>(cfg.tRP + cfg.tRCD));
}

TEST(DramChannel, StreamSaturatesBusBandwidth)
{
    Ddr4Config cfg = ddr4_2400(1);
    DramSystem sys(cfg);
    const u64 blocks = 4096;
    Cycles done = sys.accessRange(0, blocks * 64, false, 0);
    // Ideal: 4 cycles per 64 B burst. Allow overheads (activates,
    // refresh) but require >70% bus utilization for a pure stream.
    const double ideal = static_cast<double>(blocks) *
                         cfg.burstCycles();
    EXPECT_LT(static_cast<double>(done), ideal / 0.7);
}

TEST(DramChannel, MoreChannelsMoreBandwidth)
{
    const u64 bytes = 1 << 20;
    DramSystem one(ddr4_2400(1));
    DramSystem four(ddr4_2400(4));
    Cycles t1 = one.accessRange(0, bytes, false, 0);
    Cycles t4 = four.accessRange(0, bytes, false, 0);
    EXPECT_GT(t1, 3 * t4); // ~4x, allow slack
}

TEST(DramChannel, RefreshStallsAppear)
{
    Ddr4Config cfg = ddr4_2400(1);
    DramSystem sys(cfg);
    // Stream long enough to cross several tREFI windows.
    sys.accessRange(0, 8ull << 20, false, 0);
    EXPECT_GT(sys.counters().refreshStallCycles, 0u);
}

TEST(DramChannel, WritesTracked)
{
    DramSystem sys(ddr4_2400(1));
    sys.accessRange(0, 1024, true, 0);
    EXPECT_EQ(sys.counters().writes, 16u);
    EXPECT_EQ(sys.counters().reads, 0u);
}

TEST(DramSystem, AccessRangeCountsBlocks)
{
    DramSystem sys(ddr4_2400(2));
    sys.accessRange(100, 1, false, 0); // 1 byte -> 1 block
    EXPECT_EQ(sys.accessCount(), 1u);
    sys.accessRange(0, 64 * 7, false, 0);
    EXPECT_EQ(sys.accessCount(), 8u);
    // Unaligned range spanning a block boundary.
    sys.accessRange(60, 8, false, 0);
    EXPECT_EQ(sys.accessCount(), 10u);
}

TEST(DramSystem, CompletionMonotoneWithArrival)
{
    DramSystem sys(ddr4_2400(1));
    Cycles t1 = sys.access({0, false, 1000});
    EXPECT_GE(t1, 1000u);
}

/** Channel-count sweep: utilization must stay high for streams. */
class ChannelSweepTest : public ::testing::TestWithParam<u32>
{
};

TEST_P(ChannelSweepTest, StreamingEfficiency)
{
    const u32 channels = GetParam();
    Ddr4Config cfg = ddr4_2400(channels);
    DramSystem sys(cfg);
    const u64 bytes = 4ull << 20;
    Cycles done = sys.accessRange(0, bytes, false, 0);
    const double ideal_cycles =
        static_cast<double>(bytes) / cfg.peakBytesPerCycle();
    EXPECT_LT(static_cast<double>(done), ideal_cycles / 0.65)
        << "channels=" << channels;
}

INSTANTIATE_TEST_SUITE_P(Channels, ChannelSweepTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

} // namespace
} // namespace mgx::dram
