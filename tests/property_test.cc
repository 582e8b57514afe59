/**
 * @file
 * Property-based tests: randomized access sequences and kernel
 * schedules checked against invariants that must hold for *any*
 * input —
 *
 *  - protection traffic is always >= data traffic, and the scheme
 *    ordering NP <= MGX <= {MGX_VN, MGX_MAC} <= BP holds for traffic;
 *  - the functional SecureMemory and the timing engine agree on the
 *    VN discipline: whatever the random kernel writes/reads with
 *    consistent VNs round-trips, and any stale VN fails;
 *  - the metadata cache behaves identically to a reference LRU
 *    model (first empty way, else least recently used) at 2 to 16
 *    ways, through memo touches, touchRepeat, flush and reset;
 *  - DRAM completion times are monotone in arrival time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/invariant_checker.h"
#include "protection/protection_engine.h"
#include "protection/secure_memory.h"

namespace mgx {
namespace {

using core::LogicalAccess;
using protection::ProtectionConfig;
using protection::Scheme;

/** A random but VN-consistent access sequence over a small heap. */
std::vector<LogicalAccess>
randomConsistentSequence(u64 seed, unsigned count)
{
    Rng rng(seed);
    std::map<Addr, Vn> last_vn; // per 4 KB chunk
    std::vector<LogicalAccess> seq;
    Vn next_vn = 1;
    for (unsigned i = 0; i < count; ++i) {
        const Addr chunk = rng.below(64) * 4096;
        const bool write = last_vn.count(chunk) == 0 || rng.chance(0.5);
        LogicalAccess acc;
        acc.addr = chunk;
        // Writes cover the whole chunk so all its blocks share one VN;
        // reads may take any prefix.
        acc.bytes = write ? 4096 : (512u << rng.below(4));
        acc.cls = DataClass::Generic;
        if (write) {
            acc.type = AccessType::Write;
            acc.vn = core::makeVn(DataClass::Generic, next_vn);
            last_vn[chunk] = next_vn;
            ++next_vn;
        } else {
            acc.type = AccessType::Read;
            acc.vn = core::makeVn(DataClass::Generic, last_vn[chunk]);
        }
        seq.push_back(acc);
    }
    return seq;
}

class RandomSequenceTest : public ::testing::TestWithParam<u64>
{
};

TEST_P(RandomSequenceTest, TrafficOrderingHolds)
{
    auto seq = randomConsistentSequence(GetParam(), 120);
    std::map<Scheme, u64> totals;
    for (Scheme s :
         {Scheme::NP, Scheme::MGX, Scheme::MGX_VN, Scheme::MGX_MAC,
          Scheme::BP}) {
        dram::DramSystem dram(dram::ddr4_2400(1));
        ProtectionConfig cfg;
        cfg.scheme = s;
        cfg.protectedBytes = 1ull << 30;
        protection::ProtectionEngine engine(cfg, &dram);
        Cycles t = 0;
        for (const auto &acc : seq)
            t = engine.access(acc, t);
        engine.flush(t);
        totals[s] = engine.traffic().totalBytes();
        // Metadata can only add traffic.
        EXPECT_GE(engine.traffic().totalBytes(),
                  engine.traffic().dataBytes);
    }
    EXPECT_LE(totals[Scheme::NP], totals[Scheme::MGX]);
    EXPECT_LE(totals[Scheme::MGX], totals[Scheme::MGX_VN]);
    EXPECT_LE(totals[Scheme::MGX], totals[Scheme::MGX_MAC]);
    EXPECT_LE(totals[Scheme::MGX_VN], totals[Scheme::BP]);
}

TEST_P(RandomSequenceTest, InvariantCheckerAcceptsConsistent)
{
    auto seq = randomConsistentSequence(GetParam() ^ 0xabcd, 300);
    core::InvariantChecker checker(64);
    for (const auto &acc : seq)
        checker.observe(acc);
    EXPECT_TRUE(checker.report().ok);
}

TEST_P(RandomSequenceTest, SecureMemoryRoundTripsConsistentVns)
{
    Rng rng(GetParam() * 31 + 7);
    protection::SecureMemoryConfig mcfg;
    mcfg.encKey[0] = static_cast<u8>(GetParam());
    mcfg.macKey[0] = static_cast<u8>(GetParam() >> 8);
    mcfg.macGranularity = 512;
    protection::SecureMemory mem(mcfg);

    std::map<Addr, std::pair<Vn, u8>> shadow; // chunk -> (vn, fill)
    Vn next_vn = 1;
    for (int i = 0; i < 60; ++i) {
        const Addr chunk = rng.below(16) * 4096;
        if (shadow.count(chunk) == 0 || rng.chance(0.5)) {
            const u8 fill = static_cast<u8>(rng.below(256));
            mem.write(chunk, std::vector<u8>(4096, fill), next_vn);
            shadow[chunk] = {next_vn, fill};
            ++next_vn;
        } else {
            auto [vn, fill] = shadow[chunk];
            std::vector<u8> out(4096);
            ASSERT_TRUE(mem.read(chunk, out, vn));
            EXPECT_EQ(out, std::vector<u8>(4096, fill));
            // A stale VN must always fail once the chunk was
            // rewritten at least once.
            if (vn > 1) {
                EXPECT_FALSE(mem.read(chunk, out, vn - 1));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSequenceTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u,
                                           21u, 34u));

// -- cache vs reference model ---------------------------------------------------------

using protection::CacheResult;
using protection::MetaCache;
using protection::MetaClass;

/**
 * Reference LRU cache, written for obviousness rather than speed: each
 * set is `ways` slots stamped with a global use clock. A miss fills
 * the first empty slot, else the least recently used one; flush lists
 * dirty lines in set, then way order.
 */
class ReferenceCache
{
  public:
    ReferenceCache(u32 sets, u32 ways)
        : sets_(sets), ways_(ways), slots_(sets * ways)
    {
    }

    CacheResult
    access(Addr addr, bool dirty, MetaClass cls)
    {
        const Addr line = addr & ~Addr{63};
        Slot *set = &slots_[(line / 64) % sets_ * ways_];
        ++clock_;
        for (u32 w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].tag == line) {
                set[w].dirty |= dirty;
                set[w].lastUse = clock_;
                ++hits;
                return {true, false, 0, MetaClass::Vn};
            }
        }
        Slot *victim = nullptr;
        for (u32 w = 0; w < ways_ && victim == nullptr; ++w) {
            if (!set[w].valid)
                victim = &set[w];
        }
        if (victim == nullptr) {
            victim = set;
            for (u32 w = 1; w < ways_; ++w) {
                if (set[w].lastUse < victim->lastUse)
                    victim = &set[w];
            }
        }
        CacheResult r;
        if (victim->valid && victim->dirty) {
            r.writeback = true;
            r.victimAddr = victim->tag;
            r.victimClass = victim->cls;
            ++writebacks;
        }
        *victim = {true, dirty, line, clock_, cls};
        ++misses;
        return r;
    }

    std::vector<MetaCache::FlushedLine>
    flush()
    {
        std::vector<MetaCache::FlushedLine> out;
        for (const Slot &slot : slots_) {
            if (slot.valid && slot.dirty)
                out.push_back({slot.tag, slot.cls});
        }
        reset();
        return out;
    }

    void reset() { slots_.assign(slots_.size(), Slot{}); }

    /** What MetaCache::inspect should say about @p addr's line. */
    MetaCache::LineView
    view(Addr addr) const
    {
        const Addr line = addr & ~Addr{63};
        const Slot *set = &slots_[(line / 64) % sets_ * ways_];
        for (u32 w = 0; w < ways_; ++w) {
            if (!set[w].valid || set[w].tag != line)
                continue;
            u32 rank = 0;
            for (u32 v = 0; v < ways_; ++v)
                rank += set[v].valid && set[v].lastUse > set[w].lastUse;
            return {true, set[w].dirty, w, rank};
        }
        return {};
    }

    u64 hits = 0, misses = 0, writebacks = 0;

  private:
    struct Slot
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        u64 lastUse = 0;
        MetaClass cls = MetaClass::Vn;
    };

    u32 sets_, ways_;
    u64 clock_ = 0;
    std::vector<Slot> slots_;
};

TEST(MetaCacheProperty, MatchesReferenceModel)
{
    // Random plain accesses interleaved with the engine's memo
    // touches, touchRepeat rounds, flushes and resets, against the
    // reference at 2 to 16 ways: every result, counter and flush list,
    // and every line's way and recency rank, must agree.
    for (u32 ways : {2u, 4u, 8u, 16u}) {
        SCOPED_TRACE(::testing::Message() << ways << " ways");
        MetaCache cache(8 << 10, ways); // 128 lines
        ReferenceCache ref(128 / ways, ways);
        MetaCache::Memo memos[3]; // the engine's VN, tree and MAC streams
        MetaCache::Memo *memo_ptrs[3] = {&memos[0], &memos[1], &memos[2]};
        Addr memo_addr[3] = {0, 0, 0};
        Rng rng(99 + ways);
        const u64 universe = 512; // lines; the first 64 are hot
        const auto pickLine = [&] {
            return (rng.chance(0.5) ? rng.below(64) : rng.below(universe)) *
                   64;
        };
        const auto expectSame = [&](const CacheResult &got,
                                    const CacheResult &want) {
            EXPECT_EQ(got.hit, want.hit);
            EXPECT_EQ(got.writeback, want.writeback);
            if (want.writeback) {
                EXPECT_EQ(got.victimAddr, want.victimAddr);
                EXPECT_EQ(got.victimClass, want.victimClass);
            }
        };
        const auto expectSameLine = [&](Addr addr) {
            const MetaCache::LineView got = cache.inspect(addr);
            const MetaCache::LineView want = ref.view(addr);
            EXPECT_EQ(got.resident, want.resident) << "line " << addr;
            EXPECT_EQ(got.dirty, want.dirty) << "line " << addr;
            EXPECT_EQ(got.way, want.way) << "line " << addr;
            EXPECT_EQ(got.rank, want.rank) << "line " << addr;
        };
        // One memo stream's lookup as baselinePath makes it: a touch,
        // and on a failed touch the probing access that re-arms the
        // memo. Returns whether the touch succeeded.
        const auto lookup = [&](std::size_t p, Addr addr, bool dirty) {
            const auto cls = static_cast<MetaClass>(p);
            const CacheResult want = ref.access(addr, dirty, cls);
            memo_addr[p] = addr;
            if (cache.touch(memos[p], addr, dirty)) {
                EXPECT_TRUE(want.hit) << "touch succeeded on a miss";
                return true;
            }
            expectSame(cache.access(addr, dirty, cls, &memos[p]), want);
            return false;
        };

        for (int op = 0; op < 20000; ++op) {
            SCOPED_TRACE(::testing::Message() << "op " << op);
            const u64 kind = rng.below(100);
            const bool dirty = rng.chance(0.3);
            if (kind < 45) {
                const Addr addr = pickLine();
                expectSame(cache.access(addr, dirty),
                           ref.access(addr, dirty, MetaClass::Vn));
                expectSameLine(addr);
            } else if (kind < 90) {
                // A memo stream, half the time on its last line again.
                const std::size_t p = rng.below(3);
                const Addr addr = rng.chance(0.5) ? memo_addr[p] : pickLine();
                lookup(p, addr, dirty);
                expectSameLine(addr);
            } else if (kind < 98) {
                // One block's lookups on distinct lines, then the next
                // block's; when all of those touch, touchRepeat takes
                // the rounds the reference replays access by access.
                const std::size_t n = 1 + rng.below(3);
                for (std::size_t p = 0; p < n; ++p) {
                    Addr addr;
                    do {
                        addr = pickLine();
                    } while (std::find(memo_addr, memo_addr + p, addr) !=
                             memo_addr + p);
                    lookup(p, addr, dirty);
                }
                bool all_touched = true;
                for (std::size_t p = 0; p < n; ++p)
                    all_touched &= lookup(p, memo_addr[p], dirty);
                if (all_touched) {
                    const u64 rounds = rng.below(9);
                    cache.touchRepeat({memo_ptrs, n}, rounds, dirty);
                    for (u64 r = 0; r < rounds; ++r) {
                        for (std::size_t p = 0; p < n; ++p)
                            ref.access(memo_addr[p], dirty,
                                       static_cast<MetaClass>(p));
                    }
                }
            } else if (kind < 99) {
                std::vector<MetaCache::FlushedLine> got;
                cache.flush(got);
                const std::vector<MetaCache::FlushedLine> want = ref.flush();
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < want.size(); ++i) {
                    EXPECT_EQ(got[i].addr, want[i].addr);
                    EXPECT_EQ(got[i].cls, want[i].cls);
                }
            } else {
                cache.reset();
                ref.reset();
            }
            EXPECT_EQ(cache.hits(), ref.hits);
            EXPECT_EQ(cache.misses(), ref.misses);
            EXPECT_EQ(cache.writebacks(), ref.writebacks);
            if (op % 64 == 0) {
                for (u64 line = 0; line < universe; ++line)
                    expectSameLine(line * 64);
            }
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

// -- DRAM monotonicity ------------------------------------------------------------------

TEST(DramProperty, CompletionMonotoneInArrival)
{
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        const Addr addr = rng.below(1 << 20) * 64;
        dram::DramSystem a(dram::ddr4_2400(1));
        dram::DramSystem b(dram::ddr4_2400(1));
        const Cycles t0 = rng.below(10000);
        const Cycles c1 = a.access({addr, false, t0});
        const Cycles c2 = b.access({addr, false, t0 + 500});
        EXPECT_LE(c1, c2);
        EXPECT_GE(c1, t0);
    }
}

TEST(DramProperty, ThroughputNeverExceedsPeak)
{
    Rng rng(6);
    for (u32 channels : {1u, 2u, 4u}) {
        dram::Ddr4Config cfg = dram::ddr4_2400(channels);
        dram::DramSystem sys(cfg);
        const u64 bytes = 1 << 20;
        Cycles done = sys.accessRange(0, bytes, rng.chance(0.5), 0);
        const double min_cycles =
            static_cast<double>(bytes) / cfg.peakBytesPerCycle();
        EXPECT_GE(static_cast<double>(done), min_cycles * 0.999);
    }
}

} // namespace
} // namespace mgx
