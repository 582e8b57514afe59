/**
 * @file
 * Tests for the BP metadata-pipeline overhaul: same-line memo
 * coalescing, tree-walk memoization and the metadata-range walker —
 * all of which must be invisible in the model's outputs.
 *
 * Three layers:
 *  - unit: memo arming/invalidation semantics in MetaCache, the
 *    repeat-touch's equality with rounds of touch(), and the
 *    BaselineWalker's bit-equality with the point queries (stepping,
 *    advancing, and counting same-line blocks);
 *  - property: a touch-then-access stream and an access-only stream
 *    drive two caches identically;
 *  - command order: a recorded BP write issues its data range, then
 *    its VN/tree lines as the cache resolves them, then its MAC lines;
 *  - golden: BP/MGX_MAC cells under a deliberately tiny (2 KB)
 *    metadata cache — constant evictions, so memos go stale at the
 *    highest possible rate — pinned against numbers captured from the
 *    pre-overhaul engine (commit 2e6544b).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/rng.h"
#include "dram/command_log.h"
#include "protection/meta_cache.h"
#include "protection/metadata_layout.h"
#include "protection/protection_engine.h"
#include "sim/experiment.h"

namespace mgx {
namespace {

using protection::CacheResult;
using protection::MetaCache;
using protection::MetaClass;
using protection::MetadataLayout;
using protection::ProtectionConfig;
using protection::Scheme;

// ---------------------------------------------------------------------
// MetaCache memos
// ---------------------------------------------------------------------

TEST(MetaCacheMemo, DefaultMemoNeverMatches)
{
    MetaCache cache(1 << 10, 4);
    MetaCache::Memo memo;
    EXPECT_FALSE(cache.touch(memo, 0x0, false));
}

TEST(MetaCacheMemo, AccessArmsMemoForFollowUpTouches)
{
    MetaCache cache(1 << 10, 4);
    MetaCache::Memo memo;
    EXPECT_FALSE(cache.access(0x40, false, MetaClass::Vn, &memo).hit);
    // Same line: the memo short-circuits, and it is a real hit (the
    // line was just allocated).
    EXPECT_TRUE(cache.touch(memo, 0x40, false));
    // A different line never matches the memo.
    EXPECT_FALSE(cache.touch(memo, 0x80, false));
}

TEST(MetaCacheMemo, EvictionBumpsGenerationAndKillsStaleMemo)
{
    // 256 B, 2 ways => 2 sets; lines 0x0, 0x100, 0x200 share set 0.
    MetaCache cache(256, 2);
    MetaCache::Memo memo;
    cache.access(0x0, false, MetaClass::Vn, &memo);
    const u64 gen0 = cache.generation();
    EXPECT_TRUE(cache.touch(memo, 0x0, false));

    // Fill the set until 0x0 is the LRU victim.
    cache.access(0x100, false, MetaClass::Tree);
    cache.access(0x200, false, MetaClass::Tree);
    EXPECT_GT(cache.generation(), gen0)
        << "an eviction must bump the generation";
    EXPECT_FALSE(cache.touch(memo, 0x0, false))
        << "a memo whose line was evicted must not touch";
    // The full access path recovers (and re-arms the memo).
    EXPECT_FALSE(cache.access(0x0, false, MetaClass::Vn, &memo).hit);
    EXPECT_TRUE(cache.touch(memo, 0x0, false));
}

TEST(MetaCacheMemo, ColdFillsDoNotBumpGeneration)
{
    // Filling invalid ways replaces nothing a memo can point at, so
    // the generation — and with it the memo fast-accept — survives.
    MetaCache cache(1 << 10, 4);
    MetaCache::Memo memo;
    cache.access(0x0, false, MetaClass::Vn, &memo);
    const u64 gen0 = cache.generation();
    cache.access(0x40, false, MetaClass::Vn);
    cache.access(0x80, false, MetaClass::Vn);
    EXPECT_EQ(cache.generation(), gen0);
    EXPECT_TRUE(cache.touch(memo, 0x0, false));
}

TEST(MetaCacheMemo, FlushAndResetKillMemos)
{
    MetaCache cache(1 << 10, 4);
    MetaCache::Memo memo;
    cache.access(0x0, true, MetaClass::Vn, &memo);
    std::vector<MetaCache::FlushedLine> dirty;
    cache.flush(dirty);
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_FALSE(cache.touch(memo, 0x0, false))
        << "flush invalidates every line, so every memo is stale";

    cache.access(0x0, false, MetaClass::Vn, &memo);
    cache.reset();
    EXPECT_FALSE(cache.touch(memo, 0x0, false));
}

TEST(MetaCacheMemo, TouchAccumulatesDirtyForLaterWriteback)
{
    // A read arms the memo clean; a touched write must still mark the
    // line dirty, or the overhaul would silently drop a writeback.
    MetaCache cache(1 << 10, 4);
    MetaCache::Memo memo;
    cache.access(0x0, false, MetaClass::Mac, &memo);
    EXPECT_TRUE(cache.touch(memo, 0x0, true));
    std::vector<MetaCache::FlushedLine> dirty;
    cache.flush(dirty);
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0].addr, 0x0u);
    EXPECT_EQ(dirty[0].cls, MetaClass::Mac);
}

TEST(MetaCacheMemo, TouchStreamIsBitwiseEquivalentToAccessStream)
{
    // Replay one random line stream through two caches: plain
    // access() on one; touch-with-access-fallback (the engine's
    // pattern) on the other. Every CacheResult, counter, and the
    // final flush set must match — touch is the hit path, not an
    // approximation of it.
    MetaCache plain(2 << 10, 8);
    MetaCache memoized(2 << 10, 8);
    MetaCache::Memo memos[3]; // one per class, like the engine
    Rng rng(0xb9);

    for (int i = 0; i < 20000; ++i) {
        // A few hot lines plus a long tail forces hits, misses,
        // evictions, and memo staleness in one stream.
        const u32 cls_idx = static_cast<u32>(rng.next() % 3);
        const auto cls = static_cast<MetaClass>(cls_idx);
        const u64 span = (rng.next() & 1) ? 8 : 1024;
        const Addr addr =
            (0x10000 * cls_idx + 0x40 * (rng.next() % span));
        const bool dirty = (rng.next() & 3) == 0;

        const CacheResult want = plain.access(addr, dirty, cls);
        if (memoized.touch(memos[cls_idx], addr, dirty)) {
            EXPECT_TRUE(want.hit) << "touch succeeded on a miss";
            EXPECT_FALSE(want.writeback);
        } else {
            const CacheResult got =
                memoized.access(addr, dirty, cls, &memos[cls_idx]);
            EXPECT_EQ(want.hit, got.hit);
            EXPECT_EQ(want.writeback, got.writeback);
            if (want.writeback) {
                EXPECT_EQ(want.victimAddr, got.victimAddr);
                EXPECT_EQ(want.victimClass, got.victimClass);
            }
        }
    }
    EXPECT_EQ(plain.hits(), memoized.hits());
    EXPECT_EQ(plain.misses(), memoized.misses());
    EXPECT_EQ(plain.writebacks(), memoized.writebacks());

    std::vector<MetaCache::FlushedLine> da, db;
    plain.flush(da);
    memoized.flush(db);
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t i = 0; i < da.size(); ++i) {
        EXPECT_EQ(da[i].addr, db[i].addr);
        EXPECT_EQ(da[i].cls, db[i].cls);
    }
}

TEST(MetaCacheMemo, TouchRepeatEqualsRoundsOfTouch)
{
    // After a shared random history, one cache applies k rounds of a
    // memo touch sequence through touchRepeat and the other touch by
    // touch. Every line's residency, dirty bit, way and recency rank
    // and the counters must agree — and so must the victim the next
    // miss in each touched line's set picks.
    Rng rng(0x7e9);
    for (int trial = 0; trial < 300; ++trial) {
        // 1 KB, 4 ways: 4 sets over a 64-line universe, so every set
        // is full and every line competes for LRU order.
        MetaCache repeated(1 << 10, 4);
        MetaCache touched(1 << 10, 4);
        const auto line = [](u64 i) { return static_cast<Addr>(i * 0x40); };
        const u64 universe = 64;
        for (int i = 0; i < 40; ++i) {
            const Addr addr = line(rng.next() % universe);
            const bool dirty = (rng.next() & 1) != 0;
            repeated.access(addr, dirty);
            touched.access(addr, dirty);
        }

        // Arm 1-3 memos on distinct lines (the engine's VN, tree and
        // MAC streams), then touch each once, as a block whose lookups
        // all hit would.
        const std::size_t n = 1 + rng.next() % 3;
        MetaCache::Memo memos_a[3], memos_b[3];
        MetaCache::Memo *ptrs_a[3] = {&memos_a[0], &memos_a[1], &memos_a[2]};
        Addr addrs[3];
        for (std::size_t p = 0; p < n; ++p) {
            do {
                addrs[p] = line(rng.next() % universe);
            } while (std::find(addrs, addrs + p, addrs[p]) != addrs + p);
            repeated.access(addrs[p], false, MetaClass::Vn, &memos_a[p]);
            touched.access(addrs[p], false, MetaClass::Vn, &memos_b[p]);
        }
        const bool first_dirty = (rng.next() & 1) != 0;
        for (std::size_t p = 0; p < n; ++p) {
            ASSERT_TRUE(repeated.touch(memos_a[p], addrs[p], first_dirty));
            ASSERT_TRUE(touched.touch(memos_b[p], addrs[p], first_dirty));
        }

        const u64 k = rng.next() % 9;
        const bool dirty = (rng.next() & 1) != 0;
        repeated.touchRepeat({ptrs_a, n}, k, dirty);
        for (u64 r = 0; r < k; ++r) {
            for (std::size_t p = 0; p < n; ++p)
                ASSERT_TRUE(touched.touch(memos_b[p], addrs[p], dirty));
        }

        const auto expectSame = [&](const char *when) {
            EXPECT_EQ(repeated.hits(), touched.hits()) << when;
            EXPECT_EQ(repeated.misses(), touched.misses()) << when;
            EXPECT_EQ(repeated.writebacks(), touched.writebacks()) << when;
            for (u64 i = 0; i < universe; ++i) {
                const MetaCache::LineView a = repeated.inspect(line(i));
                const MetaCache::LineView b = touched.inspect(line(i));
                EXPECT_EQ(a.resident, b.resident) << when << " line " << i;
                EXPECT_EQ(a.dirty, b.dirty) << when << " line " << i;
                EXPECT_EQ(a.way, b.way) << when << " line " << i;
                EXPECT_EQ(a.rank, b.rank) << when << " line " << i;
            }
        };
        expectSame("after the repeat");
        // A fresh line in each touched line's set evicts that set's
        // LRU way: the same one in both caches.
        for (std::size_t p = 0; p < n; ++p) {
            const Addr fresh = addrs[p] + universe * 0x40;
            const CacheResult a = repeated.access(fresh, false);
            const CacheResult b = touched.access(fresh, false);
            EXPECT_EQ(a.writeback, b.writeback);
            EXPECT_EQ(a.victimAddr, b.victimAddr);
        }
        expectSame("after the next misses");
        if (::testing::Test::HasFailure())
            return;
    }
}

// ---------------------------------------------------------------------
// MetadataLayout::BaselineWalker
// ---------------------------------------------------------------------

TEST(BaselineWalker, MatchesPointQueriesAcrossTheRange)
{
    ProtectionConfig cfg;
    cfg.scheme = Scheme::BP;
    const MetadataLayout layout(cfg);
    ASSERT_GE(layout.treeLevels(), 1u);

    // An unaligned-to-anything start exercises the offset seeding.
    const Addr begin = 37 * 64 * cfg.baselineGranularity;
    MetadataLayout::BaselineWalker walker =
        layout.baselineWalker(begin);
    for (u64 i = 0; i < 4096; ++i, walker.next()) {
        const Addr block = begin + i * cfg.baselineGranularity;
        ASSERT_EQ(walker.vnLine(), layout.vnLineAddr(block))
            << "block " << i;
        ASSERT_EQ(walker.treeNode1(), layout.treeNodeAddr(1, block))
            << "block " << i;
        ASSERT_EQ(walker.macLine(),
                  layout.macLineAddr(block, cfg.baselineGranularity))
            << "block " << i;
    }
}

TEST(BaselineWalker, AdvanceAndSameLineCountMatchPointQueries)
{
    // advance(k) must equal k next() calls, and sameLineBlocks() must
    // count exactly the following blocks whose VN line, level-1 node
    // and (optionally) MAC line all equal the current block's — at
    // unaligned starts, for entry sizes below, at and above a line,
    // and with metadata regions that do not start on a line boundary
    // (VN lines and tree nodes then split at different blocks).
    struct Sizes
    {
        u32 vnBytes, macBytes, arity;
        u64 protectedBytes;
    };
    constexpr u64 k16G = 16ull << 30;
    constexpr u64 kOdd = (1ull << 30) + 3 * 64; // VN region at +24 B
    const Sizes sizes[] = {{8, 8, 8, k16G},  {8, 4, 8, k16G},
                           {16, 8, 2, k16G}, {4, 64, 4, k16G},
                           {128, 8, 8, k16G}, {8, 8, 8, kOdd},
                           {16, 4, 2, kOdd}};
    Rng rng(0xba5e);
    for (const Sizes &s : sizes) {
        ProtectionConfig cfg;
        cfg.scheme = Scheme::BP;
        cfg.vnBytes = s.vnBytes;
        cfg.macBytes = s.macBytes;
        cfg.treeArity = s.arity;
        cfg.protectedBytes = s.protectedBytes;
        const MetadataLayout layout(cfg);
        ASSERT_GE(layout.treeLevels(), 1u);
        const u32 gran = cfg.baselineGranularity;
        const auto lines = [&](Addr block, bool mac) {
            return std::array<Addr, 3>{
                layout.vnLineAddr(block), layout.treeNodeAddr(1, block),
                mac ? layout.macLineAddr(block, gran) : Addr{0}};
        };
        for (int trial = 0; trial < 200; ++trial) {
            const Addr begin = (rng.next() % (1u << 24)) * gran;
            MetadataLayout::BaselineWalker walker =
                layout.baselineWalker(begin);
            Addr block = begin;
            for (int step = 0; step < 20; ++step) {
                for (bool mac : {false, true}) {
                    const u64 k = walker.sameLineBlocks(mac);
                    const auto here = lines(block, mac);
                    for (u64 m = 1; m <= k; ++m)
                        ASSERT_EQ(lines(block + m * gran, mac), here)
                            << "block " << block << " + " << m;
                    ASSERT_NE(lines(block + (k + 1) * gran, mac), here)
                        << "block " << block << ": count " << k
                        << " is not maximal";
                }
                // advance(j) == j x next(), checked through the point
                // queries at the block reached.
                const u64 j = rng.next() % 20;
                MetadataLayout::BaselineWalker stepped = walker;
                for (u64 i = 0; i < j; ++i)
                    stepped.next();
                walker.advance(j);
                block += j * gran;
                ASSERT_EQ(walker.vnLine(), stepped.vnLine());
                ASSERT_EQ(walker.treeNode1(), stepped.treeNode1());
                ASSERT_EQ(walker.macLine(), stepped.macLine());
                ASSERT_EQ(walker.vnLine(), layout.vnLineAddr(block));
                ASSERT_EQ(walker.treeNode1(), layout.treeNodeAddr(1, block));
                ASSERT_EQ(walker.macLine(), layout.macLineAddr(block, gran));
            }
        }
    }
}

// ---------------------------------------------------------------------
// BP command order
// ---------------------------------------------------------------------

/** Records every DRAM command word into one growing buffer. */
class BufferRecorder final : public dram::CommandRecorder
{
  public:
    BufferRecorder() : CommandRecorder(64) { grow(); }

    /** The words recorded since word @p from. */
    std::vector<u64>
    wordsFrom(std::size_t from) const
    {
        return {buf_.begin() + static_cast<std::ptrdiff_t>(from),
                buf_.begin() + (pos_ - buf_.data())};
    }

    std::size_t size() const { return pos_ - buf_.data(); }

  protected:
    void nextChunk() override { grow(); }

  private:
    void
    grow()
    {
        const std::size_t used = pos_ == nullptr ? 0 : size();
        buf_.resize(std::max<std::size_t>(2 * buf_.size(), 1024));
        pos_ = buf_.data() + used;
        end_ = buf_.data() + buf_.size();
    }

    std::vector<u64> buf_;
};

TEST(BpCommandOrder, DataRangeThenVnTreeLinesThenMacLines)
{
    // A 2 KB cache (32 lines) left full of dirty lines by a write far
    // away, so the 256 KB write under test evicts dirty victims of
    // every class while its lookups stream.
    ProtectionConfig cfg;
    cfg.scheme = Scheme::BP;
    cfg.metaCacheBytes = 2 << 10;
    BufferRecorder rec;
    protection::ProtectionEngine engine(cfg, &rec);
    engine.access({1ull << 30, 64 << 10, 1, AccessType::Write,
                   DataClass::Generic, 0},
                  0);
    const protection::TrafficBreakdown before = engine.traffic();
    const std::size_t from = rec.size();
    const u64 bytes = 256 << 10;
    engine.access({0, bytes, 2, AccessType::Write, DataClass::Generic, 0},
                  0);
    const protection::TrafficBreakdown &after = engine.traffic();
    const std::vector<u64> words = rec.wordsFrom(from);

    ASSERT_GE(words.size(), 2u);
    EXPECT_EQ(dram::cmd::kind(words[0]), dram::cmd::kRange);
    EXPECT_EQ(dram::cmd::addr(words[0]), 0u);
    EXPECT_TRUE(dram::cmd::isWrite(words[0]));
    EXPECT_EQ(words[1], bytes);

    // The rest are metadata lines. VN and tree lines live at and above
    // vnBase, MAC lines in [macBase, vnBase).
    const MetadataLayout &layout = engine.layout();
    std::size_t last_vn_tree_read = 0, first_mac_read = words.size();
    std::size_t writes = 0;
    for (std::size_t i = 2; i < words.size(); ++i) {
        const u64 w = words[i];
        ASSERT_EQ(dram::cmd::kind(w), dram::cmd::kLine) << "word " << i;
        const Addr line = dram::cmd::addr(w);
        ASSERT_GE(line, layout.macBase()) << "word " << i;
        if (dram::cmd::isWrite(w))
            ++writes;
        else if (line >= layout.vnBase())
            last_vn_tree_read = i;
        else
            first_mac_read = std::min(first_mac_read, i);
    }
    EXPECT_GT(last_vn_tree_read, 0u);
    EXPECT_LT(first_mac_read, words.size());
    EXPECT_LT(last_vn_tree_read, first_mac_read)
        << "a MAC line went out before the access's VN/tree lines";
    EXPECT_GT(writes, 0u) << "no dirty victim was written back";
    const u64 meta_bytes = (after.vnBytes - before.vnBytes) +
                           (after.treeBytes - before.treeBytes) +
                           (after.macBytes - before.macBytes);
    EXPECT_EQ(words.size() - 2, meta_bytes / 64);
}

// ---------------------------------------------------------------------
// Golden small-cache BP cells
// ---------------------------------------------------------------------

struct GoldenRow
{
    const char *workload;
    const char *platform;
    Scheme scheme;
    Cycles cycles;
    u64 data, expand, mac, vn, tree;
};

// Captured from the pre-overhaul engine (commit 2e6544b) with
// metaCacheBytes = 2 KB; regenerate only when the *model* changes.
constexpr GoldenRow kSmallCacheGolden[] = {
    {"core/matmul", "Cloud", Scheme::BP, 1222951, 8388608, 0, 1580032,
     1587200, 474112},
    {"core/matmul", "Cloud", Scheme::MGX_MAC, 943745, 8388608, 0,
     131072, 1580032, 458752},
    {"dnn/DLRM?task=inference", "Cloud", Scheme::BP, 429009, 3921664,
     0, 780352, 786368, 1190720},
    {"dnn/DLRM?task=inference", "Cloud", Scheme::MGX_MAC, 361256,
     3921664, 0, 271296, 779968, 1150912},
    {"video/h264?frames=2", "Genome", Scheme::BP, 3867202, 3110400, 0,
     777600, 778112, 205184},
    {"video/h264?frames=2", "Genome", Scheme::MGX_MAC, 3667906,
     3110400, 0, 48704, 777600, 187008},
    {"genome/chr1PacBio?reads=2", "Genome", Scheme::BP, 166376,
     153600, 0, 37184, 37312, 78272},
    {"genome/chr1PacBio?reads=2", "Genome", Scheme::MGX_MAC, 156273,
     153600, 0, 20800, 32320, 24000},
};

TEST(GoldenSmallCache, EvictionHeavyCellsMatchPreOverhaulEngine)
{
    // A 2 KB cache (32 lines) under multi-MB metadata footprints
    // evicts on nearly every miss, so memos stale constantly and the
    // deferred queues fill with victim writebacks — the worst case
    // for every mechanism of the overhaul.
    ProtectionConfig cfg;
    cfg.metaCacheBytes = 2 << 10;
    sim::ResultSet rs =
        sim::Experiment()
            .workloads({"core/matmul", "dnn/DLRM?task=inference",
                        "video/h264?frames=2",
                        "genome/chr1PacBio?reads=2"})
            .schemes({Scheme::BP, Scheme::MGX_MAC})
            .config(cfg)
            .run();
    for (const GoldenRow &row : kSmallCacheGolden) {
        const sim::RunResult *r =
            rs.find(row.workload, row.platform, row.scheme);
        ASSERT_NE(r, nullptr)
            << row.workload << " " << protection::schemeName(row.scheme);
        EXPECT_EQ(r->totalCycles, row.cycles) << row.workload;
        EXPECT_EQ(r->traffic.dataBytes, row.data) << row.workload;
        EXPECT_EQ(r->traffic.expandBytes, row.expand) << row.workload;
        EXPECT_EQ(r->traffic.macBytes, row.mac) << row.workload;
        EXPECT_EQ(r->traffic.vnBytes, row.vn) << row.workload;
        EXPECT_EQ(r->traffic.treeBytes, row.tree) << row.workload;
    }
}

} // namespace
} // namespace mgx
