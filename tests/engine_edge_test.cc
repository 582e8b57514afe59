/**
 * @file
 * Protection-engine edge cases: unaligned and tiny accesses, huge
 * single accesses, granularity overrides interacting with MGX_MAC,
 * flush idempotency, scheme-specific metadata accounting boundaries,
 * and MGX tag runs against a per-line reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/bitops.h"
#include "common/rng.h"
#include "protection/protection_engine.h"

namespace mgx::protection {
namespace {

using core::LogicalAccess;

struct EngineFixture
{
    explicit EngineFixture(Scheme scheme, u32 mac_gran = 512)
        : dram(dram::ddr4_2400(1))
    {
        cfg.scheme = scheme;
        cfg.protectedBytes = 1ull << 30;
        cfg.macGranularity = mac_gran;
        engine.emplace(cfg, &dram);
    }

    dram::DramSystem dram;
    ProtectionConfig cfg;
    std::optional<ProtectionEngine> engine;
};

TEST(EngineEdge, ZeroByteAccessIsFree)
{
    EngineFixture f(Scheme::BP);
    Cycles done = f.engine->access(
        {0, 0, 1, AccessType::Read, DataClass::Generic, 0}, 100);
    EXPECT_EQ(done, 100u);
    EXPECT_EQ(f.engine->traffic().totalBytes(), 0u);
}

TEST(EngineEdge, SingleByteReadExpandsToMacBlock)
{
    EngineFixture f(Scheme::MGX);
    f.engine->access({1000, 1, 1, AccessType::Read, DataClass::Generic, 0},
                     0);
    const auto &t = f.engine->traffic();
    EXPECT_EQ(t.dataBytes, 1u);
    EXPECT_EQ(t.expandBytes, 511u); // whole 512 B block fetched
    EXPECT_EQ(t.macBytes, 64u);
}

TEST(EngineEdge, UnalignedReadSpanningTwoMacBlocks)
{
    EngineFixture f(Scheme::MGX);
    // [300, 812) straddles blocks [0,512) and [512,1024).
    f.engine->access({300, 512, 1, AccessType::Read, DataClass::Generic, 0},
                     0);
    const auto &t = f.engine->traffic();
    EXPECT_EQ(t.dataBytes, 512u);
    EXPECT_EQ(t.expandBytes, 512u);
    EXPECT_EQ(t.macBytes, 64u); // both tags share one line
}

TEST(EngineEdge, HugeSingleAccessScalesLinearly)
{
    EngineFixture f(Scheme::MGX);
    f.engine->access({0, 64 << 20, 1, AccessType::Read, DataClass::Generic,
                      0},
                     0);
    const auto &t = f.engine->traffic();
    // 64 MB at 512 B/tag, 8 tags/line -> 16K lines -> 1 MB of MACs.
    EXPECT_EQ(t.macBytes, 1ull << 20);
    EXPECT_NEAR(t.overhead(), 1.0 / 64.0, 1e-3);
}

TEST(EngineEdge, OverrideIgnoredByBaselineSchemes)
{
    // BP and MGX_VN always protect at 64 B regardless of the hint.
    for (Scheme s : {Scheme::BP, Scheme::MGX_VN}) {
        EngineFixture f(s);
        EXPECT_EQ(f.cfg.effectiveMacGranularity(4096), 64u)
            << schemeName(s);
    }
    EngineFixture f(Scheme::MGX_MAC);
    EXPECT_EQ(f.cfg.effectiveMacGranularity(4096), 4096u);
    EXPECT_EQ(f.cfg.effectiveMacGranularity(0), 512u);
}

TEST(EngineEdge, MgxMacCombinesVnTreeWithCoarseMacs)
{
    EngineFixture f(Scheme::MGX_MAC);
    f.engine->access({0, 4096, 1, AccessType::Read, DataClass::Generic, 0},
                     0);
    const auto &t = f.engine->traffic();
    EXPECT_GT(t.vnBytes, 0u);   // still pays the off-chip VN path
    EXPECT_GT(t.treeBytes, 0u); // and the tree walk
    EXPECT_EQ(t.macBytes, 64u); // but coarse MACs: one line per 4 KB
}

TEST(EngineEdge, FlushIsIdempotent)
{
    EngineFixture f(Scheme::BP);
    f.engine->access({0, 4096, 1, AccessType::Write, DataClass::Generic, 0},
                     0);
    Cycles first = f.engine->flush(0);
    const u64 traffic_after_first = f.engine->traffic().totalBytes();
    Cycles second = f.engine->flush(first);
    EXPECT_EQ(f.engine->traffic().totalBytes(), traffic_after_first);
    EXPECT_EQ(second, first);
}

TEST(EngineEdge, NpFlushIsFree)
{
    EngineFixture f(Scheme::NP);
    f.engine->access({0, 4096, 1, AccessType::Write, DataClass::Generic, 0},
                     0);
    EXPECT_EQ(f.engine->flush(42), 42u);
}

TEST(EngineEdge, RepeatedReadsHitMetadataCache)
{
    EngineFixture f(Scheme::BP);
    f.engine->access({0, 512, 1, AccessType::Read, DataClass::Generic, 0},
                     0);
    const u64 first = f.engine->traffic().totalBytes();
    f.engine->access({0, 512, 1, AccessType::Read, DataClass::Generic, 0},
                     0);
    // Second pass adds only the data bytes: all metadata is cached.
    EXPECT_EQ(f.engine->traffic().totalBytes(), first + 512);
}

TEST(EngineEdge, WriteThenReadSameBlockUnderMgx)
{
    EngineFixture f(Scheme::MGX);
    Cycles w = f.engine->access({0, 512, 2, AccessType::Write,
                                 DataClass::Generic, 0},
                                0);
    Cycles r = f.engine->access({0, 512, 2, AccessType::Read,
                                 DataClass::Generic, 0},
                                w);
    EXPECT_GT(r, w);
    const auto &t = f.engine->traffic();
    EXPECT_EQ(t.dataBytes, 1024u);
    // The 512 B write covers 1 of the tag line's 8 tags, so the line
    // is read-modify-written (128 B); the read adds one fetch (64 B).
    EXPECT_EQ(t.macBytes, 192u);
}

TEST(EngineEdge, AccessAtRegionTopStaysInBounds)
{
    EngineFixture f(Scheme::BP);
    const Addr top = f.cfg.protectedBytes - 4096;
    Cycles done = f.engine->access({top, 4096, 1, AccessType::Read,
                                    DataClass::Generic, 0},
                                   0);
    EXPECT_GT(done, 0u);
    // Metadata addresses must land above the data region.
    EXPECT_GE(f.engine->layout().macLineAddr(top, 64),
              f.cfg.protectedBytes);
    EXPECT_GE(f.engine->layout().vnLineAddr(top),
              f.engine->layout().macBase());
}

TEST(EngineEdge, LogicalAccessCountTracked)
{
    EngineFixture f(Scheme::MGX);
    for (int i = 0; i < 7; ++i)
        f.engine->access({static_cast<Addr>(i) * 4096, 512, 1,
                          AccessType::Read, DataClass::Generic, 0},
                         0);
    EXPECT_EQ(f.engine->logicalAccesses(), 7u);
}

/**
 * One MGX / MGX_VN access the per-line way: the data commands, then
 * each tag line as its own DramSystem::access() — a read fetches the
 * line; a write read-modify-writes a line it covers in part and
 * writes a line it covers in full. Adds the access's traffic to
 * @p traffic and returns its completion.
 */
Cycles
perLineMgxAccess(dram::DramSystem &dram, const ProtectionConfig &cfg,
                 const LogicalAccess &acc, Cycles arrival,
                 TrafficBreakdown &traffic)
{
    const MetadataLayout layout(cfg);
    const u32 gran = cfg.effectiveMacGranularity(acc.macGranularity);
    const bool is_write = acc.type == AccessType::Write;
    const Addr begin = alignDown(acc.addr, gran);
    const Addr end = alignUp(acc.addr + acc.bytes, gran);
    const Addr data_end = acc.addr + acc.bytes;
    Cycles done = arrival;
    const auto range = [&](Addr a, u64 bytes, bool write) {
        done = std::max(done, dram.accessRange(a, bytes, write, arrival));
    };
    traffic.dataBytes += acc.bytes;
    traffic.expandBytes += (end - begin) - acc.bytes;
    if (is_write && begin < acc.addr)
        range(begin, acc.addr - begin, false);
    if (is_write && end > data_end)
        range(data_end, end - data_end, false);
    range(begin, end - begin, is_write);

    const u64 line_span = 64 / cfg.macBytes * gran;
    const Addr first = layout.macLineAddr(begin, gran);
    const Addr last = layout.macLineAddr(end - 1, gran);
    for (Addr line = first; line <= last; line += 64) {
        const Addr span = ((line - first) / 64 + begin / line_span) *
                          line_span;
        const bool full = begin <= span && end >= span + line_span;
        const auto tag = [&](bool write) {
            traffic.macBytes += 64;
            done = std::max(done, dram.access({line, write, arrival}));
        };
        if (is_write && !full)
            tag(false);
        tag(is_write);
    }
    return is_write ? done : done + cfg.cryptoLatency;
}

TEST(EngineEdge, TagRunsMatchPerLineReference)
{
    // Seeded MGX and MGX_VN reads and writes whose tag lines are
    // aligned to the data a tag line covers, or start or end (or both)
    // inside it, or fit in one line, under per-access MAC granularity
    // overrides. The engine sends a run of tag lines as one range plus
    // the edge lines' read-modify-writes; a DRAM system fed the
    // per-line commands must end up in exactly the same state.
    static const u32 kGrans[] = {0, 64, 256, 512, 4096};
    for (u32 channels : {1u, 4u}) {
        for (Scheme scheme : {Scheme::MGX, Scheme::MGX_VN}) {
            const std::string label = std::string(schemeName(scheme)) +
                                      " on " + std::to_string(channels) +
                                      " channels";
            ProtectionConfig cfg;
            cfg.scheme = scheme;
            cfg.protectedBytes = 1ull << 30;
            dram::DramSystem dram(dram::ddr4_2400(channels));
            dram::DramSystem ref_dram(dram::ddr4_2400(channels));
            ProtectionEngine engine(cfg, &dram);
            TrafficBreakdown ref;
            Rng rng(channels * 10 + static_cast<u64>(scheme));
            Cycles arrival = 0;
            for (int i = 0; i < 600; ++i) {
                LogicalAccess acc;
                acc.macGranularity = kGrans[rng.below(5)];
                const u64 span =
                    64 / cfg.macBytes *
                    cfg.effectiveMacGranularity(acc.macGranularity);
                // Start on the span of data a tag line covers or
                // inside one, and end up to 24 spans later on a span
                // boundary or inside a span; one in five stays inside
                // its first span.
                const u64 head = rng.chance(0.5) ? 0 : 1 + rng.below(span - 1);
                const u64 tail = rng.chance(0.5) ? 0 : 1 + rng.below(span - 1);
                const u64 end = rng.chance(0.2)
                                    ? head + 1 + rng.below(span - head)
                                    : rng.below(24) * span + tail;
                acc.addr = rng.below(cfg.protectedBytes / 2 / span) * span +
                           head;
                acc.bytes = std::max(end, head + 1) - head;
                acc.type = rng.chance(0.5) ? AccessType::Read
                                           : AccessType::Write;
                const Cycles got = engine.access(acc, arrival);
                const Cycles want =
                    perLineMgxAccess(ref_dram, cfg, acc, arrival, ref);
                ASSERT_EQ(got, want) << label << ", access " << i;
                arrival += rng.below(3000);
            }
            EXPECT_EQ(dram.accessCount(), ref_dram.accessCount()) << label;
            EXPECT_EQ(dram.lastCompletion(), ref_dram.lastCompletion())
                << label;
            for (u32 c = 0; c < channels; ++c) {
                const dram::ChannelCounters &a = dram.channel(c).counters();
                const dram::ChannelCounters &b =
                    ref_dram.channel(c).counters();
                EXPECT_EQ(a.rowHits, b.rowHits) << label;
                EXPECT_EQ(a.rowMisses, b.rowMisses) << label;
                EXPECT_EQ(a.rowConflicts, b.rowConflicts) << label;
                EXPECT_EQ(a.reads, b.reads) << label;
                EXPECT_EQ(a.writes, b.writes) << label;
                EXPECT_EQ(a.refreshStallCycles, b.refreshStallCycles)
                    << label;
            }
            const TrafficBreakdown &t = engine.traffic();
            EXPECT_EQ(t.dataBytes, ref.dataBytes) << label;
            EXPECT_EQ(t.expandBytes, ref.expandBytes) << label;
            EXPECT_EQ(t.macBytes, ref.macBytes) << label;
            EXPECT_EQ(t.totalBytes(), ref.totalBytes()) << label;
        }
    }
}

} // namespace
} // namespace mgx::protection
