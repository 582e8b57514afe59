/**
 * @file
 * Protection-engine edge cases: unaligned and tiny accesses, huge
 * single accesses, granularity overrides interacting with MGX_MAC,
 * flush idempotency, and scheme-specific metadata accounting
 * boundaries.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace mgx::protection
