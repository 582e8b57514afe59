/**
 * @file
 * MGX core tests: counter construction (Fig. 6), the security-invariant
 * checker, and the Fig. 4 tiled-MatMul kernel's exact VN sequence.
 */

#include <gtest/gtest.h>

#include "core/counter.h"
#include "core/invariant_checker.h"
#include "core/matmul_kernel.h"

namespace mgx::core {
namespace {

// -- counter construction --------------------------------------------------------

TEST(Counter, TagOccupiesTopBits)
{
    Vn vn = makeVn(VnTag::Gradient, 1);
    EXPECT_EQ(vnTag(vn), VnTag::Gradient);
    EXPECT_EQ(vnValue(vn), 1u);
    EXPECT_EQ(vn >> 62, 0b10u);
}

TEST(Counter, ClassesMapToDistinctTags)
{
    EXPECT_NE(makeVn(DataClass::Feature, 7),
              makeVn(DataClass::Weight, 7));
    EXPECT_NE(makeVn(DataClass::Weight, 7),
              makeVn(DataClass::Gradient, 7));
    EXPECT_EQ(vnValue(makeVn(DataClass::Feature, 7)),
              vnValue(makeVn(DataClass::Weight, 7)));
}

TEST(Counter, GraphAndVideoClassesShareFeatureTag)
{
    EXPECT_EQ(tagForClass(DataClass::GraphVector), VnTag::Feature);
    EXPECT_EQ(tagForClass(DataClass::VideoFrame), VnTag::Feature);
    EXPECT_EQ(tagForClass(DataClass::GraphMatrix), VnTag::Weight);
    EXPECT_EQ(tagForClass(DataClass::GenomeQuery), VnTag::Gradient);
}

TEST(CounterDeathTest, OverflowRequiresRekey)
{
    // Values beyond 62 bits must abort rather than silently wrap —
    // counter reuse would break AES-CTR security.
    EXPECT_EXIT(makeVn(VnTag::Feature, kVnValueMax + 1),
                ::testing::ExitedWithCode(1), "re-key");
}

TEST(Counter, MaxValueIsAccepted)
{
    Vn vn = makeVn(VnTag::Feature, kVnValueMax);
    EXPECT_EQ(vnValue(vn), kVnValueMax);
}

// -- InvariantChecker ---------------------------------------------------------------

LogicalAccess
wr(Addr addr, u64 bytes, Vn value)
{
    return {addr, bytes, makeVn(DataClass::Generic, value),
            AccessType::Write, DataClass::Generic, 0};
}

LogicalAccess
rd(Addr addr, u64 bytes, Vn value)
{
    return {addr, bytes, makeVn(DataClass::Generic, value),
            AccessType::Read, DataClass::Generic, 0};
}

TEST(InvariantChecker, AcceptsMonotonicWrites)
{
    InvariantChecker checker;
    checker.observe(wr(0, 128, 1));
    checker.observe(wr(0, 128, 2));
    checker.observe(rd(0, 128, 2));
    EXPECT_TRUE(checker.report().ok);
}

TEST(InvariantChecker, RejectsVnReuse)
{
    InvariantChecker checker;
    checker.observe(wr(0, 64, 1));
    checker.observe(wr(0, 64, 1));
    EXPECT_FALSE(checker.report().ok);
}

TEST(InvariantChecker, RejectsVnRegression)
{
    InvariantChecker checker;
    checker.observe(wr(0, 64, 5));
    checker.observe(wr(0, 64, 3));
    EXPECT_FALSE(checker.report().ok);
}

TEST(InvariantChecker, RejectsStaleRead)
{
    InvariantChecker checker;
    checker.observe(wr(0, 64, 1));
    checker.observe(wr(0, 64, 2));
    checker.observe(rd(0, 64, 1)); // replay: reads the stale version
    EXPECT_FALSE(checker.report().ok);
}

TEST(InvariantChecker, DifferentTagsAreIndependentCounters)
{
    InvariantChecker checker;
    checker.observe({0, 64, makeVn(DataClass::Feature, 1),
                     AccessType::Write, DataClass::Feature, 0});
    checker.observe({0, 64, makeVn(DataClass::Weight, 1), AccessType::Write,
                     DataClass::Weight, 0});
    EXPECT_TRUE(checker.report().ok);
}

TEST(InvariantChecker, PartialOverlapChecked)
{
    InvariantChecker checker;
    checker.observe(wr(0, 256, 1));
    // Overlapping write with the same VN touches blocks 0..3 again.
    checker.observe(wr(128, 256, 1));
    EXPECT_FALSE(checker.report().ok);
}

TEST(InvariantChecker, UnwrittenReadsConfigurable)
{
    InvariantChecker strict;
    strict.allowUnwrittenReads(false);
    strict.observe(rd(0, 64, 1));
    EXPECT_FALSE(strict.report().ok);

    InvariantChecker lenient;
    lenient.observe(rd(0, 64, 1));
    EXPECT_TRUE(lenient.report().ok);
}

TEST(InvariantChecker, ExhaustiveModeCatchesNonMonotonicReuse)
{
    // Exhaustive mode also remembers old VNs; monotonic mode already
    // rejects this, so drive it through distinct tags... the simplest
    // demonstration is a repeat after an intervening higher VN.
    InvariantChecker checker(64, true);
    checker.observe(wr(0, 64, 1));
    checker.observe(wr(0, 64, 2));
    checker.observe(wr(0, 64, 2));
    auto report = checker.report();
    EXPECT_FALSE(report.ok);
    EXPECT_FALSE(report.violations.empty());
}

// -- MatMulKernel (paper Fig. 4) ------------------------------------------------------

TEST(MatMulKernel, Fig4VnSequence)
{
    // 2 K-rounds, 2 N-tiles: the exact example of Fig. 4.
    MatMulParams params;
    params.m = 64;
    params.n = 128;
    params.k = 128;
    params.nTiles = 2;
    params.kTiles = 2;
    params.initialVn = 10; // "n" in the figure
    MatMulKernel kernel(params);
    Trace trace = kernel.generate();

    // Phase 0 is the operand load; then 4 compute phases.
    ASSERT_EQ(trace.size(), 5u);

    // Rounds 1-2 (phases 1,2): C tiles written with VN n+1, no C read.
    for (int p : {1, 2}) {
        const auto &acc = trace[static_cast<std::size_t>(p)].accesses;
        ASSERT_EQ(acc.size(), 3u); // A tile, B tile, C write
        EXPECT_EQ(acc[2].type, AccessType::Write);
        EXPECT_EQ(vnValue(acc[2].vn), 11u);
    }
    // Rounds 3-4 (phases 3,4): read C with n+1, write with n+2.
    for (int p : {3, 4}) {
        const auto &acc = trace[static_cast<std::size_t>(p)].accesses;
        ASSERT_EQ(acc.size(), 4u);
        EXPECT_EQ(acc[2].type, AccessType::Read);
        EXPECT_EQ(vnValue(acc[2].vn), 11u);
        EXPECT_EQ(acc[3].type, AccessType::Write);
        EXPECT_EQ(vnValue(acc[3].vn), 12u);
    }
    EXPECT_EQ(vnValue(kernel.finalOutputVn()), 12u);
}

TEST(MatMulKernel, InvariantsHoldForLargerTilings)
{
    MatMulParams params;
    params.m = 256;
    params.n = 256;
    params.k = 512;
    params.mTiles = 2;
    params.nTiles = 4;
    params.kTiles = 8;
    MatMulKernel kernel(params);
    InvariantChecker checker;
    checker.allowUnwrittenReads(false);
    checker.observeTrace(kernel.generate());
    auto report = checker.report();
    EXPECT_TRUE(report.ok) << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
    EXPECT_GT(report.readsChecked, 0u);
}

TEST(MatMulKernel, ReadsMatchWritesAcrossReuse)
{
    // Two consecutive kernels on the same addresses: the second starts
    // from the first's final VN, modeling buffer reuse.
    MatMulParams params;
    params.kTiles = 2;
    InvariantChecker checker;
    MatMulKernel first(params);
    checker.observeTrace(first.generate());
    params.initialVn = vnValue(first.finalOutputVn());
    MatMulKernel second(params);
    const Trace reuse = second.generate();
    checker.observeTrace(reuse);
    EXPECT_TRUE(checker.report().ok);

    // Running the first kernel again is the same reuse: it continues
    // from its own VN counter, operand loads included.
    const Trace again = first.generate();
    ASSERT_EQ(again.size(), reuse.size());
    for (std::size_t p = 0; p < again.size(); ++p) {
        ASSERT_EQ(again[p].accesses.size(), reuse[p].accesses.size());
        for (std::size_t i = 0; i < again[p].accesses.size(); ++i) {
            EXPECT_EQ(again[p].accesses[i].addr, reuse[p].accesses[i].addr);
            EXPECT_EQ(again[p].accesses[i].vn, reuse[p].accesses[i].vn);
        }
    }
}

} // namespace
} // namespace mgx::core
