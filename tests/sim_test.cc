/**
 * @file
 * Performance-model and runner tests: compute/memory overlap, clock
 * conversion, scheme comparison over an explicit trace, and platform
 * definitions.
 */

#include <gtest/gtest.h>

#include "core/matmul_kernel.h"
#include "sim/experiment.h"

namespace mgx::sim {
namespace {

using core::LogicalAccess;
using core::Phase;
using core::Trace;
using protection::ProtectionConfig;
using protection::Scheme;

Trace
syntheticTrace(u64 phases, Cycles compute, u64 bytes)
{
    Trace trace;
    for (u64 i = 0; i < phases; ++i) {
        Phase p;
        // std::string + rvalue here trips GCC 12's -Wrestrict false
        // positive (PR105651) once inlining gets aggressive enough;
        // building the name in place sidesteps it.
        p.name = "p";
        p.name += std::to_string(i);
        p.computeCycles = compute;
        p.accesses.push_back({i * (64ull << 20), bytes, 1, AccessType::Read,
                              DataClass::Generic, 0});
        trace.push_back(std::move(p));
    }
    return trace;
}

RunResult
runNp(const Trace &trace, double accel_mhz = 1200.0)
{
    dram::DramSystem dram(dram::ddr4_2400(1));
    ProtectionConfig cfg;
    cfg.scheme = Scheme::NP;
    protection::ProtectionEngine engine(cfg, &dram);
    PerfModel model(&engine, accel_mhz);
    core::TracePhaseSource source(trace);
    return model.run(source);
}

TEST(PerfModel, ComputeBoundWorkloadHidesMemory)
{
    // Tiny traffic, huge compute: total ~= sum of compute.
    RunResult r = runNp(syntheticTrace(10, 100000, 64));
    EXPECT_NEAR(static_cast<double>(r.totalCycles), 10.0 * 100000,
                0.05 * 10 * 100000);
}

TEST(PerfModel, MemoryBoundWorkloadTracksDram)
{
    // Huge traffic, no compute: total ~= memory stream time.
    RunResult r = runNp(syntheticTrace(4, 1, 4 << 20));
    EXPECT_GT(r.memoryCycles, r.computeCycles * 100);
    EXPECT_GE(r.totalCycles, r.memoryCycles);
}

TEST(PerfModel, OverlapBeatsSerialExecution)
{
    // With double buffering, total < compute + memory.
    RunResult r = runNp(syntheticTrace(8, 40000, 2 << 20));
    EXPECT_LT(r.totalCycles, r.computeCycles + r.memoryCycles);
    // And at least the max of both.
    EXPECT_GE(r.totalCycles,
              std::max(r.computeCycles, r.memoryCycles));
}

TEST(PerfModel, ClockConversionScalesCompute)
{
    // The same trace on a half-speed accelerator needs 2x the
    // controller cycles for compute.
    RunResult fast = runNp(syntheticTrace(4, 50000, 64), 1200.0);
    RunResult slow = runNp(syntheticTrace(4, 50000, 64), 600.0);
    EXPECT_NEAR(static_cast<double>(slow.computeCycles),
                2.0 * static_cast<double>(fast.computeCycles), 8.0);
}

TEST(PerfModel, SecondsFollowControllerClock)
{
    RunResult r = runNp(syntheticTrace(1, 1200000, 64));
    EXPECT_NEAR(r.seconds, 0.001, 0.0001); // 1.2M cycles @ 1.2 GHz
}

TEST(Runner, CompareSchemesNormalizes)
{
    core::MatMulParams params;
    params.m = params.n = params.k = 256;
    params.kTiles = 2;
    core::MatMulKernel kernel(params);

    ResultSet rs = Experiment()
                       .trace("mm", kernel.generate())
                       .platform(edgePlatform())
                       .run();
    ASSERT_EQ(rs.records().size(), 5u);
    EXPECT_DOUBLE_EQ(rs.normalizedTime("mm", "Edge", Scheme::NP).value(),
                     1.0);
    EXPECT_GE(rs.normalizedTime("mm", "Edge", Scheme::MGX).value(), 1.0);
    EXPECT_GE(rs.normalizedTime("mm", "Edge", Scheme::BP).value(),
              rs.normalizedTime("mm", "Edge", Scheme::MGX).value());
    EXPECT_GT(rs.trafficIncrease("mm", "Edge", Scheme::BP).value(),
              rs.trafficIncrease("mm", "Edge", Scheme::MGX).value());
}

TEST(Runner, PlatformDefinitionsMatchPaper)
{
    EXPECT_EQ(cloudPlatform().dram.channels, 4u);
    EXPECT_DOUBLE_EQ(cloudPlatform().clockMhz, 700.0);
    EXPECT_EQ(edgePlatform().dram.channels, 1u);
    EXPECT_DOUBLE_EQ(edgePlatform().clockMhz, 900.0);
    EXPECT_DOUBLE_EQ(graphPlatform().clockMhz, 800.0);
}

TEST(Runner, FreshStatePerScheme)
{
    // Two identical experiments must agree exactly: no state leaks
    // between runs.
    const Trace trace = syntheticTrace(4, 1000, 1 << 20);
    const auto run = [&] {
        return Experiment()
            .trace("t", trace)
            .platform(edgePlatform())
            .schemes(trafficSchemes())
            .run();
    };
    const ResultSet a = run();
    const ResultSet b = run();
    for (auto scheme : trafficSchemes()) {
        ASSERT_NE(a.find("t", "Edge", scheme), nullptr);
        EXPECT_EQ(a.find("t", "Edge", scheme)->totalCycles,
                  b.find("t", "Edge", scheme)->totalCycles);
    }
}

} // namespace
} // namespace mgx::sim
