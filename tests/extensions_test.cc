/**
 * @file
 * Tests for the extension features: re-keying on VN overflow
 * (§IV-C), MobileNet / depthwise convolutions, trace serialization,
 * DRAM bus-turnaround timing, and the SSSP kernel variant.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "core/invariant_checker.h"
#include "core/matmul_kernel.h"
#include "core/rekey.h"
#include "dnn/chaidnn.h"
#include "dnn/dnn_kernel.h"
#include "dnn/models.h"
#include "dram/dram_system.h"
#include "graph/graph_kernel.h"
#include "sim/experiment.h"
#include "sim/trace_io.h"

namespace mgx {
namespace {

// -- RekeyManager --------------------------------------------------------------

TEST(Rekey, TriggersNearOverflow)
{
    core::RekeyManager manager(1 << 20);
    EXPECT_FALSE(manager.needsRekey(1));
    EXPECT_FALSE(manager.needsRekey(core::kVnValueMax - (2 << 20)));
    EXPECT_TRUE(manager.needsRekey(core::kVnValueMax - 1));
    EXPECT_TRUE(manager.needsRekey(core::kVnValueMax - (1 << 20)));
}

TEST(Rekey, PlanCoversEveryRegionByte)
{
    core::RekeyManager manager;
    std::vector<core::LiveRegion> regions = {
        {0x0000, 3 << 20, DataClass::Weight, 5},
        {4ull << 30, 1 << 19, DataClass::Feature, 9},
    };
    core::Trace trace = manager.planRekey(regions, 1 << 20);
    u64 read_bytes = 0, written_bytes = 0;
    for (const auto &phase : trace) {
        for (const auto &acc : phase.accesses) {
            (acc.type == AccessType::Read ? read_bytes
                                          : written_bytes) += acc.bytes;
        }
    }
    EXPECT_EQ(read_bytes, (3ull << 20) + (1 << 19));
    EXPECT_EQ(written_bytes, (3ull << 20) + (1 << 19));
    // 3 chunks for the first region + 1 for the second.
    EXPECT_EQ(trace.size(), 4u);
    EXPECT_EQ(manager.epoch(), 1u);
}

TEST(Rekey, ReadsUseOldVnWritesRestart)
{
    core::RekeyManager manager;
    core::Trace trace = manager.planRekey(
        {{0, 4096, DataClass::Feature, 777}});
    ASSERT_EQ(trace.size(), 1u);
    ASSERT_EQ(trace[0].accesses.size(), 2u);
    EXPECT_EQ(core::vnValue(trace[0].accesses[0].vn), 777u);
    EXPECT_EQ(core::vnValue(trace[0].accesses[1].vn), 1u);
}

TEST(Rekey, CostIsMeasurable)
{
    // A re-key of 64 MB through the MGX engine: the traffic is twice
    // the region size plus the MAC stream.
    core::RekeyManager manager;
    core::Trace trace = manager.planRekey(
        {{0, 64 << 20, DataClass::Weight, 3}});
    sim::ResultSet rs = sim::Experiment()
                            .trace("rekey", std::move(trace))
                            .platform(sim::edgePlatform())
                            .schemes({protection::Scheme::MGX})
                            .run();
    const sim::RunResult *mgx =
        rs.find("rekey", "Edge", protection::Scheme::MGX);
    ASSERT_NE(mgx, nullptr);
    const auto &traffic = mgx->traffic;
    EXPECT_EQ(traffic.dataBytes, 2ull * (64 << 20));
    EXPECT_GT(traffic.macBytes, 0u);
}

// -- MobileNet / depthwise -------------------------------------------------------

TEST(MobileNet, ParameterCount)
{
    // MobileNet-v1: ~4.2 M parameters.
    const u64 params = dnn::mobilenetV1().weightBytes(1);
    EXPECT_GT(params, 3900u * 1000);
    EXPECT_LT(params, 4600u * 1000);
}

TEST(MobileNet, MacCount)
{
    // ~569 M MACs per 224x224 image.
    const u64 macs = dnn::mobilenetV1().totalMacs();
    EXPECT_GT(macs, 520ull * 1000 * 1000);
    EXPECT_LT(macs, 620ull * 1000 * 1000);
}

TEST(MobileNet, DepthwiseLayersHaveTinyWeights)
{
    dnn::Model m = dnn::mobilenetV1();
    for (const auto &l : m.layers) {
        if (l.kind == dnn::LayerKind::Depthwise) {
            EXPECT_EQ(l.weightElems(),
                      static_cast<u64>(l.outC) * l.kH * l.kW);
        }
    }
}

TEST(MobileNet, TraceKeepsInvariants)
{
    dnn::DnnKernel kernel(dnn::mobilenetV1(), dnn::edgeAccel());
    core::InvariantChecker checker;
    checker.observeTrace(kernel.generate());
    EXPECT_TRUE(checker.report().ok);
}

TEST(MobileNet, TrainingTraceKeepsInvariants)
{
    dnn::DnnKernel kernel(dnn::mobilenetV1(), dnn::cloudAccel(),
                          dnn::DnnTask::Training);
    core::InvariantChecker checker;
    checker.observeTrace(kernel.generate());
    EXPECT_TRUE(checker.report().ok);
}

TEST(MobileNet, ChaiDnnSupportsDepthwise)
{
    EXPECT_TRUE(dnn::chaiSupports(dnn::mobilenetV1()));
    auto program = dnn::compileForChai(dnn::mobilenetV1());
    // 1 stem + 13x(dw+pw) + 1 pool + 1 fc = 29 instructions.
    EXPECT_EQ(program.instructions.size(), 29u);
}

// -- trace serialization -----------------------------------------------------------

TEST(TraceIo, RoundTripPreservesEverything)
{
    dnn::DnnKernel kernel(dnn::alexnet(), dnn::edgeAccel());
    core::Trace original = kernel.generate();
    core::Trace parsed =
        sim::traceFromString(sim::traceToString(original));
    ASSERT_EQ(parsed.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(parsed[i].name, original[i].name);
        EXPECT_EQ(parsed[i].computeCycles, original[i].computeCycles);
        ASSERT_EQ(parsed[i].accesses.size(),
                  original[i].accesses.size());
        for (std::size_t a = 0; a < original[i].accesses.size(); ++a) {
            const auto &x = original[i].accesses[a];
            const auto &y = parsed[i].accesses[a];
            EXPECT_EQ(y.addr, x.addr);
            EXPECT_EQ(y.bytes, x.bytes);
            EXPECT_EQ(y.type, x.type);
            EXPECT_EQ(y.cls, x.cls);
            EXPECT_EQ(y.vn, x.vn);
            EXPECT_EQ(y.macGranularity, x.macGranularity);
        }
    }
}

TEST(TraceIo, CommentsAndBlankLinesIgnored)
{
    core::Trace t = sim::traceFromString(
        "# a comment\n\nP warmup 100\nA r 1000 64 feature 4 0\n");
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].name, "warmup");
    EXPECT_EQ(t[0].accesses[0].addr, 0x1000u);
    EXPECT_EQ(t[0].accesses[0].cls, DataClass::Feature);
}

// Damaged trace text is an environment fault, not a programming
// error: parse failures raise the catchable TraceIoError (see
// sim/trace_io.h) so callers can report the bad file instead of
// losing the process.
TEST(TraceIo, MalformedInputThrowsTraceIoError)
{
    auto message = [](const char *text) -> std::string {
        try {
            sim::traceFromString(text);
        } catch (const sim::TraceIoError &e) {
            return e.what();
        }
        ADD_FAILURE() << "no TraceIoError for: " << text;
        return {};
    };
    EXPECT_NE(message("A r 0 64 feature 1 0\n").find("before any "
                                                     "phase"),
              std::string::npos);
    EXPECT_NE(
        message("P p 1\nA x 0 64 feature 1 0\n").find("malformed "
                                                      "access"),
        std::string::npos);
    EXPECT_NE(
        message("P p 1\nA r 0 64 nonsense 1 0\n").find("unknown data "
                                                       "class"),
        std::string::npos);
    // A MAC granularity is 0 (the scheme's default) or a power of two
    // of at least one 64-byte line: the model aligns to it.
    for (const char *gran : {"3", "32", "4294967295"}) {
        const std::string text =
            std::string("P p0 100\nA w 0 4096 feature 1 ") + gran + "\n";
        const std::string msg = message(text.c_str());
        EXPECT_NE(msg.find("trace line 2: MAC granularity"),
                  std::string::npos)
            << msg;
    }
    for (const char *gran : {"0", "64", "512"}) {
        const std::string text =
            std::string("P p0 100\nA w 0 4096 feature 1 ") + gran + "\n";
        const core::Trace trace = sim::traceFromString(text);
        ASSERT_EQ(trace.size(), 1u) << gran;
        ASSERT_EQ(trace[0].accesses.size(), 1u) << gran;
        EXPECT_EQ(trace[0].accesses[0].macGranularity, std::stoul(gran));
    }
}

TEST(TraceIo, ReplayedTraceSimulatesIdentically)
{
    core::MatMulParams params;
    params.kTiles = 2;
    core::MatMulKernel kernel(params);
    core::Trace original = kernel.generate();
    core::Trace replayed =
        sim::traceFromString(sim::traceToString(original));
    sim::ResultSet rs = sim::Experiment()
                            .trace("original", std::move(original))
                            .trace("replayed", std::move(replayed))
                            .platform(sim::edgePlatform())
                            .schemes(sim::trafficSchemes())
                            .run();
    for (auto s : sim::trafficSchemes()) {
        ASSERT_NE(rs.find("original", "Edge", s), nullptr);
        EXPECT_EQ(rs.find("original", "Edge", s)->totalCycles,
                  rs.find("replayed", "Edge", s)->totalCycles);
    }
}

// -- DRAM turnaround ------------------------------------------------------------------

TEST(DramTurnaround, AlternatingRwSlowerThanStreams)
{
    // Same requests, same rows: pure read stream + pure write stream
    // beats strictly alternating read/write on the same data.
    dram::DramSystem mixed(dram::ddr4_2400(1));
    for (int i = 0; i < 256; ++i)
        mixed.access(
            {static_cast<Addr>(i) * 64, (i % 2) == 1, 0});
    const Cycles mixed_done = mixed.lastCompletion();

    dram::DramSystem split(dram::ddr4_2400(1));
    for (int i = 0; i < 256; i += 2)
        split.access({static_cast<Addr>(i) * 64, false, 0});
    for (int i = 1; i < 256; i += 2)
        split.access({static_cast<Addr>(i) * 64, true, 0});
    EXPECT_GT(mixed_done, split.lastCompletion());
}

// -- SSSP kernel -----------------------------------------------------------------------

TEST(Sssp, KernelSharesTheVnScheme)
{
    graph::GraphSpec spec{"tiny", 30000, 150000, 1, 1.8};
    graph::GraphTiles tiles = graph::buildTiles(spec, 8192, 8192, 2);
    graph::GraphKernel kernel(tiles, graph::GraphAlgorithm::SSSP, 4);
    EXPECT_EQ(kernel.name().rfind("SSSP-", 0), 0u);
    core::InvariantChecker checker;
    checker.observeTrace(kernel.generate());
    EXPECT_TRUE(checker.report().ok);
    EXPECT_EQ(kernel.iterCounter(), 4u);
}

} // namespace
} // namespace mgx
