/**
 * @file
 * Channel-sharded replay tests: CaptureBuffer lane routing and the
 * crypto-group merge rule, sharded-vs-serial bitwise equivalence for
 * one cell per domain x NP/MGX/BP, determinism across pool widths
 * 1/2/4/8 (including per-channel load equality *across* widths),
 * clean shutdown when the phase source throws mid-stream (bare and
 * composed with the pipeline ring), and the Experiment-level
 * threads/replayThreads composition. This suite runs under
 * ThreadSanitizer in CI (-DMGX_SANITIZE=thread).
 *
 * Every Experiment here sets threads() explicitly: the thread budget
 * defaults to hardware_concurrency, and on a single-core runner that
 * clamps the shard width back to 1 (serial) — which would make these
 * equivalence tests vacuously true.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/pipeline.h"
#include "sim/shard.h"
#include "sim/workload_registry.h"

namespace mgx::sim {
namespace {

using protection::ProtectionConfig;
using protection::ProtectionEngine;
using protection::Scheme;

/** One small, fast workload per domain (same set as pipeline tests). */
const char *const kDomainWorkloads[] = {
    "core/matmul?m=256&n=256&k=256",
    "dnn/MobileNet?task=training",
    "graph/google-plus/pagerank?vector=random",
    "genome/chr1PacBio?reads=8",
    "video/h264?frames=6",
};

RunResult
runSerial(const std::string &workload, Scheme scheme)
{
    const Platform platform = defaultPlatform(workload);
    dram::DramSystem dram(platform.dram);
    ProtectionConfig cfg;
    cfg.scheme = scheme;
    ProtectionEngine engine(cfg, &dram);
    PerfModel model(&engine, platform.clockMhz);
    auto kernel = makeKernel(workload, platform);
    auto source = kernel->stream();
    return model.run(*source);
}

RunResult
runSharded(const std::string &workload, Scheme scheme, u32 width)
{
    const Platform platform = defaultPlatform(workload);
    dram::DramSystem dram(platform.dram);
    ProtectionConfig cfg;
    cfg.scheme = scheme;
    ProtectionEngine engine(cfg, &dram);
    PerfModel model(&engine, platform.clockMhz);
    auto kernel = makeKernel(workload, platform);
    auto source = kernel->stream();
    ShardPool shard(dram, width);
    return model.run(*source, shard);
}

/**
 * Every deterministic field must match — including the metaCache
 * counters and the content-derived footprint fields (traceBytes,
 * peakPhaseBytes). Only the pipeline/shard diagnostics may differ.
 */
void
expectBitwiseEqual(const RunResult &a, const RunResult &b,
                   const std::string &label)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles) << label;
    EXPECT_EQ(a.computeCycles, b.computeCycles) << label;
    EXPECT_EQ(a.memoryCycles, b.memoryCycles) << label;
    EXPECT_EQ(a.traffic.dataBytes, b.traffic.dataBytes) << label;
    EXPECT_EQ(a.traffic.expandBytes, b.traffic.expandBytes) << label;
    EXPECT_EQ(a.traffic.macBytes, b.traffic.macBytes) << label;
    EXPECT_EQ(a.traffic.vnBytes, b.traffic.vnBytes) << label;
    EXPECT_EQ(a.traffic.treeBytes, b.traffic.treeBytes) << label;
    EXPECT_EQ(a.dramAccesses, b.dramAccesses) << label;
    EXPECT_EQ(a.logicalAccesses, b.logicalAccesses) << label;
    EXPECT_EQ(a.metaCacheHits, b.metaCacheHits) << label;
    EXPECT_EQ(a.metaCacheMisses, b.metaCacheMisses) << label;
    EXPECT_EQ(a.metaCacheWritebacks, b.metaCacheWritebacks) << label;
    EXPECT_EQ(a.traceBytes, b.traceBytes) << label;
    EXPECT_EQ(a.peakPhaseBytes, b.peakPhaseBytes) << label;
    EXPECT_EQ(a.seconds, b.seconds) << label;
}

// ---------------------------------------------------------------------
// CaptureBuffer units
// ---------------------------------------------------------------------

TEST(CaptureBufferUnit, RoutesByChannelAndPreservesLaneOrder)
{
    dram::CaptureBuffer buf;
    buf.reset(4, 100);
    EXPECT_EQ(buf.channels(), 4u);
    EXPECT_EQ(buf.arrival(), 100u);
    EXPECT_EQ(buf.totalRequests(), 0u);

    dram::Coord c0{0, 0, 0, 7, 1};
    dram::Coord c2a{2, 0, 1, 9, 3};
    dram::Coord c2b{2, 0, 1, 9, 4};
    buf.emit(c0, true);
    buf.setCryptoTag(true);
    buf.emit(c2a, false);
    buf.emit(c2b, false);
    buf.setCryptoTag(false);

    EXPECT_EQ(buf.totalRequests(), 3u);
    ASSERT_EQ(buf.lane(0).size(), 1u);
    EXPECT_TRUE(buf.lane(0)[0].isWrite);
    EXPECT_FALSE(buf.lane(0)[0].crypto);
    EXPECT_EQ(buf.lane(1).size(), 0u);
    ASSERT_EQ(buf.lane(2).size(), 2u); // serial order within the lane
    EXPECT_EQ(buf.lane(2)[0].coord.column, 3u);
    EXPECT_EQ(buf.lane(2)[1].coord.column, 4u);
    EXPECT_TRUE(buf.lane(2)[0].crypto);
    EXPECT_TRUE(buf.lane(2)[1].crypto);
    EXPECT_EQ(buf.lane(3).size(), 0u);
}

TEST(CaptureBufferUnit, ResetClearsLanesAndCryptoTag)
{
    dram::CaptureBuffer buf;
    buf.reset(2, 5);
    buf.setCryptoTag(true);
    buf.emit(dram::Coord{1, 0, 0, 0, 0}, false);
    buf.reset(2, 9);
    EXPECT_EQ(buf.totalRequests(), 0u);
    EXPECT_EQ(buf.lane(1).size(), 0u);
    EXPECT_EQ(buf.arrival(), 9u);
    buf.emit(dram::Coord{0, 0, 0, 0, 0}, false);
    EXPECT_FALSE(buf.lane(0)[0].crypto); // tag does not survive reset
}

TEST(CaptureBufferUnit, DramSystemCaptureMatchesInlineDecode)
{
    // The same access sequence, captured vs timed inline, must decode
    // to identical per-channel request streams and bump accessCount
    // identically.
    const dram::Ddr4Config cfg = dram::ddr4_2400(4);
    dram::DramSystem inline_sys(cfg);
    dram::DramSystem captured_sys(cfg);

    const Cycles issue = 50;
    inline_sys.accessRange(0x10000, 512, false, issue);
    inline_sys.accessRange(0x42000, 256, true, issue);

    dram::CaptureBuffer buf;
    buf.reset(captured_sys.channelCount(), issue);
    captured_sys.beginCapture(&buf);
    EXPECT_TRUE(captured_sys.capturing());
    captured_sys.accessRange(0x10000, 512, false, issue);
    captured_sys.accessRange(0x42000, 256, true, issue);
    captured_sys.endCapture();
    EXPECT_FALSE(captured_sys.capturing());

    EXPECT_EQ(captured_sys.accessCount(), inline_sys.accessCount());
    EXPECT_EQ(buf.totalRequests(), inline_sys.accessCount());
    // (512 + 256) / 64-byte blocks, spread across the 4 channels.
    EXPECT_EQ(buf.totalRequests(), 12u);
    u64 captured = 0;
    for (u32 c = 0; c < buf.channels(); ++c)
        captured += buf.lane(c).size();
    EXPECT_EQ(captured, buf.totalRequests());
}

// ---------------------------------------------------------------------
// ShardPool merge units
// ---------------------------------------------------------------------

TEST(ShardPoolUnit, WidthClampsToChannelCount)
{
    dram::DramSystem four(dram::ddr4_2400(4));
    dram::DramSystem one(dram::ddr4_2400(1));
    EXPECT_EQ(ShardPool(four, 8).width(), 4u);
    EXPECT_EQ(ShardPool(four, 3).width(), 3u);
    EXPECT_EQ(ShardPool(four, 0).width(), 1u);
    EXPECT_EQ(ShardPool(one, 4).width(), 1u);
}

TEST(ShardPoolUnit, EmptyStepReturnsIssueExactly)
{
    dram::DramSystem dram(dram::ddr4_2400(4));
    ShardPool pool(dram, 4);
    dram::CaptureBuffer buf;
    buf.reset(dram.channelCount(), 123);
    EXPECT_EQ(pool.replay(buf, 123, 40), 123u);
    for (const ShardChannelLoad &load : pool.channelLoads()) {
        EXPECT_EQ(load.requests, 0u);
        EXPECT_EQ(load.busyCycles, 0u);
    }
}

TEST(ShardPoolUnit, MergeAppliesCryptoLatencyToGroupMax)
{
    // Replay the same two-request step inline and through the pool:
    // the merged ready cycle must equal max(issue, plain completion,
    // crypto completion + latency) with completions reproduced bit
    // for bit from the serial channel walk.
    const dram::Ddr4Config cfg = dram::ddr4_2400(4);
    const Cycles issue = 200;
    const Cycles crypto_latency = 40;
    const dram::Coord plain{0, 0, 2, 11, 5};
    const dram::Coord crypto{1, 0, 3, 13, 7};

    dram::DramSystem serial(cfg);
    const Cycles plain_done =
        serial.accessCoord(plain, true, issue);
    const Cycles crypto_done =
        serial.accessCoord(crypto, false, issue);

    dram::DramSystem sharded(cfg);
    ShardPool pool(sharded, 4);
    dram::CaptureBuffer buf;
    buf.reset(sharded.channelCount(), issue);
    buf.emit(plain, true);
    buf.setCryptoTag(true);
    buf.emit(crypto, false);

    const Cycles ready = pool.replay(buf, issue, crypto_latency);
    EXPECT_EQ(ready, std::max({issue, plain_done,
                               crypto_done + crypto_latency}));

    const auto &loads = pool.channelLoads();
    ASSERT_EQ(loads.size(), 4u);
    EXPECT_EQ(loads[0].requests, 1u);
    EXPECT_EQ(loads[0].busyCycles, plain_done - issue);
    EXPECT_EQ(loads[1].requests, 1u);
    EXPECT_EQ(loads[1].busyCycles, crypto_done - issue);
    EXPECT_EQ(loads[2].requests, 0u);
    EXPECT_EQ(loads[3].requests, 0u);
}

TEST(ShardPoolUnit, ChannelLoadsIdenticalAcrossWidths)
{
    // One captured step replayed at widths 1, 2 and 4 on fresh,
    // identical systems: merged ready and per-channel loads must not
    // depend on the pool width (static lane partition + in-order
    // lanes + order-insensitive merge).
    const dram::Ddr4Config cfg = dram::ddr4_2400(4);
    const Cycles issue = 75;

    auto capture = [&](dram::DramSystem &sys, dram::CaptureBuffer &buf) {
        buf.reset(sys.channelCount(), issue);
        sys.beginCapture(&buf);
        sys.accessRange(0x8000, 1024, false, issue);
        sys.accessRange(0x20000, 512, true, issue);
        sys.endCapture();
    };

    std::vector<Cycles> ready;
    std::vector<std::vector<ShardChannelLoad>> loads;
    for (u32 width : {1u, 2u, 4u}) {
        dram::DramSystem sys(cfg);
        dram::CaptureBuffer buf;
        capture(sys, buf);
        ShardPool pool(sys, width);
        EXPECT_EQ(pool.width(), width);
        ready.push_back(pool.replay(buf, issue, 0));
        loads.push_back(pool.channelLoads());
    }
    EXPECT_EQ(ready[0], ready[1]);
    EXPECT_EQ(ready[0], ready[2]);
    for (std::size_t w = 1; w < loads.size(); ++w) {
        ASSERT_EQ(loads[w].size(), loads[0].size());
        for (std::size_t c = 0; c < loads[0].size(); ++c) {
            EXPECT_EQ(loads[w][c].requests, loads[0][c].requests);
            EXPECT_EQ(loads[w][c].busyCycles, loads[0][c].busyCycles);
        }
    }
}

// ---------------------------------------------------------------------
// Sharded replay equivalence
// ---------------------------------------------------------------------

TEST(ShardReplay, MatchesSerialStreamingAllDomains)
{
    // All five schemes, bitwise-identical between the serial drain
    // and 4-wide channel-sharded replay in every domain. Capture stays
    // per line, so this also checks the serial run's row-run DRAM
    // path against a per-line oracle on every scheme's traffic: data
    // ranges (NP, MGX's expanded blocks, BP's and MGX_MAC's data),
    // MAC tag lines, and the metadata cache's miss streams.
    for (const char *workload : kDomainWorkloads) {
        for (Scheme scheme : protection::kAllSchemes) {
            const std::string label =
                std::string(workload) + "/" +
                protection::schemeName(scheme);
            const RunResult serial = runSerial(workload, scheme);
            const RunResult sharded = runSharded(workload, scheme, 4);
            expectBitwiseEqual(serial, sharded, label);
            // The serial run never saw a pool; the sharded one did,
            // clamped to the platform's channel count.
            EXPECT_EQ(serial.shardReplayThreads, 0u) << label;
            const u32 channels =
                defaultPlatform(workload).dram.channels;
            EXPECT_EQ(sharded.shardReplayThreads,
                      std::min(4u, channels))
                << label;
            // Every DRAM access went through exactly one lane.
            u64 lane_requests = 0;
            for (const ShardChannelLoad &load : sharded.shardChannels)
                lane_requests += load.requests;
            EXPECT_EQ(lane_requests, sharded.dramAccesses) << label;
        }
    }
}

TEST(ShardReplay, DeterministicAcrossWidths1248)
{
    const std::string w = "dnn/MobileNet?task=training";
    for (Scheme scheme : {Scheme::MGX, Scheme::BP}) {
        const std::string label =
            std::string(w) + "/" + protection::schemeName(scheme);
        std::vector<RunResult> runs;
        for (u32 width : {1u, 2u, 4u, 8u})
            runs.push_back(runSharded(w, scheme, width));
        for (std::size_t i = 1; i < runs.size(); ++i) {
            expectBitwiseEqual(runs[0], runs[i],
                               label + " width index " +
                                   std::to_string(i));
            // Per-channel loads are identical even across widths;
            // only mergeWaits (scheduling) and the width itself vary.
            ASSERT_EQ(runs[i].shardChannels.size(),
                      runs[0].shardChannels.size());
            for (std::size_t c = 0; c < runs[0].shardChannels.size();
                 ++c) {
                EXPECT_EQ(runs[i].shardChannels[c].requests,
                          runs[0].shardChannels[c].requests)
                    << label;
                EXPECT_EQ(runs[i].shardChannels[c].busyCycles,
                          runs[0].shardChannels[c].busyCycles)
                    << label;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shutdown mid-phase
// ---------------------------------------------------------------------

/** Emits a few phases, then dies mid-stream. */
class ThrowingSource final : public core::PhaseSource
{
  public:
    bool
    nextChunk(core::PhaseSink &sink) override
    {
        if (emitted_ == 5)
            throw std::runtime_error("kernel stream failed");
        core::Phase p;
        p.name = "phase" + std::to_string(emitted_);
        p.computeCycles = emitted_;
        p.accesses.push_back({emitted_ * 4096, 256, emitted_,
                              AccessType::Write, DataClass::Generic,
                              0});
        ++emitted_;
        sink.consume(scratch_ = std::move(p));
        return true;
    }

  private:
    u64 emitted_ = 0;
    core::Phase scratch_;
};

TEST(ShardReplay, SourceThrowMidStreamShutsDownCleanly)
{
    // The source dies after the pool has replayed several phases:
    // the exception must surface on the caller with the workers
    // parked, and the pool destructor must join without deadlock.
    const Platform platform = cloudPlatform();
    dram::DramSystem dram(platform.dram);
    ProtectionConfig cfg;
    cfg.scheme = Scheme::MGX;
    ProtectionEngine engine(cfg, &dram);
    PerfModel model(&engine, platform.clockMhz);
    ThrowingSource source;
    ShardPool shard(dram, 4);
    EXPECT_THROW(model.run(source, shard), std::runtime_error);
}

TEST(ShardReplay, SourceThrowComposedWithPipelineShutsDownCleanly)
{
    // Same, composed with the SPSC ring: the producer thread fails,
    // the failure drains through the ring to the sharded consumer,
    // and both the ring join and the pool join must complete.
    const Platform platform = cloudPlatform();
    dram::DramSystem dram(platform.dram);
    ProtectionConfig cfg;
    cfg.scheme = Scheme::BP;
    ProtectionEngine engine(cfg, &dram);
    PerfModel model(&engine, platform.clockMhz);
    ThrowingSource source;
    ShardPool shard(dram, 4);
    PipelineOptions options;
    options.ringCapacity = 2;
    options.shard = &shard;
    EXPECT_THROW(runPipelined(model, source, options),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// Experiment composition
// ---------------------------------------------------------------------

TEST(ShardReplay, ExperimentShardedGridMatchesSerial)
{
    const std::vector<std::string> ws = {
        "core/matmul?m=128&n=128&k=128",
        "graph/google-plus/pagerank?vector=random"};
    auto grid = [&](u32 threads, u32 replay_threads, bool pipeline) {
        return Experiment()
            .workloads(ws)
            .schemes({Scheme::NP, Scheme::MGX, Scheme::BP})
            .threads(threads)
            .replayThreads(replay_threads)
            .pipelined(pipeline)
            .run();
    };
    const ResultSet serial = grid(1, 1, false);
    const ResultSet sharded = grid(5, 4, false);
    const ResultSet both = grid(5, 4, true);
    ASSERT_EQ(serial.records().size(), sharded.records().size());
    ASSERT_EQ(serial.records().size(), both.records().size());
    for (std::size_t i = 0; i < serial.records().size(); ++i) {
        const std::string &label = serial.records()[i].key.workload;
        expectBitwiseEqual(serial.records()[i].result,
                           sharded.records()[i].result,
                           label + " sharded");
        expectBitwiseEqual(serial.records()[i].result,
                           both.records()[i].result,
                           label + " sharded+pipelined");
        EXPECT_GE(sharded.records()[i].result.shardReplayThreads, 2u);
        EXPECT_GE(both.records()[i].result.shardReplayThreads, 2u);
        EXPECT_GE(both.records()[i].result.pipelineMaxOccupancy, 1u);
    }
}

TEST(ShardReplay, SingleThreadBudgetClampsShardingOff)
{
    // threads(1) cannot afford a second replay lane: the width clamps
    // to 1 (serial replay, no pool) rather than oversubscribing —
    // the same policy pipelined() applies at budget 1.
    const ResultSet rs = Experiment()
                             .workload("core/matmul?m=128&n=128&k=128")
                             .schemes({Scheme::BP})
                             .threads(1)
                             .replayThreads(8)
                             .run();
    ASSERT_EQ(rs.records().size(), 1u);
    EXPECT_EQ(rs.records()[0].result.shardReplayThreads, 0u);
}

} // namespace
} // namespace mgx::sim
