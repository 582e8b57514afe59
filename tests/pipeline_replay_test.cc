/**
 * @file
 * Pipelined-replay tests: the SPSC PhaseRing itself (FIFO order,
 * blocking back-pressure, both shutdown sides, error propagation),
 * streamed-vs-pipelined bitwise equivalence for one cell per domain,
 * ring-capacity invariance, and a trace file unlinked under its
 * reader. This suite (plus streaming_test and experiment_test) runs
 * under ThreadSanitizer in CI (-DMGX_SANITIZE=thread).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/phase_ring.h"
#include "sim/experiment.h"
#include "sim/pipeline.h"
#include "sim/trace_io.h"
#include "sim/workload_registry.h"

namespace mgx::sim {
namespace {

namespace fs = std::filesystem;

using protection::ProtectionConfig;
using protection::ProtectionEngine;
using protection::Scheme;

/** One small, fast workload per domain (same set as streaming_test). */
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
runRingPipelined(const std::string &workload, Scheme scheme,
                 std::size_t ring_capacity = 8)
{
    const Platform platform = defaultPlatform(workload);
    dram::DramSystem dram(platform.dram);
    ProtectionConfig cfg;
    cfg.scheme = scheme;
    ProtectionEngine engine(cfg, &dram);
    PerfModel model(&engine, platform.clockMhz);
    auto kernel = makeKernel(workload, platform);
    auto source = kernel->stream();
    return runPipelined(model, *source, ring_capacity);
}

/**
 * Every deterministic field must match — including the metaCache
 * counters and the content-derived footprint fields (traceBytes,
 * peakPhaseBytes). Only the pipeline stall counters may differ.
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

/** A tiny distinguishable phase for the ring unit tests. */
core::Phase
testPhase(u64 index)
{
    core::Phase p;
    p.name = "phase" + std::to_string(index);
    p.computeCycles = index;
    p.accesses.push_back(
        {index * 64, 64, index, AccessType::Write, DataClass::Generic, 0});
    return p;
}

// ---------------------------------------------------------------------
// PhaseRing unit tests
// ---------------------------------------------------------------------

TEST(PhaseRing, FifoOrderThroughTinyRing)
{
    // Capacity 2 forces constant back-pressure: the producer can be
    // at most two phases ahead, yet order and content must survive.
    constexpr u64 kPhases = 500;
    core::PhaseRing ring(2);
    std::thread producer([&ring] {
        for (u64 i = 0; i < kPhases; ++i)
            ASSERT_TRUE(ring.push(testPhase(i)));
        ring.closeProducer();
    });
    core::Phase scratch;
    u64 next = 0;
    while (ring.pop(scratch)) {
        const core::Phase expected = testPhase(next);
        EXPECT_EQ(scratch.name, expected.name);
        EXPECT_EQ(scratch.computeCycles, expected.computeCycles);
        ASSERT_EQ(scratch.accesses.size(), 1u);
        EXPECT_EQ(scratch.accesses[0].addr, expected.accesses[0].addr);
        EXPECT_EQ(scratch.accesses[0].vn, expected.accesses[0].vn);
        ++next;
    }
    producer.join();
    EXPECT_EQ(next, kPhases);
    const core::PhaseRing::Stats stats = ring.stats();
    EXPECT_EQ(stats.phases, kPhases);
    EXPECT_GE(stats.maxOccupancy, 1u);
    EXPECT_LE(stats.maxOccupancy, 2u);
}

TEST(PhaseRing, ZeroCapacityIsClampedToOne)
{
    core::PhaseRing ring(0);
    EXPECT_EQ(ring.capacity(), 1u);
}

TEST(PhaseRing, ConsumerEarlyExitReleasesBlockedProducer)
{
    core::PhaseRing ring(2);
    std::atomic<u64> pushed{0};
    std::thread producer([&ring, &pushed] {
        for (u64 i = 0; i < 100; ++i) {
            if (!ring.push(testPhase(i)))
                return; // consumer closed: clean stop
            pushed.fetch_add(1, std::memory_order_relaxed);
        }
    });
    core::Phase scratch;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(ring.pop(scratch));
    ring.closeConsumer();
    producer.join(); // must not deadlock on the full ring
    // 3 popped + at most 2 still buffered ever succeeded.
    EXPECT_LE(pushed.load(), 5u);
    EXPECT_GE(pushed.load(), 3u);
}

TEST(PhaseRing, ProducerFailurePropagatesAfterBufferedPrefix)
{
    core::PhaseRing ring(8);
    std::thread producer([&ring] {
        for (u64 i = 0; i < 3; ++i)
            ASSERT_TRUE(ring.push(testPhase(i)));
        ring.fail(std::make_exception_ptr(
            std::runtime_error("producer exploded")));
    });
    producer.join();
    // The buffered prefix drains first...
    core::Phase scratch;
    for (u64 i = 0; i < 3; ++i) {
        ASSERT_TRUE(ring.pop(scratch));
        EXPECT_EQ(scratch.name, "phase" + std::to_string(i));
    }
    // ...then the producer's exception surfaces on the consumer side.
    EXPECT_THROW(ring.pop(scratch), std::runtime_error);
}

TEST(PhaseRing, CloseProducerEndsStreamWithoutError)
{
    core::PhaseRing ring(4);
    ring.closeProducer();
    core::Phase scratch;
    EXPECT_FALSE(ring.pop(scratch)); // empty stream, no blocking
}

// ---------------------------------------------------------------------
// Pipelined replay equivalence
// ---------------------------------------------------------------------

TEST(PipelineReplay, MatchesSerialStreamingAllDomains)
{
    // BP exercises the metadata cache, MGX the VN expansion path;
    // both must be bitwise-identical between a serial drain and the
    // two-thread ring in every domain.
    for (const char *workload : kDomainWorkloads) {
        for (Scheme scheme : {Scheme::NP, Scheme::MGX, Scheme::BP}) {
            const std::string label =
                std::string(workload) + "/" +
                protection::schemeName(scheme);
            const RunResult serial = runSerial(workload, scheme);
            const RunResult piped = runRingPipelined(workload, scheme);
            expectBitwiseEqual(serial, piped, label);
            // The serial run never saw a ring; the pipelined one did.
            EXPECT_EQ(serial.pipelineMaxOccupancy, 0u) << label;
            EXPECT_GE(piped.pipelineMaxOccupancy, 1u) << label;
            EXPECT_LE(piped.pipelineMaxOccupancy, 8u) << label;
        }
    }
}

TEST(PipelineReplay, InvariantUnderRingCapacity)
{
    const std::string w = "core/matmul?m=256&n=256&k=256";
    const RunResult one = runRingPipelined(w, Scheme::BP, 1);
    const RunResult two = runRingPipelined(w, Scheme::BP, 2);
    const RunResult big = runRingPipelined(w, Scheme::BP, 64);
    expectBitwiseEqual(one, two, "capacity 1 vs 2");
    expectBitwiseEqual(one, big, "capacity 1 vs 64");
    EXPECT_EQ(one.pipelineMaxOccupancy, 1u);
    EXPECT_LE(big.pipelineMaxOccupancy, 64u);
}

TEST(PipelineReplay, ProducerThrowSurfacesOnCallerWithoutDeadlock)
{
    /** Emits a few phases, then dies mid-stream. */
    class ThrowingSource final : public core::PhaseSource
    {
      public:
        bool
        nextChunk(core::PhaseSink &sink) override
        {
            if (emitted_ == 5)
                throw std::runtime_error("kernel stream failed");
            sink.consume(scratch_ = testPhase(emitted_++));
            return true;
        }

      private:
        u64 emitted_ = 0;
        core::Phase scratch_;
    };

    const Platform platform = edgePlatform();
    dram::DramSystem dram(platform.dram);
    ProtectionConfig cfg;
    cfg.scheme = Scheme::NP;
    ProtectionEngine engine(cfg, &dram);
    PerfModel model(&engine, platform.clockMhz);
    ThrowingSource source;
    // A tiny ring so the producer is likely mid-push when it throws;
    // the exception must resurface here, with the producer joined.
    EXPECT_THROW(runPipelined(model, source, 1), std::runtime_error);
}

TEST(PipelineReplay, ExperimentPipelinedGridMatchesSerial)
{
    const std::vector<std::string> ws = {
        "core/matmul?m=128&n=128&k=128",
        "graph/google-plus/pagerank?vector=random"};
    auto grid = [&](bool pipeline) {
        return Experiment()
            .workloads(ws)
            .platform(edgePlatform())
            .schemes({Scheme::NP, Scheme::MGX, Scheme::BP})
            .threads(2)
            .pipelined(pipeline)
            .run();
    };
    const ResultSet serial = grid(false);
    const ResultSet piped = grid(true);
    ASSERT_EQ(serial.records().size(), piped.records().size());
    for (std::size_t i = 0; i < serial.records().size(); ++i) {
        expectBitwiseEqual(serial.records()[i].result,
                           piped.records()[i].result,
                           piped.records()[i].key.workload);
        EXPECT_GE(piped.records()[i].result.pipelineMaxOccupancy, 1u);
    }
}

// ---------------------------------------------------------------------
// Trace files under concurrent unlink
// ---------------------------------------------------------------------

TEST(EvictionRace, MidReadUnlinkStillDrainsTheWholeTrace)
{
    // A FilePhaseSource caught mid-phase by an unlink (another
    // process deleting the file) must finish its pass: on POSIX the
    // open descriptor outlives the unlink, so the reader sees the
    // complete, unmodified trace.
    const fs::path dir =
        fs::temp_directory_path() / "mgx_midread_unlink_test";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string file = (dir / "victim.trace").string();

    core::Trace trace = makeKernel("video/h264?frames=6")->generate();
    ASSERT_GT(trace.size(), 4u);
    writeTraceFile(trace, file);

    core::Trace rebuilt;
    core::TraceBuildSink sink(rebuilt);
    FilePhaseSource source(file);
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(source.nextChunk(sink)); // reader is mid-trace
    ASSERT_TRUE(fs::remove(file)); // unlinked under the reader
    while (source.nextChunk(sink)) {
    }
    EXPECT_EQ(traceToString(rebuilt), traceToString(trace));
    fs::remove_all(dir);
}

} // namespace
} // namespace mgx::sim
