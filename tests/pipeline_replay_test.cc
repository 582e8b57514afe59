/**
 * @file
 * Pipelined-replay tests: the engine/DRAM split (sim/pipeline.h) and
 * the rings it has used. The CommandRing itself (FIFO order, blocking
 * back-pressure, both shutdown sides, error propagation); split-vs-
 * serial bitwise equivalence for one cell per domain under every
 * scheme; invariance under the ring's capacity and chunk size; a
 * seeded property over random access sequences; and a trace file
 * unlinked under its reader. core::PhaseRing is no longer the
 * pipeline's seam, but it stays (perfbench's traced replica compiles
 * against it), and so do its unit tests. This suite (plus
 * streaming_test and experiment_test) runs under ThreadSanitizer in CI
 * (-DMGX_SANITIZE=thread).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
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
runSplit(const std::string &workload, Scheme scheme,
         std::size_t ring_chunks = 8, std::size_t chunk_words = 16384)
{
    const Platform platform = defaultPlatform(workload);
    ProtectionConfig cfg;
    cfg.scheme = scheme;
    std::unique_ptr<core::Kernel> kernel;
    return runPipelined(
        [&] {
            kernel = makeKernel(workload, platform);
            return kernel->stream();
        },
        cfg, platform, ring_chunks, chunk_words);
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
// CommandRing unit tests
// ---------------------------------------------------------------------

/** Chunk @p index's word count (1..chunk_words) and its i-th word. */
std::size_t
testChunkWords(u64 index, std::size_t chunk_words)
{
    return 1 + index % chunk_words;
}

u64
testWord(u64 index, std::size_t i)
{
    return index << 16 | i;
}

TEST(CommandRing, FifoOrderThroughTinyRing)
{
    // Two chunks of three words force constant back-pressure: the
    // producer can be at most two chunks ahead, yet order, sizes and
    // content must survive.
    constexpr u64 kChunks = 500;
    CommandRing ring(2, 3);
    std::thread producer([&ring] {
        for (u64 c = 0; c < kChunks; ++c) {
            u64 *chunk = ring.acquire();
            ASSERT_NE(chunk, nullptr);
            const std::size_t n = testChunkWords(c, ring.chunkWords());
            for (std::size_t i = 0; i < n; ++i)
                chunk[i] = testWord(c, i);
            ring.publish(n);
        }
        ring.closeProducer();
    });
    std::span<const u64> words;
    u64 next = 0;
    while (ring.take(words)) {
        ASSERT_EQ(words.size(), testChunkWords(next, 3));
        for (std::size_t i = 0; i < words.size(); ++i)
            EXPECT_EQ(words[i], testWord(next, i));
        ring.release();
        ++next;
    }
    producer.join();
    EXPECT_EQ(next, kChunks);
    const CommandRing::Stats stats = ring.stats();
    EXPECT_GE(stats.maxOccupancy, 1u);
    EXPECT_LE(stats.maxOccupancy, 2u);
}

TEST(CommandRing, GeometryIsClamped)
{
    CommandRing ring(0, 1);
    EXPECT_EQ(ring.chunkWords(), 2u); // a two-word command must fit
    u64 *chunk = ring.acquire();
    ASSERT_NE(chunk, nullptr);
    ring.publish(2);
    ring.closeProducer();
    std::span<const u64> words;
    ASSERT_TRUE(ring.take(words));
    EXPECT_EQ(words.size(), 2u);
    ring.release();
    EXPECT_FALSE(ring.take(words));
    EXPECT_EQ(ring.stats().maxOccupancy, 1u); // one slot
}

TEST(CommandRing, ConsumerEarlyExitReleasesBlockedProducer)
{
    CommandRing ring(2, 4);
    std::atomic<u64> published{0};
    std::thread producer([&ring, &published] {
        for (u64 c = 0; c < 100; ++c) {
            u64 *chunk = ring.acquire();
            if (chunk == nullptr)
                return; // consumer closed: clean stop
            chunk[0] = c;
            ring.publish(1);
            published.fetch_add(1, std::memory_order_relaxed);
        }
    });
    std::span<const u64> words;
    for (u64 c = 0; c < 3; ++c) {
        ASSERT_TRUE(ring.take(words));
        EXPECT_EQ(words[0], c);
        ring.release();
    }
    ring.closeConsumer();
    producer.join(); // must not deadlock on the full ring
    // 3 taken + at most 2 still buffered ever succeeded.
    EXPECT_LE(published.load(), 5u);
    EXPECT_GE(published.load(), 3u);
}

TEST(CommandRing, ProducerFailurePropagatesAfterPublishedChunks)
{
    CommandRing ring(8, 4);
    std::thread producer([&ring] {
        for (u64 c = 0; c < 3; ++c) {
            u64 *chunk = ring.acquire();
            ASSERT_NE(chunk, nullptr);
            chunk[0] = c;
            ring.publish(1);
        }
        ring.fail(std::make_exception_ptr(
            std::runtime_error("producer exploded")));
    });
    producer.join();
    // The published prefix drains first...
    std::span<const u64> words;
    for (u64 c = 0; c < 3; ++c) {
        ASSERT_TRUE(ring.take(words));
        EXPECT_EQ(words[0], c);
        ring.release();
    }
    // ...then the producer's exception surfaces on the consumer side.
    EXPECT_THROW(ring.take(words), std::runtime_error);
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
// Engine/DRAM split equivalence
// ---------------------------------------------------------------------

TEST(PipelineReplay, MatchesSerialStreamingAllDomains)
{
    // Every scheme's expansion path (NP ranges, MGX/MGX_VN tag lines,
    // BP/MGX_MAC cached metadata and the flush) must time the same in
    // every domain when the engine and the DRAM model run apart.
    for (const char *workload : kDomainWorkloads) {
        for (Scheme scheme : allSchemes()) {
            const std::string label =
                std::string(workload) + "/" +
                protection::schemeName(scheme);
            const RunResult serial = runSerial(workload, scheme);
            const RunResult split = runSplit(workload, scheme);
            expectBitwiseEqual(serial, split, label);
            // The serial run never saw a ring; the split one did.
            EXPECT_EQ(serial.pipelineMaxOccupancy, 0u) << label;
            EXPECT_GE(split.pipelineMaxOccupancy, 1u) << label;
            EXPECT_LE(split.pipelineMaxOccupancy, 8u) << label;
        }
    }
}

TEST(PipelineReplay, InvariantUnderRingCapacity)
{
    // Five-word chunks: phases span many chunks, two-word commands
    // meet chunk ends, and the engine blocks on the full ring.
    const std::string w = "core/matmul?m=256&n=256&k=256";
    for (Scheme scheme : {Scheme::NP, Scheme::MGX, Scheme::BP}) {
        const RunResult serial = runSerial(w, scheme);
        for (std::size_t capacity : {1, 2, 8}) {
            const std::string label = std::string(
                protection::schemeName(scheme)) + " capacity " +
                std::to_string(capacity);
            const RunResult split = runSplit(w, scheme, capacity, 5);
            expectBitwiseEqual(serial, split, label);
            EXPECT_GE(split.pipelineMaxOccupancy, 1u) << label;
            EXPECT_LE(split.pipelineMaxOccupancy, capacity) << label;
            if (capacity == 1) {
                EXPECT_EQ(split.pipelineMaxOccupancy, 1u) << label;
            }
        }
    }
}

TEST(PipelineReplay, InvariantUnderChunkSize)
{
    const std::string w = "video/h264?frames=2";
    const RunResult serial = runSerial(w, Scheme::MGX_MAC);
    for (std::size_t words : {2, 3, 7, 64, 16384}) {
        expectBitwiseEqual(serial,
                           runSplit(w, Scheme::MGX_MAC, 2, words),
                           "chunk words " + std::to_string(words));
    }
}

/** A random access sequence: @p phases phases over a 4 MB region. */
core::Trace
randomTrace(Rng &rng, unsigned phases)
{
    static const u32 kMacGrans[] = {0, 64, 256, 512, 4096};
    core::Trace trace;
    for (unsigned p = 0; p < phases; ++p) {
        core::Phase phase;
        phase.name = "random" + std::to_string(p);
        phase.computeCycles = rng.below(4000);
        const unsigned accesses = static_cast<unsigned>(rng.below(48));
        for (unsigned a = 0; a < accesses; ++a) {
            core::LogicalAccess acc;
            // Unaligned starts and lengths from one byte to 64 KB.
            acc.addr = rng.below(4u << 20);
            acc.bytes = rng.chance(0.2) ? 0 : 1 + rng.below(
                                                  rng.chance(0.8) ? 512
                                                                  : 65536);
            acc.type =
                rng.chance(0.5) ? AccessType::Read : AccessType::Write;
            acc.vn = rng.next();
            acc.macGranularity = kMacGrans[rng.below(5)];
            phase.accesses.push_back(acc);
        }
        trace.push_back(phase);
    }
    return trace;
}

TEST(PipelineReplay, RandomAccessSequencesMatchSerialReplay)
{
    // Seeded property: for any access sequence, any scheme, platform
    // and ring geometry, the split equals PerfModel::run on every
    // field but pipeline*, the footprint fields included.
    const Platform platforms[] = {edgePlatform(), cloudPlatform()};
    // (ring chunks, chunk words)
    const std::pair<std::size_t, std::size_t> geometries[] = {
        {1, 2}, {2, 3}, {8, 5}, {2, 64}, {8, 16384}};
    for (u64 seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        const core::Trace trace =
            randomTrace(rng, 1 + static_cast<unsigned>(rng.below(8)));
        const Platform &platform = platforms[seed % 2];
        for (Scheme scheme : allSchemes()) {
            ProtectionConfig cfg;
            cfg.scheme = scheme;
            // A small metadata cache on odd seeds: dirty evictions
            // mid-run and a non-empty end-of-run flush.
            if (seed % 2 == 1)
                cfg.metaCacheBytes = 4 << 10;
            const std::string label = "seed " + std::to_string(seed) +
                                      " " +
                                      protection::schemeName(scheme);

            dram::DramSystem dram(platform.dram);
            ProtectionEngine engine(cfg, &dram);
            PerfModel model(&engine, platform.clockMhz);
            core::TracePhaseSource source(trace);
            const RunResult serial = model.run(source);

            const RunResult split = runPipelined(
                [&] { return std::make_unique<core::TracePhaseSource>(
                          trace); },
                cfg, platform, geometries[seed % 5].first,
                geometries[seed % 5].second);
            expectBitwiseEqual(serial, split, label);
        }
    }
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

    ProtectionConfig cfg;
    cfg.scheme = Scheme::BP;
    // One two-word chunk, so the engine is likely blocked on the ring
    // when it throws; the exception must resurface here, with the
    // engine thread joined.
    EXPECT_THROW(
        runPipelined([] { return std::make_unique<ThrowingSource>(); },
                     cfg, edgePlatform(), 1, 2),
        std::runtime_error);
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
    {
        TraceFileWriteSink sink(file);
        core::TracePhaseSource(trace).drainTo(sink);
        sink.finish();
    }

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
