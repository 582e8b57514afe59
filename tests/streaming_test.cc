/**
 * @file
 * Streaming-pipeline tests: streamed-vs-materialized bitwise
 * equivalence for all five domains (cycles, traffic, metaCache
 * counters), the PhaseSource chunk-boundary property (results
 * invariant under chunk size 1 / 64 / infinity), streaming trace-file
 * round trips, and the scaled streaming-only workload registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>

#include "core/phase_stream.h"
#include "sim/experiment.h"
#include "sim/trace_io.h"
#include "sim/workload_registry.h"

namespace mgx::sim {
namespace {

namespace fs = std::filesystem;

using protection::ProtectionConfig;
using protection::ProtectionEngine;
using protection::Scheme;

/** One small, fast workload per domain. */
const char *const kDomainWorkloads[] = {
    "core/matmul?m=256&n=256&k=256",
    "dnn/MobileNet?task=training",
    "graph/google-plus/pagerank?vector=random",
    "genome/chr1PacBio?reads=8",
    "video/h264?frames=6",
};

RunResult
runMaterialized(const std::string &workload, Scheme scheme)
{
    const Platform platform = defaultPlatform(workload);
    core::Trace trace = makeKernel(workload, platform)->generate();
    dram::DramSystem dram(platform.dram);
    ProtectionConfig cfg;
    cfg.scheme = scheme;
    ProtectionEngine engine(cfg, &dram);
    PerfModel model(&engine, platform.clockMhz);
    core::TracePhaseSource source(trace);
    return model.run(source);
}

RunResult
runStreamed(const std::string &workload, Scheme scheme)
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

/** Every model output must match; the footprint fields may not. */
void
expectModelOutputsEqual(const RunResult &a, const RunResult &b,
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
    EXPECT_EQ(a.seconds, b.seconds) << label;
}

// ---------------------------------------------------------------------
// Streamed vs materialized equivalence
// ---------------------------------------------------------------------

TEST(Streaming, StreamIntoArenaEqualsGenerate)
{
    // generate() is literally "stream into a Trace", so a manual
    // drain of a fresh kernel must serialize identically.
    for (const char *workload : kDomainWorkloads) {
        core::Trace generated = makeKernel(workload)->generate();
        core::Trace drained;
        core::TraceBuildSink sink(drained);
        makeKernel(workload)->stream()->drainTo(sink);
        EXPECT_EQ(traceToString(generated), traceToString(drained))
            << workload;
    }
}

TEST(Streaming, StreamedReplayMatchesMaterializedAllDomains)
{
    // BP exercises the metadata cache (hits/misses/writebacks) and
    // MGX the VN expansion path; both must be bitwise-identical
    // between the two replay paths in every domain.
    for (const char *workload : kDomainWorkloads) {
        for (Scheme scheme : {Scheme::NP, Scheme::MGX, Scheme::BP}) {
            const RunResult mat = runMaterialized(workload, scheme);
            const RunResult str = runStreamed(workload, scheme);
            expectModelOutputsEqual(
                mat, str,
                std::string(workload) + "/" +
                    protection::schemeName(scheme));
            // Both replays stream the same phases, so the footprint
            // estimates match too; and the peak must be genuinely
            // bounded, below holding the whole trace (phase count >> 1
            // here).
            EXPECT_EQ(mat.traceBytes, str.traceBytes) << workload;
            EXPECT_EQ(mat.peakPhaseBytes, str.peakPhaseBytes) << workload;
            EXPECT_GT(str.peakPhaseBytes, 0u) << workload;
            EXPECT_LT(str.peakPhaseBytes, str.traceBytes) << workload;
        }
    }
}

TEST(Streaming, ExperimentStreamedAndMaterializedGridsMatch)
{
    // A registry cell streams its kernel; a trace() cell streams the
    // materialized trace of the same kernel, serially or through the
    // pipeline ring like any other cell. Both feed the replay the same
    // phase stream, so every field matches — the footprint fields
    // included.
    const std::string w = "core/matmul?m=256&n=256&k=256";
    const core::Trace trace = makeKernel(w, edgePlatform())->generate();
    const ResultSet streamed = Experiment()
                                   .workload(w)
                                   .platform(edgePlatform())
                                   .schemes(allSchemes())
                                   .threads(1)
                                   .run();
    for (const bool parallel : {false, true}) {
        const ResultSet materialized = Experiment()
                                           .trace(w, trace)
                                           .platform(edgePlatform())
                                           .schemes(allSchemes())
                                           .threads(parallel ? 4 : 1)
                                           .pipelined(parallel)
                                           .run();
        ASSERT_EQ(streamed.records().size(),
                  materialized.records().size());
        for (std::size_t i = 0; i < streamed.records().size(); ++i) {
            const RunResult &a = streamed.records()[i].result;
            const RunResult &b = materialized.records()[i].result;
            const std::string label = "grid cell " + std::to_string(i) +
                                      (parallel ? " pipelined" : "");
            expectModelOutputsEqual(a, b, label);
            EXPECT_EQ(a.traceBytes, b.traceBytes) << label;
            EXPECT_EQ(a.peakPhaseBytes, b.peakPhaseBytes) << label;
            EXPECT_EQ(b.pipelineMaxOccupancy > 0, parallel) << label;
        }
    }
}

// ---------------------------------------------------------------------
// Chunk-boundary property
// ---------------------------------------------------------------------

TEST(Streaming, ResultsInvariantUnderChunkSize)
{
    const std::string w = "core/matmul?m=256&n=256&k=256";
    core::Trace trace = makeKernel(w)->generate();
    const Platform platform = defaultPlatform(w);

    auto replayChunked = [&](std::size_t chunk) {
        dram::DramSystem dram(platform.dram);
        ProtectionConfig cfg;
        cfg.scheme = Scheme::BP;
        ProtectionEngine engine(cfg, &dram);
        PerfModel model(&engine, platform.clockMhz);
        core::TracePhaseSource source(trace, chunk);
        return model.run(source);
    };

    const RunResult one = replayChunked(1);
    const RunResult sixtyFour = replayChunked(64);
    const RunResult unbounded = replayChunked(trace.size() + 1);
    expectModelOutputsEqual(one, sixtyFour, "chunk 1 vs 64");
    expectModelOutputsEqual(one, unbounded, "chunk 1 vs unbounded");

    // And the chunked stream rebuilds the identical trace.
    for (std::size_t chunk : {std::size_t{1}, std::size_t{64},
                              trace.size() + 1}) {
        core::Trace rebuilt;
        core::TraceBuildSink sink(rebuilt);
        core::TracePhaseSource(trace, chunk).drainTo(sink);
        EXPECT_EQ(traceToString(trace), traceToString(rebuilt))
            << "chunk " << chunk;
    }
}

// ---------------------------------------------------------------------
// Streaming trace files
// ---------------------------------------------------------------------

TEST(Streaming, FileRoundTripMatchesMaterializedWriter)
{
    const fs::path dir =
        fs::temp_directory_path() / "mgx_stream_io_test";
    fs::create_directories(dir);
    const std::string via_trace = (dir / "materialized.trace").string();
    const std::string via_stream = (dir / "streamed.trace").string();

    const std::string w = "video/h264?frames=6";
    core::Trace trace = makeKernel(w)->generate();
    {
        TraceFileWriteSink sink(via_trace);
        core::TracePhaseSource(trace).drainTo(sink);
        sink.finish();
    }

    // Stream a fresh kernel straight to disk: byte-identical file.
    auto kernel = makeKernel(w);
    TraceFileWriteSink sink(via_stream);
    kernel->stream()->drainTo(sink);
    sink.finish();

    std::ifstream a(via_trace), b(via_stream);
    std::string file_a((std::istreambuf_iterator<char>(a)),
                       std::istreambuf_iterator<char>());
    std::string file_b((std::istreambuf_iterator<char>(b)),
                       std::istreambuf_iterator<char>());
    EXPECT_FALSE(file_a.empty());
    EXPECT_EQ(file_a, file_b);

    // Pull-based reading rebuilds the identical trace...
    core::Trace rebuilt;
    core::TraceBuildSink build(rebuilt);
    FilePhaseSource(via_stream).drainTo(build);
    EXPECT_EQ(traceToString(trace), traceToString(rebuilt));

    // ...and replays bitwise-identically to the materialized path.
    const Platform platform = defaultPlatform(w);
    dram::DramSystem dram_a(platform.dram);
    ProtectionConfig cfg;
    cfg.scheme = Scheme::BP;
    ProtectionEngine engine_a(cfg, &dram_a);
    PerfModel model_a(&engine_a, platform.clockMhz);
    core::TracePhaseSource trace_source(trace);
    const RunResult mat = model_a.run(trace_source);

    dram::DramSystem dram_b(platform.dram);
    ProtectionEngine engine_b(cfg, &dram_b);
    PerfModel model_b(&engine_b, platform.clockMhz);
    FilePhaseSource source(via_stream);
    const RunResult str = model_b.run(source);
    expectModelOutputsEqual(mat, str, "file replay");

    fs::remove_all(dir);
}

TEST(Streaming, AbandonedFileWriteLeavesNothingBehind)
{
    const fs::path dir =
        fs::temp_directory_path() / "mgx_stream_abandon_test";
    fs::create_directories(dir);
    {
        TraceFileWriteSink sink((dir / "never.trace").string());
        core::Phase p;
        p.name = "p0";
        p.accesses.push_back(
            {0, 64, 1, AccessType::Write, DataClass::Generic, 0});
        sink.consume(p);
        // no finish(): the write is abandoned
    }
    EXPECT_TRUE(fs::is_empty(dir));
    fs::remove_all(dir);
}

TEST(StreamingErrors, MalformedFilesThrowWithLineNumbers)
{
    const fs::path dir =
        fs::temp_directory_path() / "mgx_stream_bad_test";
    fs::create_directories(dir);
    const std::string path = (dir / "bad.trace").string();
    {
        std::ofstream out(path);
        out << "P p0 1\nA r 0 64 nonsense 1 0\n";
    }
    class NullSink final : public core::PhaseSink
    {
        void consume(const core::Phase &) override {}
    };
    try {
        NullSink sink;
        FilePhaseSource(path).drainTo(sink);
        FAIL() << "malformed trace parsed without error";
    } catch (const TraceIoError &e) {
        EXPECT_NE(
            std::string(e.what()).find("trace line 2: unknown data "
                                       "class"),
            std::string::npos)
            << e.what();
    }
    EXPECT_THROW(FilePhaseSource("/nonexistent/nope.trace"),
                 TraceIoError);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Scaled streaming-only workloads
// ---------------------------------------------------------------------

TEST(ScaledWorkloads, OnePerDomainAndAllConstructAndStream)
{
    const auto scaled = listScaledWorkloads();
    ASSERT_EQ(scaled.size(), 5u);

    // Not part of the canonical list (they would blow up --all and
    // every materializing consumer).
    const auto canonical = listWorkloads();
    std::set<std::string> domains;
    for (const auto &name : scaled) {
        EXPECT_EQ(std::count(canonical.begin(), canonical.end(), name),
                  0)
            << name;
        domains.insert(name.substr(0, name.find('/')));

        // Constructing and pulling the first chunks must be cheap —
        // that is the whole point of the streaming path.
        auto kernel = makeKernel(name);
        ASSERT_NE(kernel, nullptr) << name;
        core::Trace head;
        core::TraceBuildSink sink(head);
        auto source = kernel->stream();
        for (int i = 0; i < 3 && source->nextChunk(sink); ++i) {
        }
        EXPECT_FALSE(head.empty()) << name;
    }
    EXPECT_EQ(domains.size(), 5u); // one per domain
}

TEST(ScaledWorkloads, WholeChromosomeAliasScalesWithCoverage)
{
    // genome/chr1 defaults to ~1x coverage of GRCh38 chr1 — orders of
    // magnitude more reads than the figure subset — and still honours
    // an explicit reads= override.
    auto small = makeKernel("genome/chr1?reads=4");
    ASSERT_NE(small, nullptr);
    core::Trace head;
    core::TraceBuildSink sink(head);
    auto source = small->stream();
    while (source->nextChunk(sink)) {
    }
    EXPECT_FALSE(head.empty());
    EXPECT_EQ(makeKernel("genome/chr1")->name(), "chr1PacBio");
}

} // namespace
} // namespace mgx::sim
