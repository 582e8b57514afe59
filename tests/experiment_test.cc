/**
 * @file
 * Experiment-API tests: registry round trip (every listed workload
 * constructs and generates a non-empty trace), experiment /
 * compareSchemes equivalence (bitwise-identical results, serial and
 * parallel), explicit missing-baseline reporting, and the JSON golden.
 */

#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/trace_io.h"
#include "sim/workload_registry.h"

namespace mgx::sim {
namespace {

using protection::ProtectionConfig;
using protection::Scheme;

// ---------------------------------------------------------------------
// Workload registry
// ---------------------------------------------------------------------

TEST(Registry, EveryListedWorkloadGeneratesATrace)
{
    const auto names = listWorkloads();
    ASSERT_GE(names.size(), 40u); // 5 domains, all their workloads
    for (const auto &name : names) {
        auto kernel = makeKernel(name);
        ASSERT_NE(kernel, nullptr) << name;
        core::Trace trace = kernel->generate();
        EXPECT_FALSE(trace.empty()) << name;
        EXPECT_GT(core::traceDataBytes(trace), 0u) << name;
    }
}

TEST(Registry, ListedNamesAreUnique)
{
    auto names = listWorkloads();
    auto unique = names;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()),
                 unique.end());
    EXPECT_EQ(unique.size(), names.size());
}

TEST(Registry, AliasesAndParamsResolve)
{
    // The ISSUE's canonical example plus a parameterized matmul.
    EXPECT_NE(makeKernel("dnn/resnet50?task=training"), nullptr);
    auto mm = makeKernel("core/matmul?m=64&n=64&k=64&ktiles=1");
    core::Trace trace = mm->generate();
    EXPECT_FALSE(trace.empty());
}

TEST(Registry, PlatformSelectsDnnAccel)
{
    const auto traceOn = [](const std::string &name,
                            const Platform &platform) {
        return traceToString(makeKernel(name, platform)->generate());
    };
    // The same model tiles differently for the Edge accelerator's
    // smaller SRAM, so its traces must differ.
    EXPECT_NE(traceOn("dnn/ResNet", cloudPlatform()),
              traceOn("dnn/ResNet", edgePlatform()));
    // Pinning accel= makes the trace platform-independent again.
    EXPECT_EQ(traceOn("dnn/ResNet?accel=cloud", cloudPlatform()),
              traceOn("dnn/ResNet?accel=cloud", edgePlatform()));
    // Non-DNN workloads never depend on the platform.
    EXPECT_EQ(traceOn("genome/chr1PacBio", cloudPlatform()),
              traceOn("genome/chr1PacBio", edgePlatform()));
}

TEST(RegistryDeathTest, UnknownNamesAreFatal)
{
    EXPECT_DEATH(makeKernel("dnn/NoSuchNet"), "unknown DNN model");
    EXPECT_DEATH(makeKernel("nosuchdomain/x"), "unknown domain");
    EXPECT_DEATH(makeKernel("core/matmul?typo=1"),
                 "unknown parameter");
}

TEST(Registry, DefaultPlatformsMatchThePaper)
{
    EXPECT_EQ(defaultPlatform("dnn/ResNet").name, "Cloud");
    EXPECT_EQ(defaultPlatform("graph/pokec/bfs").name, "Graph");
    EXPECT_EQ(defaultPlatform("genome/chr1PacBio").name, "Genome");
    EXPECT_EQ(defaultPlatform("video/h264").name, "Genome");
}

// ---------------------------------------------------------------------
// Experiment vs compareSchemes equivalence
// ---------------------------------------------------------------------

TEST(Experiment, MatchesCompareSchemesBitwise)
{
    const std::string w = "core/matmul?m=256&n=256&k=256";
    core::Trace trace = makeKernel(w)->generate();
    ProtectionConfig base;
    SchemeComparison legacy =
        compareSchemes(trace, edgePlatform(), base, allSchemes());

    for (u32 threads : {1u, 4u}) {
        ResultSet rs = Experiment()
                           .workload(w)
                           .platform(edgePlatform())
                           .schemes(allSchemes())
                           .config(base)
                           .threads(threads)
                           .run();
        ASSERT_EQ(rs.records().size(), allSchemes().size());
        for (Scheme s : allSchemes()) {
            const RunResult *r = rs.find(w, "Edge", s);
            ASSERT_NE(r, nullptr);
            EXPECT_EQ(r->totalCycles, legacy.results[s].totalCycles)
                << "threads=" << threads;
            EXPECT_EQ(r->traffic.totalBytes(),
                      legacy.results[s].traffic.totalBytes())
                << "threads=" << threads;
            EXPECT_EQ(r->dramAccesses, legacy.results[s].dramAccesses)
                << "threads=" << threads;
        }
    }
}

TEST(Experiment, DeterministicAcrossThreadsAndPipeline)
{
    // The same grid under every --threads x --pipeline combination
    // must be bitwise-identical on every model output: the pool only
    // schedules independent cells, and the pipeline only moves the
    // DRAM timing of the (identical, engine-ordered) commands to
    // another thread.
    const std::vector<std::string> ws = {
        "core/matmul?m=128&n=128&k=128", "video/h264?frames=4"};
    auto grid = [&](u32 threads, bool pipeline) {
        return Experiment()
            .workloads(ws)
            .platform(edgePlatform())
            .schemes({Scheme::NP, Scheme::BP})
            .threads(threads)
            .pipelined(pipeline)
            .run();
    };
    const ResultSet base = grid(1, false);
    ASSERT_EQ(base.records().size(), 4u);
    for (u32 threads : {1u, 2u, 4u}) {
        for (bool pipeline : {false, true}) {
            const ResultSet rs = grid(threads, pipeline);
            ASSERT_EQ(rs.records().size(), base.records().size());
            for (std::size_t i = 0; i < rs.records().size(); ++i) {
                const RunResult &a = base.records()[i].result;
                const RunResult &b = rs.records()[i].result;
                const std::string label =
                    rs.records()[i].key.workload + " threads=" +
                    std::to_string(threads) +
                    (pipeline ? " pipelined" : " serial");
                EXPECT_EQ(a.totalCycles, b.totalCycles) << label;
                EXPECT_EQ(a.traffic.totalBytes(),
                          b.traffic.totalBytes())
                    << label;
                EXPECT_EQ(a.dramAccesses, b.dramAccesses) << label;
                EXPECT_EQ(a.metaCacheHits, b.metaCacheHits) << label;
                EXPECT_EQ(a.metaCacheMisses, b.metaCacheMisses)
                    << label;
                // The footprint fields are content-derived on the
                // streaming path, so even they match across the ring.
                EXPECT_EQ(a.traceBytes, b.traceBytes) << label;
                EXPECT_EQ(a.peakPhaseBytes, b.peakPhaseBytes) << label;
                // Pipelining happened exactly when requested and the
                // budget allowed two threads per cell.
                const bool expectPipelined = pipeline && threads != 1;
                EXPECT_EQ(b.pipelineMaxOccupancy > 0, expectPipelined)
                    << label;
            }
        }
    }
}

TEST(Experiment, TraceCacheSharesAcrossPlatforms)
{
    // A platform-independent workload on two platforms: both cells
    // replay one and the same trace, so their data traffic matches,
    // while their NP timing differs (different DRAM systems).
    ResultSet rs =
        Experiment()
            .workload("core/matmul?m=128&n=128&k=128")
            .platforms({cloudPlatform(), edgePlatform()})
            .schemes({Scheme::NP, Scheme::MGX})
            .run();
    EXPECT_EQ(rs.records().size(), 4u);
    const RunResult *cloud =
        rs.find("core/matmul?m=128&n=128&k=128", "Cloud", Scheme::NP);
    const RunResult *edge =
        rs.find("core/matmul?m=128&n=128&k=128", "Edge", Scheme::NP);
    ASSERT_NE(cloud, nullptr);
    ASSERT_NE(edge, nullptr);
    EXPECT_NE(cloud->totalCycles, edge->totalCycles);
    // Same trace => identical data traffic on both platforms.
    EXPECT_EQ(cloud->traffic.dataBytes, edge->traffic.dataBytes);
}

// ---------------------------------------------------------------------
// Missing-baseline semantics
// ---------------------------------------------------------------------

TEST(ResultSetTest, MissingBaselineIsExplicit)
{
    ResultSet rs = Experiment()
                       .workload("core/matmul?m=64&n=64&k=64")
                       .platform(edgePlatform())
                       .schemes({Scheme::MGX}) // no NP baseline
                       .run();
    const std::string w = "core/matmul?m=64&n=64&k=64";
    // The raw run exists...
    EXPECT_NE(rs.find(w, "Edge", Scheme::MGX), nullptr);
    // ...but the ratios report the missing baseline, not 0.0.
    EXPECT_EQ(rs.normalizedTime(w, "Edge", Scheme::MGX), std::nullopt);
    EXPECT_EQ(rs.trafficIncrease(w, "Edge", Scheme::MGX),
              std::nullopt);
    // Never-run cells are nullptr / nullopt too.
    EXPECT_EQ(rs.find(w, "Edge", Scheme::BP), nullptr);
    EXPECT_EQ(rs.normalizedTime("nope", "Edge", Scheme::MGX),
              std::nullopt);
}

TEST(ExperimentDeathTest, DuplicateTraceLabelsAreFatal)
{
    core::Trace a = makeKernel("core/matmul?m=64&n=64&k=64")->generate();
    core::Trace b = a;
    EXPECT_DEATH(Experiment()
                     .trace("t", a)
                     .trace("t", b)
                     .platform(edgePlatform())
                     .schemes({Scheme::NP})
                     .run(),
                 "two different traces");
}

TEST(ResultSetDeathTest, LegacyWrapperAssertsOnMissingBaseline)
{
    SchemeComparison cmp;
    cmp.results[Scheme::MGX] = RunResult{};
    EXPECT_DEATH(cmp.normalizedTime(Scheme::MGX), "baseline");
    EXPECT_DEATH(cmp.trafficIncrease(Scheme::MGX), "baseline");
}

TEST(ResultSetTest, GridOrderIsDeterministic)
{
    auto run = [] {
        return Experiment()
            .workloads({"core/matmul?m=64&n=64&k=64", "video/h264?frames=4"})
            .platforms({cloudPlatform(), edgePlatform()})
            .schemes(trafficSchemes())
            .run();
    };
    ResultSet a = run();
    ResultSet b = run();
    ASSERT_EQ(a.records().size(), 12u);
    ASSERT_EQ(a.records().size(), b.records().size());
    for (std::size_t i = 0; i < a.records().size(); ++i) {
        EXPECT_EQ(a.records()[i].key.workload,
                  b.records()[i].key.workload);
        EXPECT_EQ(a.records()[i].key.platform,
                  b.records()[i].key.platform);
        EXPECT_EQ(a.records()[i].key.scheme, b.records()[i].key.scheme);
        EXPECT_EQ(a.records()[i].result.totalCycles,
                  b.records()[i].result.totalCycles);
    }
    EXPECT_EQ(a.workloads().size(), 2u);
    EXPECT_EQ(a.platforms().size(), 2u);
    EXPECT_EQ(a.schemes().size(), 3u);
}

// ---------------------------------------------------------------------
// JSON sink
// ---------------------------------------------------------------------

TEST(Report, JsonGolden)
{
    // Hand-built ResultSet with fixed numbers => byte-exact JSON.
    RunResult np;
    np.totalCycles = 1000;
    np.computeCycles = 600;
    np.memoryCycles = 800;
    np.traffic.dataBytes = 4096;
    np.dramAccesses = 64;
    np.logicalAccesses = 2;
    np.traceBytes = 512;
    np.peakPhaseBytes = 256;
    np.seconds = 0.5;

    RunResult mgx = np;
    mgx.totalCycles = 1030;
    mgx.traffic.expandBytes = 64;
    mgx.traffic.macBytes = 64;
    mgx.dramAccesses = 66;
    mgx.metaCacheHits = 7;
    mgx.metaCacheMisses = 3;
    mgx.metaCacheWritebacks = 1;

    ResultSet rs;
    rs.add({{"core/matmul", "Edge", Scheme::NP}, np});
    rs.add({{"core/matmul", "Edge", Scheme::MGX}, mgx});

    const std::string expected =
        "{\n"
        "  \"schema\": \"mgx-resultset-v1\",\n"
        "  \"records\": [\n"
        "    {\"workload\": \"core/matmul\", \"platform\": \"Edge\", "
        "\"scheme\": \"NP\",\n"
        "     \"cycles\": 1000, \"computeCycles\": 600, "
        "\"memoryCycles\": 800, \"seconds\": 0.5, "
        "\"dramAccesses\": 64, \"logicalAccesses\": 2, "
        "\"traceBytes\": 512, \"peakPhaseBytes\": 256,\n"
        "     \"metaCache\": {\"hits\": 0, \"misses\": 0, "
        "\"writebacks\": 0},\n"
        "     \"pipeline\": {\"producerWaits\": 0, "
        "\"consumerWaits\": 0, \"maxOccupancy\": 0},\n"
        "     \"shard\": {\"replayThreads\": 0, \"mergeWaits\": 0, "
        "\"channels\": []},\n"
        "     \"traffic\": {\"data\": 4096, \"expand\": 0, \"mac\": 0, "
        "\"vn\": 0, \"tree\": 0, \"total\": 4096},\n"
        "     \"normalizedTime\": 1, \"trafficIncrease\": 1},\n"
        "    {\"workload\": \"core/matmul\", \"platform\": \"Edge\", "
        "\"scheme\": \"MGX\",\n"
        "     \"cycles\": 1030, \"computeCycles\": 600, "
        "\"memoryCycles\": 800, \"seconds\": 0.5, "
        "\"dramAccesses\": 66, \"logicalAccesses\": 2, "
        "\"traceBytes\": 512, \"peakPhaseBytes\": 256,\n"
        "     \"metaCache\": {\"hits\": 7, \"misses\": 3, "
        "\"writebacks\": 1},\n"
        "     \"pipeline\": {\"producerWaits\": 0, "
        "\"consumerWaits\": 0, \"maxOccupancy\": 0},\n"
        "     \"shard\": {\"replayThreads\": 0, \"mergeWaits\": 0, "
        "\"channels\": []},\n"
        "     \"traffic\": {\"data\": 4096, \"expand\": 64, "
        "\"mac\": 64, \"vn\": 0, \"tree\": 0, \"total\": 4224},\n"
        "     \"normalizedTime\": 1.03, \"trafficIncrease\": "
        "1.03125}\n"
        "  ]\n"
        "}\n";
    EXPECT_EQ(toJson(rs), expected);
}

TEST(Report, JsonReportsMissingBaselineAsNull)
{
    RunResult mgx;
    mgx.totalCycles = 1030;
    mgx.traffic.dataBytes = 4096;
    ResultSet rs;
    rs.add({{"w", "Edge", Scheme::MGX}, mgx});
    const std::string json = toJson(rs);
    EXPECT_NE(json.find("\"normalizedTime\": null"),
              std::string::npos);
    EXPECT_NE(json.find("\"trafficIncrease\": null"),
              std::string::npos);
}

TEST(Report, JsonEscapesWorkloadNames)
{
    RunResult r;
    r.totalCycles = 1;
    ResultSet rs;
    rs.add({{"weird\"name\\x", "Edge", Scheme::NP}, r});
    const std::string json = toJson(rs);
    EXPECT_NE(json.find("weird\\\"name\\\\x"), std::string::npos);
}

TEST(Report, SchemeByNameRoundTrips)
{
    for (Scheme s : protection::kAllSchemes)
        EXPECT_EQ(schemeByName(protection::schemeName(s)), s);
}

TEST(ReportDeathTest, SchemeByNameRejectsUnknown)
{
    EXPECT_DEATH(schemeByName("XYZ"), "unknown scheme");
}

} // namespace
} // namespace mgx::sim
