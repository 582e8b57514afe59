/**
 * @file
 * Experiment-API tests: registry round trip (every listed workload
 * constructs and generates a non-empty trace), registry-cell /
 * explicit-trace equivalence (bitwise-identical results, serial and
 * parallel), deadlines that stop a run, explicit missing-baseline
 * reporting, and the JSON golden.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <map>
#include <random>
#include <set>

#include "common/checksum.h"
#include "core/invariant_checker.h"
#include "dram/dram_system.h"
#include "protection/protection_engine.h"
#include "sim/experiment.h"
#include "sim/perf_model.h"
#include "sim/report.h"
#include "sim/trace_io.h"
#include "sim/workload_registry.h"

namespace mgx::sim {
namespace {

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

TEST(Registry, SsspCellsEqualTheirBfsTwins)
{
    // GraphAlgorithm::SSSP changes only the kernel's name: with unit
    // edge weights its Bellman-Ford sweeps run the same iteration
    // count over the same tiles as BFS, so every graph/*/sssp cell
    // equals its graph/*/bfs twin. Pinned deliberately (DESIGN.md
    // says what a GraphLily-style SSSP would change), so that giving
    // SSSP its own model shows up here as a deliberate change.
    std::vector<std::string> bfs, sssp;
    for (const std::string &name : listWorkloads()) {
        const std::size_t at = name.rfind("/sssp");
        if (at == std::string::npos || at + 5 != name.size())
            continue;
        sssp.push_back(name);
        bfs.push_back(name.substr(0, at) + "/bfs");
    }
    ASSERT_EQ(sssp.size(), 6u);
    std::vector<std::string> both = bfs;
    both.insert(both.end(), sssp.begin(), sssp.end());
    const ResultSet rs = Experiment().workloads(both).run();
    ASSERT_EQ(rs.records().size(), 60u);

    // Per graph, the five sssp records relabelled as bfs must write
    // the same JSON as the five bfs records: every field, including
    // the NP-normalized ones.
    for (std::size_t g = 0; g < bfs.size(); ++g) {
        ResultSet want, got;
        for (const RunRecord &record : rs.records()) {
            if (record.key.workload == bfs[g]) {
                want.add(record);
            } else if (record.key.workload == sssp[g]) {
                RunRecord relabelled = record;
                relabelled.key.workload = bfs[g];
                got.add(relabelled);
            }
        }
        ASSERT_EQ(got.records().size(), 5u) << sssp[g];
        EXPECT_EQ(toJson(got), toJson(want)) << sssp[g];
    }
}

// ---------------------------------------------------------------------
// Registry-name fuzz
// ---------------------------------------------------------------------

/** One random edit of a registry name. */
std::string
mutateName(std::string s, std::mt19937_64 &rng)
{
    const auto pick = [&rng](std::size_t n) {
        return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
    };
    // Digit runs favour values at the edges of parameter ranges.
    static const char *const kNumbers[] = {
        "0", "1", "2", "7", "00", "4294967295", "4294967296",
        "18446744073709551615", "18446744073709551616",
        "99999999999999999999999"};
    static const char *const kQuery[] = {"?", "&", "=", "%", "%00", "%zz",
                                         "?scale=", "&seed="};
    switch (rng() % 4) {
      case 0: // flip one bit of one byte
        if (!s.empty())
            s[pick(s.size())] ^= static_cast<char>(1u << pick(8));
        break;
      case 1: // truncate
        s.resize(pick(s.size() + 1));
        break;
      case 2: { // replace a digit run, or insert one
        std::string digits = kNumbers[pick(std::size(kNumbers))];
        if (rng() % 4 == 0) {
            digits.resize(1 + pick(24));
            for (char &c : digits)
                c = static_cast<char>('0' + pick(10));
        }
        std::vector<std::size_t> runs;
        for (std::size_t i = 0; i < s.size(); ++i) {
            if (std::isdigit(static_cast<unsigned char>(s[i])) &&
                (i == 0 || !std::isdigit(static_cast<unsigned char>(s[i - 1]))))
                runs.push_back(i);
        }
        if (runs.empty() || rng() % 4 == 0) {
            s.insert(pick(s.size() + 1), digits);
        } else {
            const std::size_t at = runs[pick(runs.size())];
            std::size_t end = at;
            while (end < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[end])))
                ++end;
            s.replace(at, end - at, digits);
        }
        break;
      }
      default: // inject query syntax
        s.insert(pick(s.size() + 1), kQuery[pick(std::size(kQuery))]);
        break;
    }
    return s;
}

/** Counts phases and keeps nothing. */
class CountingSink final : public core::PhaseSink
{
  public:
    void consume(const core::Phase &) override { ++phases; }
    u64 phases = 0;
};

TEST(RegistryFuzz, MutatedNamesAreRejectedOrBuild)
{
    // Seeded mutations of every registry name and every --list-scaled
    // name: bit flips, truncation, digit runs and injected ?, &, =, %.
    // Each mutant must either be rejected by checkWorkload with a
    // message, or build through makeKernel and return from its first
    // nextChunk — never crash or exit. Builds are capped (distinct
    // names only) to keep the entry to a few seconds.
    // Half the mutants start from a --list-scaled name: those carry
    // the numeric parameters, and so most of the parser's surface.
    const std::vector<std::string> plain = listWorkloads();
    const std::vector<std::string> scaled = listScaledWorkloads();
    constexpr int kMutants = 4000;
    constexpr std::size_t kMaxBuilds = 96;
    std::mt19937_64 rng(0xf022);
    std::set<std::string> built;
    int rejected = 0;
    for (int i = 0; i < kMutants; ++i) {
        const std::vector<std::string> &seeds = rng() % 2 ? scaled : plain;
        std::string name = seeds[rng() % seeds.size()];
        for (u64 edits = 1 + rng() % 3; edits > 0; --edits)
            name = mutateName(std::move(name), rng);
        std::string error;
        if (!checkWorkload(name, &error)) {
            EXPECT_FALSE(error.empty()) << name;
            ++rejected;
            continue;
        }
        if (built.size() == kMaxBuilds || !built.insert(name).second)
            continue;
        SCOPED_TRACE(name);
        std::unique_ptr<core::Kernel> kernel = makeKernel(name);
        ASSERT_NE(kernel, nullptr);
        CountingSink sink;
        kernel->stream()->nextChunk(sink);
    }
    // Most mutants are malformed; enough stay valid to build.
    EXPECT_GT(rejected, kMutants / 2);
    EXPECT_EQ(built.size(), kMaxBuilds);
}

TEST(Registry, LargestAcceptedDnnBatchStreamsToTheEnd)
{
    // checkWorkload bounds a DNN run's feature buffers by their sum, as
    // if no tensor were ever freed. For every listed model and task,
    // bisect for the largest batch it accepts and stream that run to
    // its end: the kernel's fatal-on-exhaustion allocator must never
    // fire.
    std::string error;
    for (const auto &w : listWorkloads()) {
        if (w.rfind("dnn/", 0) != 0)
            continue;
        const auto name = [&](u64 batch) {
            return w + "&batch=" + std::to_string(batch);
        };
        u64 accepted = 1, rejected = 65537; // past the batch range
        ASSERT_TRUE(checkWorkload(name(accepted), &error)) << error;
        while (rejected - accepted > 1) {
            const u64 mid = accepted + (rejected - accepted) / 2;
            if (checkWorkload(name(mid), &error))
                accepted = mid;
            else
                rejected = mid;
        }
        auto kernel = makeKernel(name(accepted));
        auto source = kernel->stream();
        CountingSink sink;
        while (source->nextChunk(sink)) {
        }
        EXPECT_GT(sink.phases, 0u) << name(accepted);
    }
    // The documented edge for ResNet training, and the message one
    // sample past it.
    EXPECT_TRUE(checkWorkload("dnn/ResNet?task=training&batch=127", &error));
    EXPECT_FALSE(
        checkWorkload("dnn/ResNet?task=training&batch=128", &error));
    EXPECT_NE(error.find("batch=128 needs"), std::string::npos) << error;
}

/** CRC32 of every field of every phase a kernel streams; keeps nothing. */
class DigestSink final : public core::PhaseSink
{
  public:
    void
    consume(const core::Phase &phase) override
    {
        word(phase.name.size());
        crc = crc32Update(crc, phase.name.data(), phase.name.size());
        word(phase.computeCycles);
        for (const core::LogicalAccess &acc : phase.accesses) {
            word(acc.addr);
            word(acc.bytes);
            word(acc.vn);
            word(static_cast<u64>(acc.type));
            word(static_cast<u64>(acc.cls));
            word(acc.macGranularity);
        }
    }

    u32 crc = 0;

  private:
    /** Fold @p v in as 8 little-endian bytes, whatever the host. */
    void
    word(u64 v)
    {
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<unsigned char>(v >> (8 * i));
        crc = crc32Update(crc, bytes, sizeof bytes);
    }
};

TEST(Registry, FirstExecutionTracesArePinned)
{
    // The timing grid never reads a VN, so nothing else pins one: a
    // changed VN rule, address map or schedule in any kernel's first
    // execution shows up here as a changed digest. The digest covers
    // each phase's name and compute cycles and each access's address,
    // bytes, VN, direction, class and MAC granularity. A deliberate
    // change to a kernel's schedule regenerates this table.
    static const std::map<std::string, u32> kDigests = {
        {"dnn/VGG?task=inference", 0x33cfbc07u},
        {"dnn/VGG?task=training", 0xca6380bfu},
        {"dnn/AlexNet?task=inference", 0x9b8ff7e2u},
        {"dnn/AlexNet?task=training", 0xf78ca634u},
        {"dnn/GoogleNet?task=inference", 0x237db53du},
        {"dnn/GoogleNet?task=training", 0x20eb3ecbu},
        {"dnn/ResNet?task=inference", 0x1af64b1fu},
        {"dnn/ResNet?task=training", 0x3f5489b3u},
        {"dnn/BERT?task=inference", 0x5f908edeu},
        {"dnn/BERT?task=training", 0xb520e667u},
        {"dnn/DLRM?task=inference", 0x43a6946fu},
        {"dnn/DLRM?task=training", 0x1b1c44a3u},
        {"dnn/MobileNet?task=inference", 0x022e869eu},
        {"dnn/MobileNet?task=training", 0x6f906b79u},
        {"graph/google-plus/pagerank", 0xa7aaa842u},
        {"graph/google-plus/bfs", 0x8c875912u},
        {"graph/google-plus/sssp", 0x8c875912u},
        {"graph/pokec/pagerank", 0x57c9397eu},
        {"graph/pokec/bfs", 0x4a881c60u},
        {"graph/pokec/sssp", 0x4a881c60u},
        {"graph/livejournal/pagerank", 0xa8ac0f69u},
        {"graph/livejournal/bfs", 0x7d6e3ef8u},
        {"graph/livejournal/sssp", 0x7d6e3ef8u},
        {"graph/reddit/pagerank", 0xa4c859dfu},
        {"graph/reddit/bfs", 0x1171bde9u},
        {"graph/reddit/sssp", 0x1171bde9u},
        {"graph/ogbl-ppa/pagerank", 0xf0ff14ceu},
        {"graph/ogbl-ppa/bfs", 0x1fe2ba70u},
        {"graph/ogbl-ppa/sssp", 0x1fe2ba70u},
        {"graph/ogbn-products/pagerank", 0x3881db3au},
        {"graph/ogbn-products/bfs", 0x32eccc48u},
        {"graph/ogbn-products/sssp", 0x32eccc48u},
        {"genome/chr1PacBio", 0x29652203u},
        {"genome/chr1ONT2D", 0x89d5cd66u},
        {"genome/chr1ONT1D", 0x20ccb999u},
        {"genome/chrXPacBio", 0xd262c5a2u},
        {"genome/chrXONT2D", 0xf5e15b3eu},
        {"genome/chrXONT1D", 0x5833e472u},
        {"genome/chrYPacBio", 0x940a191au},
        {"genome/chrYONT2D", 0xcd13c2e4u},
        {"genome/chrYONT1D", 0xfac70a4fu},
        {"video/h264", 0x5cb197c7u},
        {"core/matmul", 0x01950809u},
    };
    const std::vector<std::string> names = listWorkloads();
    EXPECT_EQ(names.size(), kDigests.size());
    for (const std::string &name : names) {
        DigestSink sink;
        makeKernel(name)->stream()->drainTo(sink);
        const auto it = kDigests.find(name);
        char line[128];
        std::snprintf(line, sizeof line, "{\"%s\", 0x%08xu},", name.c_str(),
                      sink.crc);
        if (it == kDigests.end())
            ADD_FAILURE() << "no pinned digest: " << line;
        else
            EXPECT_EQ(it->second, sink.crc) << line;
    }
}

TEST(Registry, ReExecutionKeepsTheVnInvariant)
{
    // Streaming a kernel again is its next execution: a new input, a
    // new query batch or bitstream, more sweeps, another training
    // iteration. Two executions under one checker must still write
    // no (address, VN) pair twice, and every read must regenerate the
    // VN of the last write. The other DNN cells are left out only for
    // cost: the checker keeps one entry per 64 B block, hundreds of MB
    // on BERT training.
    const std::set<std::string> dnn = {
        "dnn/DLRM?task=inference",      "dnn/DLRM?task=training",
        "dnn/MobileNet?task=inference", "dnn/MobileNet?task=training",
        "dnn/GoogleNet?task=inference", "dnn/GoogleNet?task=training"};
    std::size_t checked = 0;
    for (const std::string &name : listWorkloads()) {
        if (name.rfind("dnn/", 0) == 0 && !dnn.count(name))
            continue;
        auto kernel = makeKernel(name);
        core::InvariantChecker checker;
        checker.observeTrace(kernel->generate());
        checker.observeTrace(kernel->generate());
        const core::CheckReport report = checker.report();
        EXPECT_TRUE(report.ok)
            << name << ": "
            << (report.violations.empty() ? "" : report.violations.front());
        ++checked;
    }
    EXPECT_EQ(checked, 35u);
}

// ---------------------------------------------------------------------
// Registry cell vs explicit trace() cell equivalence
// ---------------------------------------------------------------------

TEST(Experiment, MatchesCompareSchemesBitwise)
{
    // A registry workload's cells and the cells of an explicit trace()
    // entry holding that kernel's trace agree bitwise, serial and
    // parallel.
    const std::string w = "core/matmul?m=256&n=256&k=256";
    const ResultSet reference = Experiment()
                                    .trace("trace", makeKernel(w)->generate())
                                    .platform(edgePlatform())
                                    .threads(1)
                                    .run();

    for (u32 threads : {1u, 4u}) {
        ResultSet rs = Experiment()
                           .workload(w)
                           .platform(edgePlatform())
                           .schemes(allSchemes())
                           .threads(threads)
                           .run();
        ASSERT_EQ(rs.records().size(), allSchemes().size());
        for (Scheme s : allSchemes()) {
            const RunResult *r = rs.find(w, "Edge", s);
            const RunResult *t = reference.find("trace", "Edge", s);
            ASSERT_NE(r, nullptr);
            ASSERT_NE(t, nullptr);
            EXPECT_EQ(r->totalCycles, t->totalCycles)
                << "threads=" << threads;
            EXPECT_EQ(r->traffic.totalBytes(), t->traffic.totalBytes())
                << "threads=" << threads;
            EXPECT_EQ(r->dramAccesses, t->dramAccesses)
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

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/** A two-workload, four-cell grid under a deadline. */
ResultSet
deadlinedGrid(u32 threads, std::optional<Clock::time_point> deadline)
{
    Experiment e;
    e.workloads({"core/matmul?m=128&n=128&k=128", "video/h264?frames=4"})
        .platform(edgePlatform())
        .schemes({Scheme::NP, Scheme::BP})
        .threads(threads);
    if (deadline)
        e.deadline(*deadline);
    return e.run();
}

TEST(Experiment, PassedDeadlineStopsEveryReplayMode)
{
    const Clock::time_point past = Clock::now() - std::chrono::seconds(1);
    for (u32 threads : {1u, 4u})
        EXPECT_THROW(deadlinedGrid(threads, past), DeadlineExceeded)
            << "threads=" << threads;
    // A pipelined cell stops on its engine thread; runPipelined joins
    // that thread and rethrows here.
    EXPECT_THROW(Experiment()
                     .workload("video/h264?frames=4")
                     .platform(edgePlatform())
                     .schemes({Scheme::BP})
                     .threads(2)
                     .pipelined(true)
                     .deadline(past)
                     .run(),
                 DeadlineExceeded);
}

TEST(Experiment, DistantDeadlineChangesNoByte)
{
    const Clock::time_point later = Clock::now() + std::chrono::hours(1);
    for (u32 threads : {1u, 4u})
        EXPECT_EQ(toJson(deadlinedGrid(threads, later)),
                  toJson(deadlinedGrid(threads, std::nullopt)))
            << "threads=" << threads;
}

/** Times each chunk its source emits (the sink's replay included). */
class ChunkTimer final : public core::PhaseSource
{
  public:
    explicit ChunkTimer(std::unique_ptr<core::PhaseSource> inner)
        : inner_(std::move(inner))
    {
    }

    bool
    nextChunk(core::PhaseSink &sink) override
    {
        const Clock::time_point t0 = Clock::now();
        const bool more = inner_->nextChunk(sink);
        longest = std::max(longest, Clock::now() - t0);
        return more;
    }

    Clock::duration longest{};

  private:
    std::unique_ptr<core::PhaseSource> inner_;
};

TEST(Experiment, DeadlineStopsARunningCellWithinAFewChunks)
{
    // A cell that runs far past its deadline (hundreds of ms), built
    // in microseconds, so the deadline falls while it replays.
    const std::string w = "video/h264?frames=256";
    const Platform platform = defaultPlatform(w);

    // Its longest chunk (generation plus BP replay), measured alone.
    std::unique_ptr<core::Kernel> kernel = makeKernel(w, platform);
    ChunkTimer source(kernel->stream());
    dram::DramSystem dram(platform.dram);
    protection::ProtectionConfig cfg;
    cfg.scheme = Scheme::BP;
    protection::ProtectionEngine engine(cfg, &dram);
    PerfModel(&engine, platform.clockMhz).run(source);

    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(50);
    EXPECT_THROW(Experiment()
                     .workload(w)
                     .platform(platform)
                     .schemes({Scheme::BP})
                     .threads(1)
                     .deadline(deadline)
                     .run(),
                 DeadlineExceeded);
    const Clock::duration late = Clock::now() - deadline;
    // Ten chunks, with a floor for a preempted thread on a busy host.
    const Clock::duration bound = std::max<Clock::duration>(
        10 * source.longest, std::chrono::milliseconds(100));
    EXPECT_LT(late, bound)
        << "stopped "
        << std::chrono::duration<double, std::milli>(late).count()
        << " ms late; longest chunk "
        << std::chrono::duration<double, std::milli>(source.longest)
               .count()
        << " ms";
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
    for (Scheme s : protection::kAllSchemes) {
        Scheme parsed = Scheme::NP;
        EXPECT_TRUE(schemeByName(protection::schemeName(s), parsed));
        EXPECT_EQ(parsed, s);
    }
}

TEST(ReportDeathTest, SchemeByNameRejectsUnknown)
{
    // Unknown names are the caller's to report (mgx_run prints usage,
    // mgx_serve answers 400), so the lookup fails without dying.
    Scheme parsed = Scheme::MGX;
    EXPECT_FALSE(schemeByName("XYZ", parsed));
    EXPECT_FALSE(schemeByName("mgx", parsed)); // names are exact
    EXPECT_EQ(parsed, Scheme::MGX);
}

TEST(Report, PlatformNamesAndCommaListsParse)
{
    Platform p;
    ASSERT_TRUE(platformByName("edge", p));
    EXPECT_EQ(p.name, "Edge");
    EXPECT_FALSE(platformByName("Edge", p));
    EXPECT_FALSE(platformByName("", p));
    EXPECT_EQ(splitCommas("NP,,BP,"),
              (std::vector<std::string>{"NP", "BP"}));
    EXPECT_TRUE(splitCommas("").empty());
}

} // namespace
} // namespace mgx::sim
