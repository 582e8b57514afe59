#include "workload_registry.h"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "common/bitops.h"
#include "common/log.h"
#include "common/parse.h"
#include "core/matmul_kernel.h"
#include "dnn/dnn_kernel.h"
#include "dnn/models.h"
#include "genome/genome_kernel.h"
#include "graph/graph_gen.h"
#include "graph/graph_kernel.h"
#include "video/video_kernel.h"

namespace mgx::sim {
namespace {

/**
 * Registry errors are thrown internally so a long-running service can
 * reject a bad request (checkWorkload) without dying; the classic
 * makeKernel() surface converts them back to fatal() for the CLI and
 * tools, with byte-identical messages.
 */
struct BadWorkload
{
    std::string message;
};

[[noreturn]] __attribute__((format(printf, 1, 2))) void
badWorkload(const char *fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    throw BadWorkload{buf};
}

// Parameter ranges, checked before any kernel is built. Counts and
// divisors start at 1. Where a listScaledWorkloads() variant raises a
// parameter, its value there is the maximum, so no single parameter
// reaches past the largest cells the registry offers. Seeds keep the
// full u64 range.
constexpr u64 kAnyU64 = ~u64{0};
constexpr u64 kMaxBatch = 65536;      ///< dnn/DLRM?...&batch=65536
constexpr u64 kMaxIters = 8;          ///< twice the frontier default
constexpr u64 kMaxScale = 0xffffffff; ///< GraphSpec::scale is a u32
constexpr u64 kMaxReads = 24895;      ///< genome/chr1: 248956422 / 10000
constexpr u64 kMaxFrames = 7200;      ///< video/h264?frames=7200&width=
constexpr u64 kMaxWidth = 1920;       ///<   1920&height=1080
constexpr u64 kMaxHeight = 1080;
constexpr u64 kMaxDim = 4096;         ///< core/matmul?m=4096&n=4096&k=4096
constexpr u64 kMaxTiles = 64;         ///<   &mtiles=64&ntiles=64&ktiles=64

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = s.find(sep, start);
        parts.push_back(s.substr(start, pos - start));
        if (pos == std::string::npos)
            break;
        start = pos + 1;
    }
    return parts;
}

/** The `?key=value&...` suffix, with unknown-key detection. */
class Query
{
  public:
    Query(const std::string &name, const std::string &query)
        : name_(name)
    {
        if (query.empty())
            return;
        for (const auto &kv : split(query, '&')) {
            std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0)
                badWorkload("workload '%s': malformed parameter '%s'",
                      name.c_str(), kv.c_str());
            params_.emplace_back(toLower(kv.substr(0, eq)),
                                 kv.substr(eq + 1));
        }
    }

    /** String value of @p key, or @p def if absent. */
    std::string
    str(const std::string &key, const std::string &def = "")
    {
        for (auto &p : params_) {
            if (p.first == key) {
                consumed_.push_back(key);
                return p.second;
            }
        }
        return def;
    }

    /**
     * Integer value of @p key in [@p min, @p max], or @p def if absent.
     * Anything else (a sign, junk, an out-of-range value) is rejected
     * before a kernel is built.
     */
    u64
    num(const std::string &key, u64 def, u64 min, u64 max)
    {
        const std::string v = str(key);
        if (v.empty())
            return def;
        u64 parsed = 0;
        if (!parseDecimal(v.c_str(), max, parsed) || parsed < min)
            badWorkload("workload '%s': parameter %s=%s is not an "
                        "integer in [%llu, %llu]",
                        name_.c_str(), key.c_str(), v.c_str(),
                        static_cast<unsigned long long>(min),
                        static_cast<unsigned long long>(max));
        return parsed;
    }

    /** Decimal-fraction value of @p key in (0, 1], or @p def if absent. */
    double
    fraction(const std::string &key, double def)
    {
        const std::string v = str(key);
        if (v.empty())
            return def;
        double parsed = 0;
        if (!parseFraction(v.c_str(), 1.0, parsed) || parsed == 0)
            badWorkload("workload '%s': parameter %s=%s is not a "
                        "decimal fraction in (0, 1]",
                        name_.c_str(), key.c_str(), v.c_str());
        return parsed;
    }

    /** Fatal if any parameter was never consumed (typo protection). */
    void
    finish() const
    {
        for (const auto &p : params_) {
            if (std::find(consumed_.begin(), consumed_.end(),
                          p.first) == consumed_.end())
                badWorkload("workload '%s': unknown parameter '%s'",
                      name_.c_str(), p.first.c_str());
        }
    }

  private:
    std::string name_;
    std::vector<std::pair<std::string, std::string>> params_;
    std::vector<std::string> consumed_;
};

/** domain, path segments after the domain, and the query. */
struct ParsedName
{
    std::string domain;
    std::vector<std::string> path;
    Query query;
    /** Return the kernel; false only checks the name. */
    bool build = true;
};

ParsedName
parseName(const std::string &name)
{
    const std::size_t qpos = name.find('?');
    const std::string path_part = name.substr(0, qpos);
    const std::string query_part =
        qpos == std::string::npos ? "" : name.substr(qpos + 1);
    std::vector<std::string> segs = split(path_part, '/');
    if (segs.size() < 2 || segs[0].empty() || segs[1].empty())
        badWorkload("workload '%s': expected domain/name[?params]",
              name.c_str());
    ParsedName parsed{toLower(segs[0]),
                      {segs.begin() + 1, segs.end()},
                      Query(name, query_part)};
    return parsed;
}

/** Paper display name for a model key, accepting common aliases. */
std::string
canonicalModel(const std::string &name, const std::string &model)
{
    static const std::pair<const char *, const char *> kModels[] = {
        {"vgg", "VGG"},           {"vgg16", "VGG"},
        {"alexnet", "AlexNet"},   {"googlenet", "GoogleNet"},
        {"inception", "GoogleNet"}, {"resnet", "ResNet"},
        {"resnet50", "ResNet"},   {"bert", "BERT"},
        {"bert-base", "BERT"},    {"dlrm", "DLRM"},
        {"mobilenet", "MobileNet"}, {"mobilenetv1", "MobileNet"},
    };
    const std::string key = toLower(model);
    for (const auto &[alias, display] : kModels)
        if (key == alias)
            return display;
    badWorkload("workload '%s': unknown DNN model '%s'", name.c_str(),
          model.c_str());
}

std::unique_ptr<core::Kernel>
makeDnn(const std::string &name, ParsedName &p, bool edge_platform)
{
    if (p.path.size() != 1)
        badWorkload("workload '%s': expected dnn/<model>", name.c_str());
    const std::string model = canonicalModel(name, p.path[0]);

    const std::string task_str =
        toLower(p.query.str("task", "inference"));
    dnn::DnnTask task;
    if (task_str == "inference")
        task = dnn::DnnTask::Inference;
    else if (task_str == "training")
        task = dnn::DnnTask::Training;
    else
        badWorkload("workload '%s': task must be inference or training",
              name.c_str());

    const std::string accel_str = toLower(p.query.str("accel"));
    bool edge = edge_platform;
    if (accel_str == "cloud")
        edge = false;
    else if (accel_str == "edge")
        edge = true;
    else if (!accel_str.empty())
        badWorkload("workload '%s': accel must be cloud or edge",
              name.c_str());

    const u32 batch =
        static_cast<u32>(p.query.num("batch", 0, 1, kMaxBatch));
    const u64 seed = p.query.num("seed", 1, 0, kAnyU64);
    const double density = p.query.fraction("density", 1.0);
    p.query.finish();

    // Per-parameter ranges do not bound a heavy model's tensors: its
    // feature buffers must fit the kernel's region as well.
    auto kernel = std::make_unique<dnn::DnnKernel>(
        dnn::modelByName(model),
        edge ? dnn::edgeAccel() : dnn::cloudAccel(), task, batch, seed);
    const u64 demand = kernel->featureDemandBytes();
    const u64 region = dnn::DnnKernel::featureRegionBytes();
    if (demand > region)
        badWorkload("workload '%s': parameter batch=%u needs %llu MiB "
                    "of feature buffers, more than the %llu MiB feature "
                    "region",
                    name.c_str(), kernel->batch(),
                    static_cast<unsigned long long>(divCeil(demand, 1 << 20)),
                    static_cast<unsigned long long>(region >> 20));
    if (!p.build)
        return nullptr;
    if (density < 1.0)
        kernel->setFeatureDensity(density);
    return kernel;
}

std::unique_ptr<core::Kernel>
makeGraph(const std::string &name, ParsedName &p)
{
    if (p.path.size() != 2)
        badWorkload("workload '%s': expected graph/<name>/<algorithm>",
              name.c_str());
    // graphByName() is fatal-on-unknown (it lives below the registry's
    // throw boundary), so check existence here first.
    const auto specs = graph::paperGraphs();
    if (std::none_of(specs.begin(), specs.end(), [&](const auto &s) {
            return s.name == p.path[0];
        }))
        badWorkload("workload '%s': unknown graph '%s'", name.c_str(),
                    p.path[0].c_str());
    graph::GraphSpec spec = graph::graphByName(p.path[0]);

    const std::string alg_str = toLower(p.path[1]);
    graph::GraphAlgorithm alg;
    if (alg_str == "pagerank")
        alg = graph::GraphAlgorithm::PageRank;
    else if (alg_str == "bfs")
        alg = graph::GraphAlgorithm::BFS;
    else if (alg_str == "sssp")
        alg = graph::GraphAlgorithm::SSSP;
    else
        badWorkload("workload '%s': algorithm must be pagerank, bfs or sssp",
              name.c_str());

    // The figure-14 defaults: PageRank converges in 3 sweeps on the
    // scaled graphs, the frontier algorithms run one more.
    const u32 iters = static_cast<u32>(
        p.query.num("iters", alg == graph::GraphAlgorithm::PageRank ? 3 : 4,
                    1, kMaxIters));
    spec.scale =
        static_cast<u32>(p.query.num("scale", spec.scale, 1, kMaxScale));
    const u64 seed = p.query.num("seed", 11, 0, kAnyU64);

    const std::string vec_str = toLower(p.query.str("vector", "seq"));
    graph::VectorAccess vec;
    if (vec_str == "seq" || vec_str == "sequential")
        vec = graph::VectorAccess::Sequential;
    else if (vec_str == "random")
        vec = graph::VectorAccess::Random;
    else
        badWorkload("workload '%s': vector must be seq or random",
              name.c_str());
    p.query.finish();
    if (!p.build)
        return nullptr;

    graph::SpmvEngineConfig engine;
    graph::GraphTiles tiles = graph::buildTiles(
        spec, engine.dstBlockVertices, engine.srcTileVertices, seed);
    return std::make_unique<graph::GraphKernel>(std::move(tiles), alg,
                                                iters, engine, vec);
}

std::unique_ptr<core::Kernel>
makeGenome(const std::string &name, ParsedName &p)
{
    if (p.path.size() != 1)
        badWorkload("workload '%s': expected genome/<workload>",
              name.c_str());
    const std::string key = toLower(p.path[0]);
    // Bare chromosome names are the whole-chromosome PacBio runs the
    // paper's full-scale evaluation uses: enough reads for ~1x
    // coverage rather than the figure subset. Only feasible through
    // the streaming path — a materialized chr1 trace is hundreds of
    // MB.
    if (key == "chr1" || key == "chrx" || key == "chry") {
        for (auto &w : genome::paperWorkloads()) {
            if (toLower(w.name) != key + "pacbio")
                continue;
            w.numReads = p.query.num(
                "reads", w.referenceBases / w.profile.meanReadLen, 1,
                kMaxReads);
            p.query.finish();
            if (!p.build)
                return nullptr;
            return std::make_unique<genome::GenomeKernel>(w);
        }
    }
    const u64 reads = p.query.num("reads", 64, 1, kMaxReads);
    p.query.finish();
    for (const auto &w : genome::paperWorkloads(reads))
        if (toLower(w.name) == key)
            return p.build ? std::make_unique<genome::GenomeKernel>(w)
                           : nullptr;
    badWorkload("workload '%s': unknown GACT workload '%s'", name.c_str(),
          p.path[0].c_str());
}

std::unique_ptr<core::Kernel>
makeVideo(const std::string &name, ParsedName &p)
{
    if (p.path.size() != 1 || toLower(p.path[0]) != "h264")
        badWorkload("workload '%s': expected video/h264", name.c_str());
    video::VideoConfig cfg;
    cfg.numFrames = static_cast<u32>(
        p.query.num("frames", cfg.numFrames, 1, kMaxFrames));
    cfg.width =
        static_cast<u32>(p.query.num("width", cfg.width, 1, kMaxWidth));
    cfg.height =
        static_cast<u32>(p.query.num("height", cfg.height, 1, kMaxHeight));
    cfg.gopPeriod = static_cast<u32>(
        p.query.num("gop", cfg.gopPeriod, 1, kMaxFrames));
    p.query.finish();
    if (!p.build)
        return nullptr;
    return std::make_unique<video::VideoKernel>(cfg);
}

std::unique_ptr<core::Kernel>
makeMatMul(const std::string &name, ParsedName &p)
{
    if (p.path.size() != 1 || toLower(p.path[0]) != "matmul")
        badWorkload("workload '%s': expected core/matmul", name.c_str());
    core::MatMulParams params;
    params.m = p.query.num("m", params.m, 1, kMaxDim);
    params.n = p.query.num("n", params.n, 1, kMaxDim);
    params.k = p.query.num("k", params.k, 1, kMaxDim);
    params.mTiles = p.query.num("mtiles", params.mTiles, 1, kMaxTiles);
    params.nTiles = p.query.num("ntiles", params.nTiles, 1, kMaxTiles);
    params.kTiles = p.query.num("ktiles", params.kTiles, 1, kMaxTiles);
    p.query.finish();
    if (params.m % params.mTiles || params.n % params.nTiles ||
        params.k % params.kTiles)
        badWorkload("workload '%s': m, n and k must be multiples of "
                    "mtiles, ntiles and ktiles",
                    name.c_str());
    if (!p.build)
        return nullptr;
    return std::make_unique<core::MatMulKernel>(params);
}

std::unique_ptr<core::Kernel>
makeKernelImpl(const std::string &name, const Platform &platform,
               bool build = true)
{
    ParsedName p = parseName(name);
    p.build = build;
    if (p.domain == "dnn")
        return makeDnn(name, p, platform.name == "Edge");
    if (p.domain == "graph")
        return makeGraph(name, p);
    if (p.domain == "genome")
        return makeGenome(name, p);
    if (p.domain == "video")
        return makeVideo(name, p);
    if (p.domain == "core")
        return makeMatMul(name, p);
    badWorkload("workload '%s': unknown domain '%s'", name.c_str(),
          p.domain.c_str());
}

} // namespace

std::unique_ptr<core::Kernel>
makeKernel(const std::string &name, const Platform &platform)
{
    try {
        return makeKernelImpl(name, platform);
    } catch (const BadWorkload &e) {
        fatal("%s", e.message.c_str());
    }
}

std::unique_ptr<core::Kernel>
makeKernel(const std::string &name)
{
    return makeKernel(name, defaultPlatform(name));
}

bool
checkWorkload(const std::string &name, std::string *error)
{
    try {
        makeKernelImpl(name, cloudPlatform(), false);
        return true;
    } catch (const BadWorkload &e) {
        if (error)
            *error = e.message;
        return false;
    }
}

Platform
defaultPlatform(const std::string &name)
{
    const std::string domain = [&] {
        try {
            return parseName(name).domain;
        } catch (const BadWorkload &e) {
            fatal("%s", e.message.c_str());
        }
    }();
    if (domain == "graph")
        return graphPlatform();
    // The H.264 study and GACT share the 800 MHz / 4-channel platform.
    if (domain == "genome" || domain == "video")
        return genomePlatform();
    return cloudPlatform();
}

std::vector<std::string>
listWorkloads()
{
    std::vector<std::string> names;
    for (const char *model : {"VGG", "AlexNet", "GoogleNet", "ResNet",
                              "BERT", "DLRM", "MobileNet"}) {
        names.push_back(std::string("dnn/") + model +
                        "?task=inference");
        names.push_back(std::string("dnn/") + model + "?task=training");
    }
    for (const auto &spec : graph::paperGraphs())
        for (const char *alg : {"pagerank", "bfs", "sssp"})
            names.push_back("graph/" + spec.name + "/" + alg);
    for (const auto &w : genome::paperWorkloads())
        names.push_back("genome/" + w.name);
    names.push_back("video/h264");
    names.push_back("core/matmul");
    return names;
}

std::vector<std::string>
listScaledWorkloads()
{
    return {
        // 64^3 partial-sum rounds: ~262K phases / ~1M accesses.
        "core/matmul?m=4096&n=4096&k=4096&mtiles=64&ntiles=64&ktiles=64",
        // Production-recommendation training batch: the 26 embedding
        // tables gather (and backward-scatter) per-sample rows, so
        // accesses scale with batch.
        "dnn/DLRM?task=training&batch=65536",
        // Unscaled pokec with gathered vector entries (SpMSpV): the
        // per-edge gathers are what make full-size graphs big.
        "graph/pokec/pagerank?scale=1&vector=random",
        // Whole-chromosome alignment at ~1x coverage (~25K reads).
        "genome/chr1",
        // Four minutes of 1080p at 30 fps.
        "video/h264?frames=7200&width=1920&height=1080",
    };
}

} // namespace mgx::sim
