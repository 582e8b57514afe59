/**
 * @file
 * The served workloads: serve_mix (an in-process serve::Server at
 * mgx_serve's defaults) and fleet_mix (fleet::Fleet with two forked
 * mgx_serve workers behind the routing proxy), both driven by the same
 * seeded closed loop of keep-alive clients.
 *
 * The mix below is an assumed scenario chosen when the benchmark was
 * defined; no recorded request traffic backs the 90/10 split, the size
 * of the hot set or the client count.
 *
 * Traffic: repeated batches of kBatch /run requests for the NP, MGX and
 * BP cells of one workload. Exactly 90% of each batch go to a fixed hot
 * set of paper workloads that set-up warmed into the result memo; 10%
 * are cold — the MobileNet batch-1 inference cell under a `seed=`
 * never used before, which the registry accepts and the DNN kernel
 * ignores outside DLRM, so every cold request is a real engine run of
 * constant cost whose body must equal the committed reference with the
 * workload label swapped. The seed fixes the order of hot and cold
 * requests, which hot workload each hot request asks for, and the cold
 * labels.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include <unistd.h>

#include "bench.h"
#include "fleet/fleet.h"
#include "host.h"
#include "layers.h"
#include "reference.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/report.h"
#include "sim/workload_registry.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using namespace mgx;

const char *const kColdWorkload = "dnn/MobileNet?task=inference&batch=1";

const std::vector<std::string> &
servedHotWorkloads()
{
    static const std::vector<std::string> kHot = {
        "core/matmul",
        "dnn/DLRM?task=inference",
        "dnn/DLRM?task=training",
        "genome/chr1PacBio",
        "genome/chrXONT1D",
        "genome/chrYONT2D",
        "graph/google-plus/pagerank",
        "video/h264",
    };
    return kHot;
}

namespace {

constexpr unsigned kClients = 4;
constexpr std::size_t kBatch = 1000; ///< requests per batch (one rep)
constexpr std::size_t kColdPerBatch = kBatch / 10;
/// Traced cold samples serve.cold_ms.p99 needs (kMinSamplesBeyond past
/// the 99th percentile).
constexpr std::size_t kColdTailSamples = kMinSamplesBeyond * 100;
constexpr int kEngineRequests = 5; ///< cold requests run directly
constexpr int kFloorRequests = 400; ///< /healthz and hop samples
constexpr int kTimeoutMs = 30000;

struct Request
{
    std::string label; ///< workload as sent
    std::string target;
    bool cold = false;
};

std::string
runTarget(const std::string &workload)
{
    return "/run?workload=" + serve::percentEncode(workload) +
           "&schemes=NP,MGX,BP";
}

/** The seeded request sequence. */
class Mix
{
  public:
    explicit Mix(std::uint64_t seed)
        : rng_(seed), nextColdSeed_(seed * 1000003 + 2)
    {
    }

    std::vector<Request>
    batch()
    {
        const auto &hot = servedHotWorkloads();
        std::uniform_int_distribution<std::size_t> pick(0, hot.size() - 1);
        std::vector<Request> out;
        for (std::size_t i = 0; i < kBatch; ++i) {
            if (i < kColdPerBatch) {
                out.push_back(coldRequest());
            } else {
                const std::string &w = hot[pick(rng_)];
                out.push_back({w, runTarget(w), false});
            }
        }
        std::shuffle(out.begin(), out.end(), rng_);
        return out;
    }

    /** A cold cell no earlier request used. */
    Request
    coldRequest()
    {
        const std::string label = std::string(kColdWorkload) + "&seed=" +
                                  std::to_string(nextColdSeed_++);
        return {label, runTarget(label), true};
    }

  private:
    std::mt19937_64 rng_;
    std::uint64_t nextColdSeed_;
};

/** Committed reference bodies. */
struct Bodies
{
    std::map<std::string, std::string> hot;
    std::string cold; ///< labelled kColdWorkload

    bool
    matches(const Request &req, const std::string &body) const
    {
        if (!req.cold) {
            auto it = hot.find(req.label);
            return it != hot.end() && body == it->second;
        }
        return body == relabel(cold, req.label);
    }

    static std::string
    relabel(std::string body, const std::string &label)
    {
        const std::string from =
            "\"workload\": \"" + std::string(kColdWorkload) + "\"";
        const std::string to = "\"workload\": \"" + label + "\"";
        for (std::size_t at = body.find(from); at != std::string::npos;
             at = body.find(from, at + to.size()))
            body.replace(at, from.size(), to);
        return body;
    }
};

Bodies
loadBodies(const Options &opt)
{
    Bodies b;
    const std::string dir = opt.referenceDir + "/served";
    bool ok = readFile(servedBodyPath(dir, kColdWorkload), &b.cold);
    for (const auto &w : servedHotWorkloads())
        ok = ok && readFile(servedBodyPath(dir, w), &b.hot[w]);
    if (!ok) {
        std::fprintf(stderr, "perfbench: missing served reference "
                             "bodies under %s\n",
                     dir.c_str());
        std::exit(1);
    }
    return b;
}

struct Sample
{
    double ms = 0.0;
    bool cold = false;
};

/** One batch's outcome. */
struct Batch
{
    double wall = 0.0;
    double cpu = 0.0;
    std::vector<Sample> samples;
    std::uint64_t spans = 0;
};

/** Closed-loop keep-alive clients against one address. */
class Clients
{
  public:
    Clients(const serve::SocketAddress &addr, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            conns_.push_back(
                std::make_unique<serve::ClientConnection>(addr));
    }

    /**
     * Send @p requests, each client taking the next one as soon as its
     * previous answer arrived. Every answer is checked against
     * @p bodies; with @p tracer, each request is a "request" span.
     */
    template <typename CpuFn>
    Batch
    run(const std::vector<Request> &requests, const Bodies &bodies,
        Report &rep, Tracer *tracer, std::uint64_t firstId,
        const CpuFn &cpu)
    {
        Batch out;
        std::atomic<std::size_t> next{0};
        std::mutex mu;
        std::vector<std::thread> threads;
        const double c0 = cpu();
        const double t0 = wallSeconds();
        for (auto &conn : conns_)
            threads.emplace_back([&, c = conn.get()] {
                std::vector<Sample> mine;
                std::vector<std::string> errors;
                for (std::size_t i = next.fetch_add(1); i < requests.size();
                     i = next.fetch_add(1)) {
                    const Request &req = requests[i];
                    serve::HttpResponse resp;
                    std::string error;
                    const std::int64_t s = nowNs();
                    const bool got =
                        c->get(req.target, &resp, &error, kTimeoutMs);
                    const std::int64_t e = nowNs();
                    if (tracer != nullptr) {
                        Span span;
                        span.name = "request";
                        span.id = tracer->newId();
                        span.request = firstId + i;
                        span.tag = req.cold ? 1 : 0;
                        span.startNs = s;
                        span.endNs = e;
                        tracer->record(span);
                    }
                    const bool ok = got && resp.status == 200 &&
                                    bodies.matches(req, resp.body);
                    if (!ok) {
                        errors.push_back(
                            req.label + ": " +
                            (got ? "status " + std::to_string(resp.status)
                                 : error));
                    }
                    mine.push_back({static_cast<double>(e - s) * 1e-6,
                                    req.cold});
                }
                std::lock_guard<std::mutex> lock(mu);
                out.samples.insert(out.samples.end(), mine.begin(),
                                   mine.end());
                rep.attempted += mine.size() - errors.size();
                for (const std::string &e : errors)
                    rep.check(false, e);
            });
        for (auto &t : threads)
            t.join();
        out.wall = wallSeconds() - t0;
        out.cpu = cpu() - c0;
        return out;
    }

  private:
    std::vector<std::unique_ptr<serve::ClientConnection>> conns_;
};

/** Send each hot request once over one connection (memo warm-up). */
void
warm(const serve::SocketAddress &addr, const Bodies &bodies, Report &rep)
{
    serve::ClientConnection conn(addr);
    for (const auto &w : servedHotWorkloads()) {
        serve::HttpResponse resp;
        std::string error;
        const Request req{w, runTarget(w), false};
        const bool ok = conn.get(req.target, &resp, &error, kTimeoutMs) &&
                        resp.status == 200 && bodies.matches(req, resp.body);
        rep.check(ok, "warm-up " + w + ": " +
                          (error.empty() ? std::to_string(resp.status)
                                         : error));
    }
}

/** Median latency (ms) of kFloorRequests keep-alive GETs of @p target. */
double
floorLatencyMs(const serve::SocketAddress &addr, const std::string &target,
               Report &rep)
{
    serve::ClientConnection conn(addr);
    std::vector<double> ms;
    for (int i = 0; i < kFloorRequests; ++i) {
        serve::HttpResponse resp;
        std::string error;
        const std::int64_t s = nowNs();
        const bool ok = conn.get(target, &resp, &error, kTimeoutMs) &&
                        resp.status == 200;
        ms.push_back(static_cast<double>(nowNs() - s) * 1e-6);
        rep.check(ok, target + ": " + error);
    }
    return median(ms);
}

/** Latency summary lines and numbers of a set of samples. */
struct Latency
{
    std::vector<double> all, hot, cold;

    explicit Latency(const std::vector<Batch> &batches)
    {
        for (const Batch &b : batches)
            for (const Sample &s : b.samples) {
                all.push_back(s.ms);
                (s.cold ? cold : hot).push_back(s.ms);
            }
    }
};

/** p-quantile of @p v. The runs collect enough samples for every tail
 *  they report; should one still be refused, the run is marked failed
 *  rather than reporting a number that would compare as a speed-up. */
double
tail(const std::vector<double> &v, double q, const std::string &name,
     Report &rep)
{
    if (auto p = percentile(v, q))
        return *p;
    rep.check(false, name + ": missing, fewer than " +
                         std::to_string(kMinSamplesBeyond) +
                         " samples beyond the percentile (" +
                         std::to_string(v.size()) + " samples)");
    return 0.0;
}

/**
 * The measured part shared by both mixes: untraced batches (the gated
 * numbers), then, with --trace 1, traced batches and the per-layer
 * serve.* / trace.* / engine numbers. @p setups run between batches;
 * the first must already have run.
 */
template <typename CpuFn>
void
measureMix(const Options &opt, const serve::SocketAddress &addr,
           const Bodies &bodies, const CpuFn &cpu, SetupSchedule &setups,
           Report &rep)
{
    Mix mix(opt.seed);
    Clients clients(addr, kClients);
    // Under --trace 1 every untraced batch is followed by a traced one,
    // so both see the same host conditions, and the run goes on past its
    // time until the traced batches hold enough cold samples for a p99.
    std::vector<Batch> untraced, traced;
    std::vector<Span> lastSpans;
    std::uint64_t ids = 1;
    for (const double start = wallSeconds();
         untraced.empty() || wallSeconds() - start < opt.seconds ||
         (opt.trace && traced.size() * kColdPerBatch < kColdTailSamples);
         setups.due(wallSeconds() - start)) {
        untraced.push_back(
            clients.run(mix.batch(), bodies, rep, nullptr, ids, cpu));
        ids += kBatch;
        if (!opt.trace)
            continue;
        Tracer tracer;
        traced.push_back(
            clients.run(mix.batch(), bodies, rep, &tracer, ids, cpu));
        ids += kBatch;
        lastSpans = tracer.collect();
        traced.back().spans = lastSpans.size();
    }

    rep.endToEnd["setup_s"] = setups.finish();
    std::vector<double> walls, cpus;
    double totalWall = 0.0;
    for (const Batch &b : untraced) {
        walls.push_back(b.wall);
        cpus.push_back(b.cpu);
        totalWall += b.wall;
    }
    rep.endToEnd["wall_s"] = median(walls);
    rep.endToEnd["cpu_s"] = median(cpus);
    const Latency lat(untraced);
    const double p50 = median(lat.all);
    rep.note("req_per_s", static_cast<double>(lat.all.size()) / totalWall,
             "1/s");
    rep.note("p50_ms", p50, "ms");
    rep.note("p99_ms", tail(lat.all, 0.99, "p99_ms", rep), "ms");
    rep.note("latency_samples", static_cast<double>(lat.all.size()),
             "count");
    rep.note("clients", kClients, "count");
    rep.repWalls = walls;
    if (!opt.trace)
        return;

    const Latency tlat(traced);
    rep.layers["serve.hot_ms.p50"] = median(tlat.hot);
    rep.layers["serve.cold_ms.p50"] = median(tlat.cold);
    rep.layers["serve.cold_ms.p99"] =
        tail(tlat.cold, 0.99, "serve.cold_ms.p99", rep);
    rep.layers["serve.cold_samples"] = static_cast<double>(tlat.cold.size());

    std::vector<double> twalls, spans;
    for (const Batch &b : traced) {
        twalls.push_back(b.wall);
        spans.push_back(static_cast<double>(b.spans));
    }
    rep.layers["trace.untraced_wall_s"] = median(walls);
    rep.layers["trace.traced_wall_s"] = median(twalls);
    rep.layers["trace.overhead_frac"] = median(twalls) / median(walls) - 1.0;
    rep.layers["trace.overhead_p50_ms"] = median(tlat.all) - p50;
    rep.layers["trace.spans"] = median(spans);
    writeSpanFile(opt, lastSpans, rep);

    // The engine behind a cold request, without the service: the same
    // three cells through Experiment (timed) and through the traced
    // replica (layer split), kEngineRequests fresh cells each.
    std::vector<double> engineMs;
    std::vector<RepLayers> engineLayers;
    std::vector<sim::RunRecord> records;
    for (int i = 0; i < kEngineRequests; ++i) {
        const Request req = mix.coldRequest();
        const std::int64_t s = nowNs();
        const std::string body = sim::toJson(
            sim::Experiment()
                .workload(req.label)
                .schemes({protection::Scheme::NP, protection::Scheme::MGX,
                          protection::Scheme::BP})
                .threads(1)
                .pipelined(false)
                .run());
        engineMs.push_back(static_cast<double>(nowNs() - s) * 1e-6);
        rep.check(bodies.matches(req, body), "engine " + req.label);

        Tracer tracer;
        records.clear();
        const double t0 = wallSeconds();
        for (protection::Scheme scheme :
             {protection::Scheme::NP, protection::Scheme::MGX,
              protection::Scheme::BP})
            records.push_back(runTracedCell(
                tracer, {req.label, sim::defaultPlatform(req.label), scheme},
                /*pipelined=*/false));
        engineLayers.push_back(
            aggregateSpans(tracer.collect(), wallSeconds() - t0, 1));
    }
    rep.layers["serve.engine_ms"] = median(engineMs);
    fillSimLayers(engineLayers, records, /*withPool=*/false, rep);
}

/** Serve counters, as /stats reports them, into serve.*. */
void
serveCounters(const serve::ServeMetrics::Snapshot &s, Report &rep)
{
    const double lookups = static_cast<double>(
        s.resultMemoHits + s.cellsRun + s.dedupCollapsed);
    rep.layers["serve.memo_hits"] = static_cast<double>(s.resultMemoHits);
    rep.layers["serve.cell_lookups"] = lookups;
    rep.layers["serve.memo_hit_ratio"] =
        lookups == 0 ? 0.0 : static_cast<double>(s.resultMemoHits) / lookups;
    rep.layers["serve.cells_run"] = static_cast<double>(s.cellsRun);
    rep.layers["serve.dedup_collapsed"] =
        static_cast<double>(s.dedupCollapsed);
    rep.layers["serve.rejected"] = static_cast<double>(s.rejected);
    rep.layers["serve.keepalive_reused"] =
        static_cast<double>(s.keepAliveReused);
    rep.layers["serve.max_queue_depth"] =
        static_cast<double>(s.maxQueueDepth);
}

/** The integer after `"key": ` in a JSON body (0 when absent). */
std::uint64_t
jsonCounter(const std::string &body, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const std::size_t at = body.find(needle);
    return at == std::string::npos
               ? 0
               : std::strtoull(body.c_str() + at + needle.size(), nullptr,
                               10);
}

/** Private socket directory for this run, removed on destruction. */
class RunDir
{
  public:
    explicit RunDir(const Options &opt)
        : path_(opt.runDir + "/" + std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~RunDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    RunDir(const RunDir &) = delete;
    RunDir &operator=(const RunDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace

Report
runServeMix(const Options &opt)
{
    Report rep;
    const Bodies bodies = loadBodies(opt);
    const RunDir dir(opt);

    // Set-up: start a server and warm the hot set into its memo. The
    // first server takes the traffic; later set-ups start, warm and shut
    // down a server of their own between batches.
    std::unique_ptr<serve::Server> server;
    serve::SocketAddress addr;
    int started = 0;
    SetupSchedule setups(opt.seconds, [&] {
        const double t0 = wallSeconds();
        serve::ServerOptions sopts;
        sopts.listen.unixPath =
            dir.path() + "/serve" + std::to_string(started++) + ".sock";
        auto s = std::make_unique<serve::Server>(sopts);
        s->start();
        warm({sopts.listen.unixPath, "127.0.0.1", 0}, bodies, rep);
        const double seconds = wallSeconds() - t0;
        if (server) {
            s->shutdown();
        } else {
            server = std::move(s);
            addr.unixPath = sopts.listen.unixPath;
        }
        return seconds;
    });
    setups.due(0.0);

    measureMix(opt, addr, bodies, cpuSeconds, setups, rep);
    if (opt.trace) {
        rep.layers["serve.healthz_ms.p50"] =
            floorLatencyMs(addr, "/healthz", rep);
        serveCounters(server->metricsSnapshot(), rep);
    }
    server->shutdown();
    rep.endToEnd["peak_rss_mb"] = peakRssMb();
    return rep;
}

Report
runFleetMix(const Options &opt)
{
    Report rep;
    const Bodies bodies = loadBodies(opt);
    const RunDir dir(opt);

    // Set-up: start the fleet, wait until every worker is in rotation
    // (so each hot cell warms on the worker that owns it), warm the hot
    // set through the proxy. The first fleet takes the traffic; later
    // set-ups start, warm and shut down a fleet of their own between
    // batches.
    std::unique_ptr<fleet::Fleet> f;
    serve::SocketAddress addr;
    std::vector<double> starts;
    SetupSchedule setups(opt.seconds, [&] {
        const double t0 = wallSeconds();
        fleet::FleetOptions fopts;
        fopts.supervisor.workers = 2;
        fopts.supervisor.socketDir =
            dir.path() + "/f" + std::to_string(starts.size());
        fopts.supervisor.serveBinary = opt.serveBinary;
        // Probe at the supervisor's 20 ms monitor tick: at the 200 ms
        // default, a worker that binds just after its first probe waits
        // a whole interval to enter rotation, and set-up time would jump
        // by that interval from one set-up to the next.
        fopts.supervisor.probeIntervalMs = 20;
        fopts.proxy.listen.unixPath = fopts.supervisor.socketDir + "/p.sock";
        std::filesystem::create_directories(fopts.supervisor.socketDir);
        auto started = std::make_unique<fleet::Fleet>(fopts);
        started->start();
        for (const double deadline = wallSeconds() + 10.0;
             wallSeconds() < deadline;) {
            const auto workers = started->supervisor().status();
            if (std::all_of(workers.begin(), workers.end(),
                            [](const auto &w) { return w.inRotation; }))
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        starts.push_back(wallSeconds() - t0);
        warm({fopts.proxy.listen.unixPath, "127.0.0.1", 0}, bodies, rep);
        const double seconds = wallSeconds() - t0;
        if (f) {
            started->shutdown();
        } else {
            f = std::move(started);
            addr.unixPath = fopts.proxy.listen.unixPath;
        }
        return seconds;
    });
    setups.due(0.0);

    std::vector<pid_t> pids;
    for (const auto &w : f->supervisor().status())
        pids.push_back(w.pid);
    const auto cpu = [&pids] {
        double total = cpuSeconds();
        for (pid_t pid : pids)
            total += processCpuSeconds(pid);
        return total;
    };
    measureMix(opt, addr, bodies, cpu, setups, rep);

    if (opt.trace) {
        const auto workers = f->supervisor().status();
        // One hop: a hot request through the proxy vs. straight to a
        // worker that already memoized it.
        const serve::SocketAddress direct{workers.front().socketPath,
                                          "127.0.0.1", 0};
        warm(direct, bodies, rep);
        const std::string target = runTarget(servedHotWorkloads().front());
        rep.layers["fleet.hop_ms.p50"] = floorLatencyMs(addr, target, rep) -
                                         floorLatencyMs(direct, target, rep);
        rep.layers["serve.healthz_ms.p50"] =
            floorLatencyMs(direct, "/healthz", rep);
        rep.layers["fleet.start_s"] = median(starts);
        rep.layers["fleet.routed"] =
            static_cast<double>(f->proxy().metrics().routed.load());
        rep.layers["fleet.failovers"] =
            static_cast<double>(f->proxy().metrics().failovers.load());

        // Worker serve counters, summed (queue depth: the deepest).
        serve::ServeMetrics::Snapshot sum;
        for (const auto &w : workers) {
            serve::HttpResponse resp;
            std::string error;
            const serve::SocketAddress a{w.socketPath, "127.0.0.1", 0};
            const bool ok = serve::httpGet(a, "/stats", &resp, &error) &&
                            resp.status == 200;
            rep.check(ok, "worker /stats: " + error);
            sum.resultMemoHits += jsonCounter(resp.body, "resultMemoHits");
            sum.cellsRun += jsonCounter(resp.body, "cellsRun");
            sum.dedupCollapsed += jsonCounter(resp.body, "dedupCollapsed");
            sum.rejected += jsonCounter(resp.body, "rejected");
            sum.keepAliveReused +=
                jsonCounter(resp.body, "keepAliveReused");
            sum.maxQueueDepth = std::max<std::uint64_t>(
                sum.maxQueueDepth, jsonCounter(resp.body, "maxQueueDepth"));
        }
        serveCounters(sum, rep);
    }

    double rss = peakRssMb();
    for (pid_t pid : pids)
        rss += processPeakRssMb(pid);
    rep.endToEnd["peak_rss_mb"] = rss;
    f->shutdown();
    return rep;
}

} // namespace perfbench
