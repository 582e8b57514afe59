#include "experiment.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>

#include "common/log.h"
#include "pipeline.h"
#include "workload_registry.h"

namespace mgx::sim {
namespace {

/**
 * Run body(0..n-1) on up to @p threads workers. Work is claimed from
 * one atomic counter, so any body(i) runs exactly once; callers must
 * make bodies independent and write to disjoint slots.
 */
template <typename Body>
void
parallelFor(std::size_t n, u32 threads, const Body &body)
{
    u32 workers = threads != 0 ? threads
                               : std::max(1u, std::thread::hardware_concurrency());
    workers = static_cast<u32>(
        std::min<std::size_t>(workers, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1))
            body(i);
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (u32 w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
}

} // namespace

void
ResultSet::add(RunRecord record)
{
    records_.push_back(std::move(record));
}

const RunResult *
ResultSet::find(const std::string &workload,
                const std::string &platform,
                protection::Scheme scheme) const
{
    for (const auto &r : records_) {
        if (r.key.scheme == scheme && r.key.workload == workload &&
            r.key.platform == platform)
            return &r.result;
    }
    return nullptr;
}

std::optional<double>
ResultSet::normalizedTime(const std::string &workload,
                          const std::string &platform,
                          protection::Scheme scheme) const
{
    const RunResult *np =
        find(workload, platform, protection::Scheme::NP);
    const RunResult *run = find(workload, platform, scheme);
    if (np == nullptr || run == nullptr || np->totalCycles == 0)
        return std::nullopt;
    return static_cast<double>(run->totalCycles) /
           static_cast<double>(np->totalCycles);
}

std::optional<double>
ResultSet::trafficIncrease(const std::string &workload,
                           const std::string &platform,
                           protection::Scheme scheme) const
{
    const RunResult *np =
        find(workload, platform, protection::Scheme::NP);
    const RunResult *run = find(workload, platform, scheme);
    if (np == nullptr || run == nullptr ||
        np->traffic.totalBytes() == 0)
        return std::nullopt;
    return static_cast<double>(run->traffic.totalBytes()) /
           static_cast<double>(np->traffic.totalBytes());
}

std::vector<std::string>
ResultSet::workloads() const
{
    std::vector<std::string> names;
    for (const auto &r : records_)
        if (std::find(names.begin(), names.end(), r.key.workload) ==
            names.end())
            names.push_back(r.key.workload);
    return names;
}

std::vector<std::string>
ResultSet::platforms() const
{
    std::vector<std::string> names;
    for (const auto &r : records_)
        if (std::find(names.begin(), names.end(), r.key.platform) ==
            names.end())
            names.push_back(r.key.platform);
    return names;
}

std::vector<protection::Scheme>
ResultSet::schemes() const
{
    std::vector<protection::Scheme> ss;
    for (const auto &r : records_)
        if (std::find(ss.begin(), ss.end(), r.key.scheme) == ss.end())
            ss.push_back(r.key.scheme);
    return ss;
}

SchemeComparison
ResultSet::comparison(const std::string &workload,
                      const std::string &platform) const
{
    SchemeComparison cmp;
    for (const auto &r : records_)
        if (r.key.workload == workload && r.key.platform == platform)
            cmp.results[r.key.scheme] = r.result;
    if (cmp.results.empty())
        fatal("ResultSet has no runs of '%s' on '%s'",
              workload.c_str(), platform.c_str());
    return cmp;
}

Experiment &
Experiment::workload(const std::string &name)
{
    entries_.push_back({name, false, {}});
    return *this;
}

Experiment &
Experiment::workloads(const std::vector<std::string> &names)
{
    for (const auto &n : names)
        workload(n);
    return *this;
}

Experiment &
Experiment::trace(const std::string &label, core::Trace trace)
{
    entries_.push_back({label, true, std::move(trace)});
    return *this;
}

Experiment &
Experiment::platform(const Platform &p)
{
    platforms_.push_back(p);
    return *this;
}

Experiment &
Experiment::platforms(const std::vector<Platform> &ps)
{
    platforms_.insert(platforms_.end(), ps.begin(), ps.end());
    return *this;
}

Experiment &
Experiment::schemes(const std::vector<protection::Scheme> &ss)
{
    schemes_ = ss;
    return *this;
}

Experiment &
Experiment::config(const protection::ProtectionConfig &cfg)
{
    config_ = cfg;
    return *this;
}

Experiment &
Experiment::threads(u32 n)
{
    threads_ = n;
    return *this;
}

Experiment &
Experiment::pipelined(bool on)
{
    pipelined_ = on;
    return *this;
}

ResultSet
Experiment::run() const
{
    const std::vector<protection::Scheme> schemes =
        schemes_.empty() ? allSchemes() : schemes_;

    // Expand the grid: one cell per entry x platform x scheme, where
    // an entry's platforms are the declared axis or (registry
    // workloads only) its domain default.
    struct Cell
    {
        const Entry *entry;
        Platform platform;
        protection::Scheme scheme;
    };
    std::vector<Cell> cells;
    std::set<std::string> traceLabels;
    for (const auto &entry : entries_) {
        std::vector<Platform> entry_platforms = platforms_;
        if (entry_platforms.empty()) {
            if (entry.isExplicitTrace)
                fatal("experiment trace '%s' needs platforms(...); "
                      "only registry workloads have a default platform",
                      entry.label.c_str());
            entry_platforms.push_back(defaultPlatform(entry.label));
        }
        if (entry.isExplicitTrace &&
            !traceLabels.insert(entry.label).second)
            fatal("experiment has two different traces under the "
                  "label '%s'",
                  entry.label.c_str());
        for (const auto &platform : entry_platforms)
            for (protection::Scheme scheme : schemes)
                cells.push_back({&entry, platform, scheme});
    }

    // Resolve the pipelining decision and the thread budget it must
    // respect. A pipelined cell occupies two threads (engine + DRAM
    // timer), so the pool shrinks to floor(budget / 2) workers —
    // `threads` stays a true concurrency cap either way — and a
    // one-thread budget cannot pipeline at all. The automatic default
    // pipelines only a single-cell grid: with several cells the pool
    // already uses the budget, and serial cells keep scheduling out
    // of the results entirely (the pipeline stall counters are the
    // one nondeterministic RunResult field).
    const u32 budget =
        threads_ != 0
            ? threads_
            : std::max(1u, std::thread::hardware_concurrency());
    const bool pipelined =
        budget >= 2 &&
        (pipelined_.has_value() ? *pipelined_ : cells.size() == 1);
    const u32 replayWorkers = pipelined ? budget / 2 : budget;

    // Simulate every cell on fresh per-cell state, pulling phases from
    // its own fresh kernel (or the caller's explicit trace), so a cell
    // is deterministic whatever the scheduling. Pipelined cells build
    // the same source on their engine thread, consume the identical
    // stream and differ only in their scheduling-dependent pipeline
    // diagnostics.
    std::vector<RunResult> results(cells.size());
    parallelFor(cells.size(), replayWorkers, [&](std::size_t i) {
        const Cell &cell = cells[i];
        std::unique_ptr<core::Kernel> kernel;
        const auto makeSource =
            [&]() -> std::unique_ptr<core::PhaseSource> {
            if (cell.entry->isExplicitTrace)
                return std::make_unique<core::TracePhaseSource>(
                    cell.entry->explicitTrace);
            kernel = makeKernel(cell.entry->label, cell.platform);
            return kernel->stream();
        };

        protection::ProtectionConfig cfg = config_;
        cfg.scheme = cell.scheme;
        if (pipelined) {
            results[i] = runPipelined(makeSource, cfg, cell.platform);
            return;
        }
        std::unique_ptr<core::PhaseSource> source = makeSource();
        dram::DramSystem dram(cell.platform.dram);
        protection::ProtectionEngine engine(cfg, &dram);
        PerfModel model(&engine, cell.platform.clockMhz);
        results[i] = model.run(*source);
    });

    ResultSet rs;
    for (std::size_t i = 0; i < cells.size(); ++i)
        rs.add({{cells[i].entry->label, cells[i].platform.name,
                 cells[i].scheme},
                results[i]});
    return rs;
}

} // namespace mgx::sim
