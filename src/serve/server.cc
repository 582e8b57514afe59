#include "server.h"

#include <chrono>

#include "common/log.h"
#include "sim/report.h"
#include "sim/workload_registry.h"

namespace mgx::serve {

std::string
CellKey::key() const
{
    return workload + "|" + platform.name + "|" +
           protection::schemeName(scheme);
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), cells_(opts_.resultMemoCapacity),
      door_(opts_, metrics_,
            [this](const HttpRequest &req, int *status) {
                return handleRequest(req, status);
            })
{
}

Server::~Server()
{
    shutdown();
}

void
Server::start()
{
    if (!runner_) {
        runner_ = [this](const CellKey &cell,
                         std::chrono::steady_clock::time_point deadline) {
            return runCellWithEngine(cell, deadline);
        };
    }
    door_.start();
}

ServeMetrics::Snapshot
Server::metricsSnapshot() const
{
    ServeMetrics::Snapshot s = metrics_.snapshot();
    s.draining = stopping();
    return s;
}

void
Server::setCellRunnerForTest(CellRunner runner)
{
    runner_ = std::move(runner);
}

std::string
Server::handleRequest(const HttpRequest &req, int *status_out)
{
    if (req.method != "GET") {
        *status_out = 405;
        return jsonError("only GET is supported");
    }
    if (req.path == "/run")
        return handleRun(req, status_out);
    if (req.path == "/stats") {
        *status_out = 200;
        return statsJson(metricsSnapshot());
    }
    if (req.path == "/healthz") {
        // Liveness, not readiness: 200 whenever the daemon can answer
        // at all. Draining is reported, not treated as death.
        *status_out = 200;
        return std::string("{\"ok\": true, \"draining\": ") +
               (stopping() ? "true" : "false") + "}\n";
    }
    if (req.path == "/shutdown") {
        *status_out = 200;
        requestShutdown();
        return "{\"shutdown\": true}\n";
    }
    *status_out = 404;
    return jsonError("no such endpoint: " + req.path);
}

std::string
Server::handleRun(const HttpRequest &req, int *status_out)
{
    std::vector<std::string> workloads;
    for (const auto &v : req.queryValues("workload"))
        for (auto &w : sim::splitCommas(v))
            workloads.push_back(w);
    if (workloads.empty()) {
        *status_out = 400;
        return jsonError("missing workload= parameter");
    }

    for (const auto &w : workloads) {
        std::string error;
        if (!sim::checkWorkload(w, &error)) {
            *status_out = 400;
            return jsonError(error);
        }
    }

    std::vector<sim::Platform> platforms;
    if (auto p = req.queryValue("platforms")) {
        for (const auto &name : sim::splitCommas(*p)) {
            sim::Platform platform;
            if (!sim::platformByName(name, platform)) {
                *status_out = 400;
                return jsonError("unknown platform '" + name +
                                 "' (expected cloud, edge, graph or "
                                 "genome)");
            }
            platforms.push_back(platform);
        }
    }

    std::vector<protection::Scheme> schemes;
    if (auto s = req.queryValue("schemes")) {
        for (const auto &name : sim::splitCommas(*s)) {
            protection::Scheme scheme;
            if (!sim::schemeByName(name, scheme)) {
                *status_out = 400;
                return jsonError("unknown scheme '" + name +
                                 "' (expected NP, MGX, MGX_VN, "
                                 "MGX_MAC or BP)");
            }
            schemes.push_back(scheme);
        }
    }
    if (schemes.empty())
        schemes = sim::allSchemes();

    // One wall-clock budget for the whole request, not per cell: the
    // client asked one question, so the question has one deadline.
    const auto deadline =
        opts_.requestDeadlineMs > 0
            ? std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(opts_.requestDeadlineMs)
            : std::chrono::steady_clock::time_point::max();

    // mgx_run's grid order (workloads x platforms x schemes, default
    // platform per workload when the axis is unset) so the assembled
    // ResultSet — and its JSON — matches the CLI byte for byte.
    sim::ResultSet rs;
    for (const auto &w : workloads) {
        std::vector<sim::Platform> cell_platforms = platforms;
        if (cell_platforms.empty())
            cell_platforms.push_back(sim::defaultPlatform(w));
        for (const auto &platform : cell_platforms) {
            for (protection::Scheme scheme : schemes) {
                CellKey cell{w, platform, scheme};
                try {
                    CellTable::Answer answer =
                        cells_.get(cell.key(), [&] {
                            metrics_.cellsRun.fetch_add(
                                1, std::memory_order_relaxed);
                            return runner_(cell, deadline);
                        });
                    if (answer.source == CellTable::Source::Kept)
                        metrics_.resultMemoHits.fetch_add(
                            1, std::memory_order_relaxed);
                    else if (answer.source == CellTable::Source::Joined)
                        metrics_.dedupCollapsed.fetch_add(
                            1, std::memory_order_relaxed);
                    rs.add(std::move(answer.record));
                } catch (const sim::DeadlineExceeded &) {
                    // The cell stopped at a chunk boundary: nothing
                    // is left running. The requests that waited on it
                    // get the same 503.
                    metrics_.deadlineExceeded.fetch_add(
                        1, std::memory_order_relaxed);
                    *status_out = 503;
                    return jsonError(
                        "deadline exceeded after " +
                        std::to_string(opts_.requestDeadlineMs) +
                        " ms");
                }
            }
        }
    }

    *status_out = 200;
    return sim::toJson(rs);
}

sim::RunRecord
Server::runCellWithEngine(const CellKey &cell,
                          std::chrono::steady_clock::time_point deadline)
{
    // One serial cell per run (threads(1) never pipelines), so the
    // record is exactly what `mgx_run --no-pipeline` computes for it.
    sim::ResultSet rs = sim::Experiment()
                            .workload(cell.workload)
                            .platform(cell.platform)
                            .schemes({cell.scheme})
                            .threads(1)
                            .deadline(deadline)
                            .run();
    if (rs.records().size() != 1)
        fatal("mgx_serve: single-cell experiment produced %zu records",
              rs.records().size());
    return rs.records()[0];
}

} // namespace mgx::serve
