#include "proxy.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/failpoint.h"

namespace mgx::fleet {
namespace {

// The proxy's backend boundaries are failpoints so chaos runs can
// attack the fleet layer itself, not just the workers under it.
failpoint::Point &fpBackendConnect =
    failpoint::Point::get("fleet.backend.connect");
failpoint::Point &fpBackendReset =
    failpoint::Point::get("fleet.backend.reset");

/// Sweeps over the ring order before a /run answers 503.
constexpr int kFailoverPasses = 3;

/// One backend attempt's budget.
constexpr int kBackendTimeoutMs = 120000;

/// Workers a /run may lose before it is answered 502 as a poison
/// request: one death may be a coincidence, two in a row are the
/// request's doing, and a third attempt would only kill another.
constexpr int kPoisonLimit = 2;

std::string
trimmed(std::string s)
{
    while (!s.empty() &&
           (s.back() == '\n' || s.back() == '\r' || s.back() == ' '))
        s.pop_back();
    return s;
}

} // namespace

Proxy::Proxy(ProxyOptions opts, BackendDirectory *directory)
    : opts_(std::move(opts)), directory_(directory),
      door_(opts_, metrics_,
            [this](const serve::HttpRequest &req, int *status) {
                return handleRequest(req, status);
            })
{
}

Proxy::~Proxy()
{
    shutdown();
}

void
Proxy::start()
{
    // Fill the ring only before the first start: the front door's
    // workers read it without a lock.
    if (ring_.size() == 0)
        for (const auto &name : directory_->backendNames())
            ring_.add(name);
    door_.start();
}

void
Proxy::shutdown()
{
    door_.shutdown();
    std::lock_guard<std::mutex> lock(poolmu_);
    pool_.clear(); // closes every pooled backend connection
}

std::string
Proxy::routingKey(const serve::HttpRequest &req)
{
    // The cell set, normalized: sorted workloads plus the platform /
    // scheme axes. Requests that resolve to the same cells hash to
    // the same worker regardless of parameter order, which is what
    // keeps one cell's singleflight on one worker.
    std::vector<std::string> workloads =
        req.queryValues("workload");
    std::sort(workloads.begin(), workloads.end());
    std::string key = "w:";
    for (const auto &w : workloads) {
        key += w;
        key += ';';
    }
    key += "|p:" + req.queryValue("platforms").value_or("");
    key += "|s:" + req.queryValue("schemes").value_or("");
    return key;
}

std::vector<std::string>
Proxy::candidateOrder(const std::string &key) const
{
    std::vector<std::string> order = ring_.route(key);
    // In-rotation workers first, out-of-rotation ones as a last
    // resort (probe state lags reality, and a "down" worker that is
    // actually up beats a 503). The partition is stable, so ring
    // order — and with it ownership — stays deterministic within
    // each class, and it asks the concurrently updated directory
    // exactly once per backend.
    std::stable_partition(order.begin(), order.end(),
                          [this](const std::string &name) {
                              return directory_->inRotation(name);
                          });
    return order;
}

std::unique_ptr<serve::ClientConnection>
Proxy::checkoutConnection(const std::string &name)
{
    {
        std::lock_guard<std::mutex> lock(poolmu_);
        for (auto &[n, conns] : pool_) {
            if (n != name || conns.empty())
                continue;
            auto conn = std::move(conns.back());
            conns.pop_back();
            return conn;
        }
    }
    return std::make_unique<serve::ClientConnection>(
        directory_->address(name));
}

void
Proxy::checkinConnection(
    const std::string &name,
    std::unique_ptr<serve::ClientConnection> conn)
{
    if (!conn || !conn->connected())
        return;
    std::lock_guard<std::mutex> lock(poolmu_);
    for (auto &[n, conns] : pool_) {
        if (n != name)
            continue;
        if (conns.size() < 2) // small pool bounds idle backend FDs
            conns.push_back(std::move(conn));
        return;
    }
    pool_.emplace_back(name, decltype(pool_)::value_type::second_type{});
    pool_.back().second.push_back(std::move(conn));
}

Proxy::BackendAttempt
Proxy::fetchFromBackend(const std::string &name,
                        const std::string &target)
{
    BackendAttempt a;
    if (fpBackendConnect.fire()) {
        // Simulated connect-refused at the fleet boundary.
        a.failure = serve::GetFailure::Connect;
        a.error = "injected backend connect failure (" + name + ")";
        return a;
    }
    auto conn = checkoutConnection(name);
    a.ok = conn->get(target, &a.response, &a.error,
                     kBackendTimeoutMs, &a.failure);
    if (a.ok && fpBackendReset.fire()) {
        // Simulated worker death after it sent part of the body: the
        // full response is discarded — the client must never see a
        // byte of it — and the attempt reports a partial response.
        a = BackendAttempt{};
        a.failure = serve::GetFailure::PartialResponse;
        a.error =
            "injected backend mid-response reset (" + name + ")";
        conn->close();
        return a;
    }
    if (a.ok) {
        if (conn->lastReused())
            metrics_.backendReused.fetch_add(
                1, std::memory_order_relaxed);
        checkinConnection(name, std::move(conn));
    }
    return a;
}

std::string
Proxy::handleRun(const serve::HttpRequest &req, int *status_out)
{
    metrics_.routed.fetch_add(1, std::memory_order_relaxed);
    const std::string key = routingKey(req);
    const std::vector<std::string> order = candidateOrder(key);
    if (order.empty()) {
        metrics_.noBackend.fetch_add(1, std::memory_order_relaxed);
        *status_out = 503;
        return serve::jsonError("no workers configured");
    }

    std::string last_error = "no attempt made";
    int attempts = 0;
    int lost = 0; // attempts that reached a worker and got no answer
    for (int pass = 0; pass < kFailoverPasses; ++pass) {
        if (pass > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts_.failoverPauseMs));
        for (std::size_t i = 0; i < order.size(); ++i) {
            if (attempts > 0)
                metrics_.failovers.fetch_add(
                    1, std::memory_order_relaxed);
            ++attempts;
            BackendAttempt a = fetchFromBackend(order[i], req.target);
            if (a.ok && a.response.status == 503) {
                // The worker is draining: it answered, but another
                // worker can do better.
                a.ok = false;
                a.error = "backend answered 503";
            }
            if (a.ok) {
                *status_out = a.response.status;
                return a.response.body;
            }
            metrics_.backendErrors.fetch_add(
                1, std::memory_order_relaxed);
            if (a.failure == serve::GetFailure::PartialResponse)
                metrics_.partialResponses.fetch_add(
                    1, std::memory_order_relaxed);
            last_error = a.error;
            if ((a.failure == serve::GetFailure::Recv ||
                 a.failure == serve::GetFailure::PartialResponse) &&
                ++lost == kPoisonLimit) {
                metrics_.poisonRequests.fetch_add(
                    1, std::memory_order_relaxed);
                *status_out = 502;
                return serve::jsonError(
                    "request lost " + std::to_string(lost) +
                    " workers without an answer (last: " + last_error +
                    "); not retried");
            }
        }
    }
    metrics_.noBackend.fetch_add(1, std::memory_order_relaxed);
    *status_out = 503;
    return serve::jsonError("no worker could serve the request (last: " +
                            last_error + "); retry");
}

std::string
Proxy::statsJson() const
{
    const auto L = [](const std::atomic<u64> &a) {
        return std::to_string(a.load(std::memory_order_relaxed));
    };
    std::string out = "{\n  \"schema\": \"mgx-fleetstats-v1\",\n";
    out += "  \"proxy\": {";
    out += "\"accepted\": " + L(metrics_.accepted);
    out += ", \"rejected\": " + L(metrics_.rejected);
    out += ", \"served\": " + L(metrics_.served);
    out += ", \"failed\": " + L(metrics_.failed);
    out += ", \"badRequests\": " + L(metrics_.badRequests);
    out += ", \"routed\": " + L(metrics_.routed);
    out += ", \"failovers\": " + L(metrics_.failovers);
    out += ", \"backendErrors\": " + L(metrics_.backendErrors);
    out += ", \"partialResponses\": " + L(metrics_.partialResponses);
    out += ", \"noBackend\": " + L(metrics_.noBackend);
    out += ", \"poisonRequests\": " + L(metrics_.poisonRequests);
    out += ", \"keepAliveReused\": " + L(metrics_.keepAliveReused);
    out += ", \"backendReused\": " + L(metrics_.backendReused);
    out += "},\n";
    out += "  \"workers\": " + directory_->statusJson() + ",\n";

    // Live per-worker counters, best effort: a worker that cannot
    // answer right now reports null rather than failing the whole
    // document.
    out += "  \"workerStats\": {";
    bool first = true;
    for (const auto &name : directory_->backendNames()) {
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + name + "\": ";
        serve::HttpResponse resp;
        std::string error;
        if (directory_->inRotation(name) &&
            serve::httpGet(directory_->address(name), "/stats",
                           &resp, &error, 2000) &&
            resp.status == 200)
            out += trimmed(resp.body);
        else
            out += "null";
    }
    out += "}\n}\n";
    return out;
}

std::string
Proxy::handleRequest(const serve::HttpRequest &req, int *status_out)
{
    if (req.method != "GET") {
        *status_out = 405;
        return serve::jsonError("only GET is supported");
    }
    if (req.path == "/run")
        return handleRun(req, status_out);
    if (req.path == "/stats") {
        *status_out = 200;
        return statsJson();
    }
    if (req.path == "/healthz") {
        const auto names = directory_->backendNames();
        std::size_t in_rotation = 0;
        for (const auto &n : names)
            if (directory_->inRotation(n))
                ++in_rotation;
        *status_out = 200;
        std::string body = "{\"ok\": ";
        body += in_rotation > 0 ? "true" : "false";
        body += ", \"workers\": " + std::to_string(names.size());
        body +=
            ", \"inRotation\": " + std::to_string(in_rotation);
        body += ", \"draining\": ";
        body += stopping() ? "true" : "false";
        body += "}\n";
        return body;
    }
    if (req.path == "/shutdown") {
        *status_out = 200;
        requestShutdown();
        return "{\"shutdown\": true}\n";
    }
    *status_out = 404;
    return serve::jsonError("no such endpoint: " + req.path);
}

} // namespace mgx::fleet
