#include "server.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/failpoint.h"
#include "common/log.h"
#include "sim/report.h"
#include "sim/workload_registry.h"

namespace mgx::serve {
namespace {

// The service's socket boundaries are failpoints too, registered at
// load so failpoint::all() sees the complete set (see
// common/failpoint.h for the arming grammar).
failpoint::Point &fpAcceptFail =
    failpoint::Point::get("serve.accept.fail");
failpoint::Point &fpRecvFail =
    failpoint::Point::get("serve.recv.fail");
failpoint::Point &fpSendFail =
    failpoint::Point::get("serve.send.fail");

/** The same platform vocabulary mgx_run accepts. */
bool
platformByName(const std::string &name, sim::Platform &out)
{
    if (name == "cloud")
        out = sim::cloudPlatform();
    else if (name == "edge")
        out = sim::edgePlatform();
    else if (name == "graph")
        out = sim::graphPlatform();
    else if (name == "genome")
        out = sim::genomePlatform();
    else
        return false;
    return true;
}

/** Non-fatal sibling of sim::schemeByName. */
bool
schemeByNameNoFatal(const std::string &name, protection::Scheme &out)
{
    for (protection::Scheme s : protection::kAllSchemes) {
        if (name == protection::schemeName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

std::vector<std::string>
splitCommas(const std::string &arg)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= arg.size()) {
        std::size_t pos = arg.find(',', start);
        if (pos == std::string::npos)
            pos = arg.size();
        if (pos > start)
            parts.push_back(arg.substr(start, pos - start));
        start = pos + 1;
    }
    return parts;
}

std::string
jsonError(const std::string &message)
{
    std::string escaped;
    for (char c : message) {
        if (c == '"' || c == '\\')
            escaped += '\\';
        escaped += c;
    }
    return "{\"error\": \"" + escaped + "\"}\n";
}

void
setSocketTimeout(int fd, int ms)
{
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

} // namespace

std::string
CellKey::key() const
{
    return workload + "|" + platform.name + "|" +
           protection::schemeName(scheme);
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), memo_(opts_.resultMemoCapacity)
{
    if (opts_.workers == 0)
        opts_.workers = 1;
    if (opts_.admissionCapacity == 0)
        opts_.admissionCapacity = 1;
}

Server::~Server()
{
    shutdown();
}

std::string
Server::addressDescription() const
{
    if (!opts_.listen.unixPath.empty())
        return "unix:" + opts_.listen.unixPath;
    return opts_.listen.host + ":" + std::to_string(boundPort_);
}

void
Server::start()
{
    if (started_)
        return;

    if (!runner_) {
        runner_ = [this](const CellKey &cell) {
            return runCellWithEngine(cell);
        };
    }

    if (!opts_.listen.unixPath.empty()) {
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (listenFd_ < 0)
            fatal("mgx_serve: socket: %s", std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opts_.listen.unixPath.size() >= sizeof addr.sun_path)
            fatal("mgx_serve: unix path too long: '%s'",
                  opts_.listen.unixPath.c_str());
        std::strncpy(addr.sun_path, opts_.listen.unixPath.c_str(),
                     sizeof addr.sun_path - 1);
        ::unlink(opts_.listen.unixPath.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0)
            fatal("mgx_serve: bind '%s': %s",
                  opts_.listen.unixPath.c_str(), std::strerror(errno));
    } else {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (listenFd_ < 0)
            fatal("mgx_serve: socket: %s", std::strerror(errno));
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(opts_.listen.port);
        if (::inet_pton(AF_INET, opts_.listen.host.c_str(),
                        &addr.sin_addr) != 1)
            fatal("mgx_serve: bad listen host '%s'",
                  opts_.listen.host.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0)
            fatal("mgx_serve: bind %s:%u: %s",
                  opts_.listen.host.c_str(), opts_.listen.port,
                  std::strerror(errno));
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        if (::getsockname(listenFd_,
                          reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0)
            boundPort_ = ntohs(bound.sin_port);
    }

    if (::listen(listenFd_, 64) != 0)
        fatal("mgx_serve: listen: %s", std::strerror(errno));

    started_ = true;
    acceptor_ = std::thread([this] { acceptLoop(); });
    for (u32 i = 0; i < opts_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

void
Server::requestShutdown()
{
    {
        std::lock_guard<std::mutex> lock(qmu_);
        if (draining_)
            return;
        draining_ = true;
    }
    metrics_.draining.store(true, std::memory_order_relaxed);
    qcv_.notify_all();
}

void
Server::shutdown()
{
    if (!started_ || joined_)
        return;
    requestShutdown();
    if (acceptor_.joinable())
        acceptor_.join();
    for (auto &w : workers_)
        if (w.joinable())
            w.join();
    workers_.clear();
    // Cells whose requests hit the deadline keep running detached;
    // wait for them so no engine run is torn down mid-simulation.
    // Unbounded by design — see SingleFlight::drainBackground().
    flights_.drainBackground();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (!opts_.listen.unixPath.empty())
        ::unlink(opts_.listen.unixPath.c_str());
    joined_ = true;
}

bool
Server::stopping() const
{
    std::lock_guard<std::mutex> lock(qmu_);
    return draining_;
}

ServeMetrics::Snapshot
Server::metricsSnapshot() const
{
    return metrics_.snapshot();
}

void
Server::setCellRunnerForTest(CellRunner runner)
{
    runner_ = std::move(runner);
}

void
Server::acceptLoop()
{
    while (true) {
        pollfd pfd{listenFd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 100);
        {
            std::lock_guard<std::mutex> lock(qmu_);
            if (draining_)
                return;
        }
        if (ready <= 0)
            continue;
        const int fd =
            ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0)
            continue;
        if (fpAcceptFail.fire()) {
            // Simulated transient accept failure (ECONNABORTED-like):
            // the connection is lost but the loop must keep serving.
            ::close(fd);
            continue;
        }
        metrics_.accepted.fetch_add(1, std::memory_order_relaxed);
        setSocketTimeout(fd, opts_.ioTimeoutMs);

        int turn_away = 0; // 0 = admitted, else status to answer with
        {
            std::lock_guard<std::mutex> lock(qmu_);
            if (draining_) {
                turn_away = 503;
            } else if (pending_.size() >= opts_.admissionCapacity) {
                turn_away = 429;
            } else {
                pending_.push_back(fd);
                metrics_.noteQueueDepth(pending_.size());
            }
        }
        if (turn_away == 0) {
            qcv_.notify_one();
            continue;
        }
        if (turn_away == 429)
            metrics_.rejected.fetch_add(1, std::memory_order_relaxed);
        // Answer without reading the request: the point of
        // back-pressure is that a full server does no request work.
        sendAll(fd, httpResponse(
                        turn_away, "application/json",
                        jsonError(turn_away == 429
                                      ? "admission queue full, retry"
                                      : "shutting down")));
        ::close(fd);
    }
}

void
Server::workerLoop()
{
    while (true) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock(qmu_);
            qcv_.wait(lock, [this] {
                return !pending_.empty() || draining_;
            });
            if (pending_.empty()) {
                // draining_ and nothing queued: the drain is done.
                return;
            }
            fd = pending_.front();
            pending_.pop_front();
            metrics_.noteQueueDepth(pending_.size());
        }
        metrics_.inFlight.fetch_add(1, std::memory_order_relaxed);
        handleConnection(fd);
        metrics_.inFlight.fetch_sub(1, std::memory_order_relaxed);
    }
}

void
Server::handleConnection(int fd)
{
    std::string carry;
    bool first = true;
    while (serveOneRequest(fd, &carry, first))
        first = false;
    ::close(fd);
}

bool
Server::serveOneRequest(int fd, std::string *carry, bool first)
{
    HttpRequestParser parser;
    if (!carry->empty()) {
        parser.feed(carry->data(), carry->size());
        carry->clear();
    }

    // A reused connection with nothing buffered is idle: wait for the
    // next request up to the keep-alive idle cutoff, in short poll
    // slices so a drain — or a backlog of connections waiting for a
    // worker — reclaims this thread quickly instead of letting one
    // quiet peer park it.
    if (!first &&
        parser.status() == HttpRequestParser::Status::Incomplete &&
        parser.bytesFed() == 0) {
        int waited = 0;
        bool readable = false;
        while (waited < opts_.keepAliveIdleMs) {
            {
                std::lock_guard<std::mutex> lock(qmu_);
                if (draining_ || !pending_.empty())
                    return false;
            }
            const int slice =
                std::min(50, opts_.keepAliveIdleMs - waited);
            pollfd pfd{fd, POLLIN, 0};
            const int r = ::poll(&pfd, 1, slice);
            if (r > 0) {
                readable = true;
                break;
            }
            if (r < 0 && errno != EINTR)
                return false;
            waited += slice;
        }
        if (!readable)
            return false; // idle cutoff: close to bound open FDs
    }

    bool injected_recv_fail = false;
    bool peer_eof = false;
    char buf[4096];
    while (parser.status() == HttpRequestParser::Status::Incomplete) {
        if (fpRecvFail.fire()) {
            injected_recv_fail = true;
            break; // simulated mid-request connection loss
        }
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n == 0)
            peer_eof = true;
        if (n <= 0)
            break; // peer closed, timed out, or errored
        parser.feed(buf, static_cast<std::size_t>(n));
    }

    if (parser.status() != HttpRequestParser::Status::Complete) {
        // A peer that closed (real EOF) without sending anything is a
        // clean close — the normal end of a kept-alive connection —
        // not a malformed request. A peer that went silent until the
        // receive timeout still gets the 400 below.
        if (peer_eof && parser.bytesFed() == 0 && !injected_recv_fail)
            return false;
        metrics_.badRequests.fetch_add(1, std::memory_order_relaxed);
        if (parser.tooLarge())
            metrics_.oversized.fetch_add(1, std::memory_order_relaxed);
        // An oversized request gets a clean 431 instead of a generic
        // 400: the peer is told exactly why it was refused, and the
        // daemon sheds the connection without reading the rest.
        sendAll(fd, httpResponse(
                        parser.tooLarge() ? 431 : 400,
                        "application/json",
                        jsonError(parser.error().empty()
                                      ? "incomplete request"
                                      : parser.error())));
        return false;
    }

    if (!first)
        metrics_.keepAliveReused.fetch_add(1,
                                           std::memory_order_relaxed);

    int status = 500;
    std::string body;
    try {
        body = handleRequest(parser.request(), &status);
    } catch (const std::exception &e) {
        status = 500;
        body = jsonError(e.what());
    }
    if (status < 400)
        metrics_.served.fetch_add(1, std::memory_order_relaxed);
    else if (status >= 500)
        metrics_.failed.fetch_add(1, std::memory_order_relaxed);
    else
        metrics_.badRequests.fetch_add(1, std::memory_order_relaxed);

    // Keep the connection only when the peer explicitly asked to —
    // legacy clients send `Connection: close` (or nothing) and get
    // the old one-request-per-connection behavior unchanged.
    bool keep = false;
    if (opts_.keepAlive && !stopping()) {
        if (auto conn = parser.request().header("connection")) {
            std::string v = *conn;
            std::transform(v.begin(), v.end(), v.begin(),
                           [](unsigned char c) {
                               return static_cast<char>(
                                   std::tolower(c));
                           });
            keep = v == "keep-alive";
        }
    }
    sendAll(fd, httpResponse(status, "application/json", body, {},
                             keep));
    if (keep)
        *carry = parser.surplus();
    return keep;
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
        return statsJson(metrics_.snapshot());
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

bool
Server::validateWorkload(const std::string &name, std::string *error)
{
    if (std::optional<std::string> known = validation_.get(name)) {
        if (error)
            *error = *known;
        return known->empty();
    }
    // Check outside the memo's lock; two threads validating one name
    // is harmless. A valid name leaves the message empty.
    std::string message;
    sim::checkWorkload(name, &message);
    validation_.put(name, message);
    if (error)
        *error = message;
    return message.empty();
}

std::string
Server::handleRun(const HttpRequest &req, int *status_out)
{
    std::vector<std::string> workloads;
    for (const auto &v : req.queryValues("workload"))
        for (auto &w : splitCommas(v))
            workloads.push_back(w);
    if (workloads.empty()) {
        *status_out = 400;
        return jsonError("missing workload= parameter");
    }

    std::string error;
    for (const auto &w : workloads) {
        if (!validateWorkload(w, &error)) {
            *status_out = 400;
            return jsonError(error);
        }
    }

    std::vector<sim::Platform> platforms;
    if (auto p = req.queryValue("platforms")) {
        for (const auto &name : splitCommas(*p)) {
            sim::Platform platform;
            if (!platformByName(name, platform)) {
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
        for (const auto &name : splitCommas(*s)) {
            protection::Scheme scheme;
            if (!schemeByNameNoFatal(name, scheme)) {
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
    const bool deadlined = opts_.requestDeadlineMs > 0;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(opts_.requestDeadlineMs);

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
                // Warm repeat: the memo'd record is bitwise what a
                // re-run would produce, so skip the engine entirely.
                if (auto memo = memo_.get(cell.key())) {
                    metrics_.resultMemoHits.fetch_add(
                        1, std::memory_order_relaxed);
                    rs.add(std::move(*memo));
                    continue;
                }
                // The cell (not &: runFor's leader lambda outlives
                // this frame when the deadline expires first).
                const auto body = [this, cell]() -> sim::RunRecord {
                    metrics_.cellsRun.fetch_add(
                        1, std::memory_order_relaxed);
                    return runner_(cell);
                };
                SingleFlight<sim::RunRecord>::Outcome outcome;
                if (deadlined) {
                    const auto left =
                        std::chrono::duration_cast<
                            std::chrono::milliseconds>(
                            deadline -
                            std::chrono::steady_clock::now());
                    outcome = flights_.runFor(
                        cell.key(), body,
                        std::max(left,
                                 std::chrono::milliseconds(0)));
                    if (!outcome.value) {
                        // Deadline hit. The cell finishes on its
                        // background thread; a retry joins it
                        // instead of paying for a second run.
                        metrics_.deadlineExceeded.fetch_add(
                            1, std::memory_order_relaxed);
                        *status_out = 503;
                        return jsonError(
                            "deadline exceeded after " +
                            std::to_string(
                                opts_.requestDeadlineMs) +
                            " ms (cell " + cell.key() +
                            " still running; retry to join it)");
                    }
                } else {
                    outcome = flights_.run(cell.key(), body);
                }
                if (!outcome.leader)
                    metrics_.dedupCollapsed.fetch_add(
                        1, std::memory_order_relaxed);
                rs.add(*outcome.value);
                memo_.put(cell.key(), *outcome.value);
            }
        }
    }

    *status_out = 200;
    return sim::toJson(rs);
}

sim::RunRecord
Server::runCellWithEngine(const CellKey &cell)
{
    // One serial cell per run (threads(1) never pipelines), so the
    // record is exactly what `mgx_run --no-pipeline` computes for it.
    sim::ResultSet rs = sim::Experiment()
                            .workload(cell.workload)
                            .platform(cell.platform)
                            .schemes({cell.scheme})
                            .threads(1)
                            .run();
    if (rs.records().size() != 1)
        fatal("mgx_serve: single-cell experiment produced %zu records",
              rs.records().size());
    return rs.records()[0];
}

void
Server::sendAll(int fd, const std::string &data) const
{
    if (fpSendFail.fire())
        return; // simulated peer death before the response went out
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return; // peer went away; nothing useful to do
        }
        sent += static_cast<std::size_t>(n);
    }
}

} // namespace mgx::serve
