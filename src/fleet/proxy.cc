#include "proxy.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/failpoint.h"
#include "common/log.h"

namespace mgx::fleet {
namespace {

// The proxy's backend boundaries are failpoints so chaos runs can
// attack the fleet layer itself, not just the workers under it.
failpoint::Point &fpBackendConnect =
    failpoint::Point::get("fleet.backend.connect");
failpoint::Point &fpBackendReset =
    failpoint::Point::get("fleet.backend.reset");

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

std::string
trimmed(std::string s)
{
    while (!s.empty() &&
           (s.back() == '\n' || s.back() == '\r' || s.back() == ' '))
        s.pop_back();
    return s;
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

Proxy::Proxy(ProxyOptions opts, BackendDirectory *directory)
    : opts_(std::move(opts)), directory_(directory),
      ring_(opts_.ringVnodes)
{
    if (opts_.workers == 0)
        opts_.workers = 1;
    if (opts_.admissionCapacity == 0)
        opts_.admissionCapacity = 1;
}

Proxy::~Proxy()
{
    shutdown();
}

std::string
Proxy::addressDescription() const
{
    if (!opts_.listen.unixPath.empty())
        return "unix:" + opts_.listen.unixPath;
    return opts_.listen.host + ":" + std::to_string(boundPort_);
}

void
Proxy::start()
{
    if (started_)
        return;

    for (const auto &name : directory_->backendNames())
        ring_.add(name);

    if (!opts_.listen.unixPath.empty()) {
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (listenFd_ < 0)
            fatal("mgx_fleet: socket: %s", std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opts_.listen.unixPath.size() >= sizeof addr.sun_path)
            fatal("mgx_fleet: unix path too long: '%s'",
                  opts_.listen.unixPath.c_str());
        std::strncpy(addr.sun_path, opts_.listen.unixPath.c_str(),
                     sizeof addr.sun_path - 1);
        ::unlink(opts_.listen.unixPath.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0)
            fatal("mgx_fleet: bind '%s': %s",
                  opts_.listen.unixPath.c_str(),
                  std::strerror(errno));
    } else {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (listenFd_ < 0)
            fatal("mgx_fleet: socket: %s", std::strerror(errno));
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(opts_.listen.port);
        if (::inet_pton(AF_INET, opts_.listen.host.c_str(),
                        &addr.sin_addr) != 1)
            fatal("mgx_fleet: bad listen host '%s'",
                  opts_.listen.host.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0)
            fatal("mgx_fleet: bind %s:%u: %s",
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
        fatal("mgx_fleet: listen: %s", std::strerror(errno));

    started_ = true;
    acceptor_ = std::thread([this] { acceptLoop(); });
    for (u32 i = 0; i < opts_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

void
Proxy::requestShutdown()
{
    {
        std::lock_guard<std::mutex> lock(qmu_);
        if (draining_)
            return;
        draining_ = true;
    }
    qcv_.notify_all();
}

void
Proxy::shutdown()
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
    // Hedge losers may still be in flight; they reference this
    // object, so outlive them before tearing anything down.
    while (bgOps_.load(std::memory_order_relaxed) != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (!opts_.listen.unixPath.empty())
        ::unlink(opts_.listen.unixPath.c_str());
    {
        std::lock_guard<std::mutex> lock(poolmu_);
        pool_.clear(); // closes every pooled backend connection
    }
    joined_ = true;
}

bool
Proxy::stopping() const
{
    std::lock_guard<std::mutex> lock(qmu_);
    return draining_;
}

void
Proxy::acceptLoop()
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
        metrics_.accepted.fetch_add(1, std::memory_order_relaxed);
        setSocketTimeout(fd, opts_.ioTimeoutMs);

        int turn_away = 0;
        {
            std::lock_guard<std::mutex> lock(qmu_);
            if (draining_) {
                turn_away = 503;
            } else if (pending_.size() >= opts_.admissionCapacity) {
                turn_away = 429;
            } else {
                pending_.push_back(fd);
            }
        }
        if (turn_away == 0) {
            qcv_.notify_one();
            continue;
        }
        if (turn_away == 429)
            metrics_.rejected.fetch_add(1,
                                        std::memory_order_relaxed);
        sendAll(fd, serve::httpResponse(
                        turn_away, "application/json",
                        jsonError(turn_away == 429
                                      ? "proxy admission queue full, "
                                        "retry"
                                      : "shutting down")));
        ::close(fd);
    }
}

void
Proxy::workerLoop()
{
    while (true) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock(qmu_);
            qcv_.wait(lock, [this] {
                return !pending_.empty() || draining_;
            });
            if (pending_.empty())
                return;
            fd = pending_.front();
            pending_.pop_front();
        }
        handleConnection(fd);
    }
}

void
Proxy::handleConnection(int fd)
{
    std::string carry;
    bool first = true;
    while (serveOneRequest(fd, &carry, first))
        first = false;
    ::close(fd);
}

bool
Proxy::serveOneRequest(int fd, std::string *carry, bool first)
{
    serve::HttpRequestParser parser;
    if (!carry->empty()) {
        parser.feed(carry->data(), carry->size());
        carry->clear();
    }

    if (!first &&
        parser.status() ==
            serve::HttpRequestParser::Status::Incomplete &&
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
            return false;
    }

    char buf[4096];
    while (parser.status() ==
           serve::HttpRequestParser::Status::Incomplete) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        parser.feed(buf, static_cast<std::size_t>(n));
    }

    if (parser.status() !=
        serve::HttpRequestParser::Status::Complete) {
        if (parser.bytesFed() == 0)
            return false; // clean close
        metrics_.badRequests.fetch_add(1,
                                       std::memory_order_relaxed);
        sendAll(fd,
                serve::httpResponse(
                    parser.tooLarge() ? 431 : 400,
                    "application/json",
                    jsonError(parser.error().empty()
                                  ? "incomplete request"
                                  : parser.error())));
        return false;
    }

    if (!first)
        metrics_.keepAliveReused.fetch_add(
            1, std::memory_order_relaxed);

    int status = 500;
    std::string content_type = "application/json";
    std::string body;
    try {
        body = handleRequest(parser.request(), &status,
                             &content_type);
    } catch (const std::exception &e) {
        status = 500;
        body = jsonError(e.what());
    }
    if (status < 400)
        metrics_.served.fetch_add(1, std::memory_order_relaxed);
    else if (status >= 500)
        metrics_.failed.fetch_add(1, std::memory_order_relaxed);
    else
        metrics_.badRequests.fetch_add(1,
                                       std::memory_order_relaxed);

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
    sendAll(fd, serve::httpResponse(status, content_type, body, {},
                                    keep));
    if (keep)
        *carry = parser.surplus();
    return keep;
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
                     opts_.backendTimeoutMs, &a.failure);
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

Proxy::BackendAttempt
Proxy::fetchWithHedge(const std::vector<std::string> &order,
                      std::size_t primary, const std::string &target)
{
    struct State
    {
        std::mutex mu;
        std::condition_variable cv;
        int outstanding = 0;
        bool haveOk = false;
        bool okFromHedge = false;
        BackendAttempt ok;
        BackendAttempt lastFail;
    };
    auto st = std::make_shared<State>();

    const auto launch = [this, st, target](const std::string &name,
                                           bool is_hedge) {
        {
            std::lock_guard<std::mutex> lock(st->mu);
            ++st->outstanding;
        }
        bgOps_.fetch_add(1, std::memory_order_relaxed);
        std::thread([this, st, target, name, is_hedge] {
            BackendAttempt a = fetchFromBackend(name, target);
            {
                std::lock_guard<std::mutex> lock(st->mu);
                --st->outstanding;
                if (a.ok && !st->haveOk) {
                    st->haveOk = true;
                    st->okFromHedge = is_hedge;
                    st->ok = std::move(a);
                } else if (!a.ok) {
                    st->lastFail = std::move(a);
                }
            }
            st->cv.notify_all();
            bgOps_.fetch_sub(1, std::memory_order_relaxed);
        }).detach();
    };

    launch(order[primary], false);
    std::unique_lock<std::mutex> lock(st->mu);
    st->cv.wait_for(lock, std::chrono::milliseconds(opts_.hedgeMs),
                    [&] {
                        return st->haveOk || st->outstanding == 0;
                    });
    if (!st->haveOk && st->outstanding > 0 &&
        primary + 1 < order.size()) {
        // The owner is slow; race the next candidate against it.
        metrics_.hedgesLaunched.fetch_add(1,
                                          std::memory_order_relaxed);
        lock.unlock();
        launch(order[primary + 1], true);
        lock.lock();
    }
    st->cv.wait(lock, [&] {
        return st->haveOk || st->outstanding == 0;
    });
    if (st->haveOk) {
        if (st->okFromHedge)
            metrics_.hedgeWins.fetch_add(1,
                                         std::memory_order_relaxed);
        return st->ok;
    }
    return st->lastFail;
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
        return jsonError("no workers configured");
    }

    std::string last_error = "no attempt made";
    int attempts = 0;
    for (int pass = 0; pass < std::max(1, opts_.failoverPasses);
         ++pass) {
        if (pass > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts_.failoverPauseMs));
        for (std::size_t i = 0; i < order.size(); ++i) {
            if (attempts > 0)
                metrics_.failovers.fetch_add(
                    1, std::memory_order_relaxed);
            ++attempts;
            BackendAttempt a =
                (opts_.hedgeMs > 0 && attempts == 1 &&
                 order.size() > 1)
                    ? fetchWithHedge(order, i, req.target)
                    : fetchFromBackend(order[i], req.target);
            if (a.ok && a.response.status == 503) {
                // The worker is draining (or its deadline tripped):
                // it answered, but another worker can do better.
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
        }
    }
    metrics_.noBackend.fetch_add(1, std::memory_order_relaxed);
    *status_out = 503;
    return jsonError("no worker could serve the request (last: " +
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
    out += ", \"hedgesLaunched\": " + L(metrics_.hedgesLaunched);
    out += ", \"hedgeWins\": " + L(metrics_.hedgeWins);
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
Proxy::handleRequest(const serve::HttpRequest &req, int *status_out,
                     std::string *content_type)
{
    *content_type = "application/json";
    if (req.method != "GET") {
        *status_out = 405;
        return jsonError("only GET is supported");
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
        if (shutdownHook_)
            shutdownHook_();
        requestShutdown();
        return "{\"shutdown\": true}\n";
    }
    *status_out = 404;
    return jsonError("no such endpoint: " + req.path);
}

void
Proxy::sendAll(int fd, const std::string &data) const
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return;
        }
        sent += static_cast<std::size_t>(n);
    }
}

} // namespace mgx::fleet
