#include "front_door.h"

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

namespace mgx::serve {
namespace {

// The front door's socket boundaries are failpoints too, registered at
// load so failpoint::all() sees the complete set (see
// common/failpoint.h for the arming grammar).
failpoint::Point &fpAcceptFail =
    failpoint::Point::get("serve.accept.fail");
failpoint::Point &fpRecvFail =
    failpoint::Point::get("serve.recv.fail");
failpoint::Point &fpSendFail =
    failpoint::Point::get("serve.send.fail");

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

void
FrontDoorMetrics::noteQueueDepth(u64 depth)
{
    queueDepth.store(depth, std::memory_order_relaxed);
    u64 seen = maxQueueDepth.load(std::memory_order_relaxed);
    while (depth > seen &&
           !maxQueueDepth.compare_exchange_weak(
               seen, depth, std::memory_order_relaxed))
        ;
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

FrontDoor::FrontDoor(FrontDoorOptions opts, FrontDoorMetrics &metrics,
                     Handler handler)
    : opts_(std::move(opts)), metrics_(metrics),
      handler_(std::move(handler))
{
    if (opts_.workers == 0)
        opts_.workers = 1;
    if (opts_.admissionCapacity == 0)
        opts_.admissionCapacity = 1;
}

FrontDoor::~FrontDoor()
{
    shutdown();
}

std::string
FrontDoor::addressDescription() const
{
    if (!opts_.listen.unixPath.empty())
        return "unix:" + opts_.listen.unixPath;
    return opts_.listen.host + ":" + std::to_string(boundPort_);
}

void
FrontDoor::start()
{
    if (started_)
        return;

    if (!opts_.listen.unixPath.empty()) {
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (listenFd_ < 0)
            fatal("listen: socket: %s", std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opts_.listen.unixPath.size() >= sizeof addr.sun_path)
            fatal("listen: unix path too long: '%s'",
                  opts_.listen.unixPath.c_str());
        std::strncpy(addr.sun_path, opts_.listen.unixPath.c_str(),
                     sizeof addr.sun_path - 1);
        ::unlink(opts_.listen.unixPath.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0)
            fatal("listen: bind '%s': %s",
                  opts_.listen.unixPath.c_str(), std::strerror(errno));
    } else {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (listenFd_ < 0)
            fatal("listen: socket: %s", std::strerror(errno));
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(opts_.listen.port);
        if (::inet_pton(AF_INET, opts_.listen.host.c_str(),
                        &addr.sin_addr) != 1)
            fatal("listen: bad host '%s'",
                  opts_.listen.host.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0)
            fatal("listen: bind %s:%u: %s",
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
        fatal("listen: listen: %s", std::strerror(errno));

    started_ = true;
    acceptor_ = std::thread([this] { acceptLoop(); });
    for (u32 i = 0; i < opts_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

void
FrontDoor::requestShutdown()
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
FrontDoor::shutdown()
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
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (!opts_.listen.unixPath.empty())
        ::unlink(opts_.listen.unixPath.c_str());
    joined_ = true;
}

bool
FrontDoor::stopping() const
{
    std::lock_guard<std::mutex> lock(qmu_);
    return draining_;
}

void
FrontDoor::acceptLoop()
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
FrontDoor::workerLoop()
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
FrontDoor::handleConnection(int fd)
{
    std::string carry;
    bool first = true;
    while (serveOneRequest(fd, &carry, first))
        first = false;
    ::close(fd);
}

bool
FrontDoor::serveOneRequest(int fd, std::string *carry, bool first)
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
        // connection is shed without reading the rest.
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
        body = handler_(parser.request(), &status);
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
    // one request per connection.
    bool keep = false;
    if (!stopping()) {
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

void
FrontDoor::sendAll(int fd, const std::string &data) const
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
