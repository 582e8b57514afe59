#include "client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace mgx::serve {
namespace {

int
connectTo(const SocketAddress &addr, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error)
            *error = what + ": " + std::strerror(errno);
        return -1;
    };
    if (!addr.unixPath.empty()) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            return fail("socket");
        sockaddr_un sa{};
        sa.sun_family = AF_UNIX;
        if (addr.unixPath.size() >= sizeof sa.sun_path) {
            ::close(fd);
            if (error)
                *error = "unix path too long: " + addr.unixPath;
            return -1;
        }
        std::strncpy(sa.sun_path, addr.unixPath.c_str(),
                     sizeof sa.sun_path - 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                      sizeof sa) != 0) {
            const int r = fail("connect " + addr.unixPath);
            ::close(fd);
            return r;
        }
        return fd;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return fail("socket");
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(addr.port);
    if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
        ::close(fd);
        if (error)
            *error = "bad host: " + addr.host;
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&sa), sizeof sa) !=
        0) {
        const int r = fail("connect " + addr.host + ":" +
                           std::to_string(addr.port));
        ::close(fd);
        return r;
    }
    return fd;
}

void
setFailure(GetFailure *failure, GetFailure f)
{
    if (failure)
        *failure = f;
}

/**
 * Issue one GET on an already-connected @p fd and read the response.
 * @p keep_alive selects the Connection request header. On success
 * @p reusable_out says whether the socket is still good for another
 * request (Content-Length-framed response that did not ask to close).
 * Classifies failures; never parses a truncated body as success.
 */
bool
requestOnFd(int fd, const std::string &target, bool keep_alive,
            HttpResponse *out, std::string *error, int timeout_ms,
            GetFailure *failure, bool *reusable_out)
{
    setFailure(failure, GetFailure::None);
    if (reusable_out)
        *reusable_out = false;

    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

    const std::string request =
        "GET " + target + " HTTP/1.1\r\nHost: mgx\r\nConnection: " +
        (keep_alive ? "keep-alive" : "close") + "\r\n\r\n";
    std::size_t sent = 0;
    std::string send_error;
    while (sent < request.size()) {
        const ssize_t n = ::send(fd, request.data() + sent,
                                 request.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            // The server may answer-and-close without reading the
            // request — that is how admission rejection (429) works,
            // so a failed send is not fatal: the response can already
            // be sitting in our receive queue. Only report the send
            // error if nothing comes back.
            send_error = std::string("send: ") + std::strerror(errno);
            break;
        }
        sent += static_cast<std::size_t>(n);
    }

    HttpResponseParser parser;
    char buf[4096];
    std::string recv_error;
    bool eof = false;
    while (parser.status() == HttpResponseParser::Status::Incomplete) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            recv_error = std::string("recv: ") + std::strerror(errno);
            break;
        }
        if (n == 0) {
            eof = true;
            parser.finishEof();
            break;
        }
        parser.feed(buf, static_cast<std::size_t>(n));
    }

    if (parser.status() == HttpResponseParser::Status::Complete) {
        const HttpResponse &resp = parser.response();
        const auto conn = resp.header("connection");
        if (reusable_out)
            *reusable_out = !eof && keep_alive &&
                            resp.header("content-length").has_value() &&
                            (!conn || *conn != "close");
        if (out)
            *out = resp;
        return true;
    }

    // Failure: classify by how far we got.
    std::string why;
    GetFailure cls;
    if (parser.status() == HttpResponseParser::Status::Error &&
        !parser.headersComplete() &&
        parser.error().rfind("connection closed", 0) != 0) {
        cls = GetFailure::Parse;
        why = "parse: " + parser.error();
    } else if (parser.headersComplete() ||
               (parser.status() == HttpResponseParser::Status::Error &&
                parser.error().rfind("connection closed inside", 0) ==
                    0)) {
        cls = GetFailure::PartialResponse;
        why = "partial response: " +
              (recv_error.empty()
                   ? (parser.error().empty() ? "connection closed"
                                             : parser.error())
                   : recv_error);
    } else if (!send_error.empty()) {
        cls = GetFailure::Send;
        why = send_error;
    } else {
        cls = GetFailure::Recv;
        why = recv_error.empty() ? "recv: connection closed"
                                 : recv_error;
    }
    setFailure(failure, cls);
    if (error)
        *error = why;
    return false;
}

} // namespace

const char *
getFailureName(GetFailure f)
{
    switch (f) {
      case GetFailure::None: return "none";
      case GetFailure::Connect: return "connect";
      case GetFailure::Send: return "send";
      case GetFailure::Recv: return "recv";
      case GetFailure::PartialResponse: return "partialResponse";
      case GetFailure::Parse: return "parse";
    }
    return "unknown";
}

void
RetryStats::add(const RetryStats &o)
{
    attempts += o.attempts;
    connectFailures += o.connectFailures;
    sendFailures += o.sendFailures;
    recvFailures += o.recvFailures;
    partialResponses += o.partialResponses;
    parseFailures += o.parseFailures;
    backpressure += o.backpressure;
}

void
RetryStats::count(GetFailure f)
{
    switch (f) {
      case GetFailure::None: break;
      case GetFailure::Connect: ++connectFailures; break;
      case GetFailure::Send: ++sendFailures; break;
      case GetFailure::Recv: ++recvFailures; break;
      case GetFailure::PartialResponse: ++partialResponses; break;
      case GetFailure::Parse: ++parseFailures; break;
    }
}

bool
httpGet(const SocketAddress &addr, const std::string &target,
        HttpResponse *out, std::string *error, int timeout_ms,
        GetFailure *failure)
{
    setFailure(failure, GetFailure::None);
    const int fd = connectTo(addr, error);
    if (fd < 0) {
        setFailure(failure, GetFailure::Connect);
        return false;
    }
    const bool ok = requestOnFd(fd, target, /*keep_alive=*/false, out,
                                error, timeout_ms, failure, nullptr);
    ::close(fd);
    return ok;
}

bool
httpGetRetry(const SocketAddress &addr, const std::string &target,
             HttpResponse *out, std::string *error, int timeout_ms,
             const RetryOptions &opts, int *attempts_out,
             RetryStats *stats)
{
    // Full-jitter backoff off a tiny LCG: good enough to decorrelate
    // a stampede of clients, deterministic under a caller-given seed.
    u64 rng = opts.seed;
    if (rng == 0)
        rng = static_cast<u64>(::getpid()) * 2654435761u +
              static_cast<u64>(
                  std::chrono::steady_clock::now()
                      .time_since_epoch()
                      .count());
    const auto next = [&rng] {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 33;
    };

    const int attempts = 1 + std::max(0, opts.retries);
    // The delay base doubles per retry and stops at the ceiling, so no
    // retry budget can overflow it.
    const u64 max_base = static_cast<u64>(std::max(1, opts.maxBackoffMs));
    u64 base = std::min<u64>(static_cast<u64>(std::max(1, opts.backoffMs)),
                             max_base);
    bool ok = false;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            const u64 delay = base / 2 + next() % (base - base / 2 + 1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
            base = std::min(base * 2, max_base);
        }
        GetFailure f = GetFailure::None;
        ok = httpGet(addr, target, out, error, timeout_ms, &f);
        if (stats)
            ++stats->attempts;
        if (attempts_out)
            *attempts_out = attempt + 1;
        if (!ok) {
            if (stats)
                stats->count(f);
            continue; // transport failure (incl. partial): retry
        }
        if (out->status == 429 || out->status == 503) {
            if (stats && attempt + 1 < attempts)
                ++stats->backpressure;
            continue; // explicit back-pressure: retry
        }
        return true;  // definite answer (2xx, 4xx, 5xx other)
    }
    // Exhausted. A parsed 429/503 still counts as "the server
    // answered" — hand it back so the caller can report the status.
    return ok;
}

void
ClientConnection::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
ClientConnection::getOnce(const std::string &target, HttpResponse *out,
                          std::string *error, int timeout_ms,
                          GetFailure *failure, bool *reused_attempt)
{
    const bool reused = fd_ >= 0;
    if (reused_attempt)
        *reused_attempt = reused;
    if (!reused) {
        fd_ = connectTo(addr_, error);
        if (fd_ < 0) {
            setFailure(failure, GetFailure::Connect);
            return false;
        }
    }
    bool reusable = false;
    const bool ok = requestOnFd(fd_, target, /*keep_alive=*/true, out,
                                error, timeout_ms, failure, &reusable);
    if (!ok || !reusable)
        close();
    if (ok)
        last_reused_ = reused;
    return ok;
}

bool
ClientConnection::get(const std::string &target, HttpResponse *out,
                      std::string *error, int timeout_ms,
                      GetFailure *failure)
{
    setFailure(failure, GetFailure::None);
    bool reused = false;
    GetFailure f = GetFailure::None;
    std::string err;
    if (getOnce(target, out, &err, timeout_ms, &f, &reused))
        return true;
    // The reuse race: the server closed the idle socket just as we
    // wrote into it. Our request never ran — retry once on a fresh
    // connect. A failure on a *fresh* socket is reported as-is.
    if (reused && f != GetFailure::Parse) {
        err.clear();
        f = GetFailure::None;
        if (getOnce(target, out, &err, timeout_ms, &f, &reused))
            return true;
    }
    setFailure(failure, f);
    if (error)
        *error = err;
    return false;
}

} // namespace mgx::serve
