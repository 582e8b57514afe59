/**
 * @file
 * The HTTP front door shared by mgx_serve (serve::Server) and the
 * fleet proxy (fleet::Proxy): the listening socket, one acceptor
 * thread, a bounded admission queue, a worker pool and the keep-alive
 * connection loop. Each complete request goes to the owner's Handler;
 * the front door frames, counts and answers it, and never knows which
 * daemon it serves.
 *
 * Admission: when the queue is full the acceptor answers 429 without
 * reading the request (explicit back-pressure; a full daemon does no
 * request work), and 503 once draining.
 *
 * Per request: a parse error answers 400 and an oversized request
 * (over HttpRequestParser's 1 MiB cap) 431; a peer that stays silent
 * until ioTimeoutMs also gets a 400, while one that closes without
 * sending anything is a clean close. A request carrying
 * `Connection: keep-alive` keeps the connection open for the next
 * one, bounded by keepAliveIdleMs.
 *
 * Graceful shutdown: stop accepting, drain the queued and in-flight
 * requests, join every thread.
 *
 * The socket boundaries are failpoints (serve.accept.fail,
 * serve.recv.fail, serve.send.fail; see common/failpoint.h).
 */

#ifndef MGX_SERVE_FRONT_DOOR_H
#define MGX_SERVE_FRONT_DOOR_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "http.h"

namespace mgx::serve {

/** Where to listen / connect: unix path if set, else TCP loopback. */
struct SocketAddress
{
    std::string unixPath; ///< non-empty selects AF_UNIX
    std::string host = "127.0.0.1";
    u16 port = 0; ///< 0 = kernel-assigned (see FrontDoor::port())
};

/** The front door's settings; ServerOptions and ProxyOptions extend
 *  them. */
struct FrontDoorOptions
{
    SocketAddress listen;
    u32 workers = 2;                    ///< request handler threads
    std::size_t admissionCapacity = 16; ///< queued connections before 429
    int ioTimeoutMs = 30000; ///< per-connection read/write timeout
    /// Close a kept-alive connection after this long with no next
    /// request — bounds both idle FDs and how long a worker thread
    /// can be parked on one peer.
    int keepAliveIdleMs = 2000;
};

/**
 * The front door's relaxed counters; ServeMetrics and ProxyMetrics
 * extend them. They are diagnostics, not synchronization: the queue
 * mutex orders the state they describe.
 */
struct FrontDoorMetrics
{
    std::atomic<u64> accepted{0};    ///< connections accepted
    std::atomic<u64> rejected{0};    ///< 429s: admission queue was full
    std::atomic<u64> served{0};      ///< responses with status < 400
    std::atomic<u64> failed{0};      ///< responses with status >= 500
    std::atomic<u64> badRequests{0}; ///< 4xx other than queue rejections
    std::atomic<u64> inFlight{0};    ///< connections being handled
    std::atomic<u64> queueDepth{0};  ///< connections waiting for a worker
    std::atomic<u64> maxQueueDepth{0}; ///< high-water mark of queueDepth
    std::atomic<u64> oversized{0}; ///< 431s: request exceeded the 1 MiB cap
    std::atomic<u64> keepAliveReused{0}; ///< requests on a reused connection

    /** Record @p depth and raise maxQueueDepth to at least it. */
    void noteQueueDepth(u64 depth);
};

/** The one-line `{"error": ...}` body every failure answers with. */
std::string jsonError(const std::string &message);

class FrontDoor
{
  public:
    /** Answer one complete request: the JSON body, with the HTTP
     *  status in *status. An exception answers 500. */
    using Handler =
        std::function<std::string(const HttpRequest &, int *status)>;

    /** @p metrics must outlive the front door. */
    FrontDoor(FrontDoorOptions opts, FrontDoorMetrics &metrics,
              Handler handler);
    ~FrontDoor();

    FrontDoor(const FrontDoor &) = delete;
    FrontDoor &operator=(const FrontDoor &) = delete;

    /** Bind, listen, and spawn the acceptor + workers. Fatal on bind
     *  failure (the address is caller-chosen configuration). */
    void start();

    /** The bound TCP port (after start(); meaningless for unix). */
    u16 port() const { return boundPort_; }

    /** Human-readable bound address, e.g. "unix:/tmp/x.sock". */
    std::string addressDescription() const;

    /** Stop admission and begin draining; returns immediately. */
    void requestShutdown();

    /** requestShutdown() + drain queued and in-flight + join threads.
     *  Idempotent; also run by the destructor. */
    void shutdown();

    bool stopping() const;

  private:
    void acceptLoop();
    void workerLoop();
    void handleConnection(int fd);
    /// Serve one request off @p fd (seeded with @p carry bytes from
    /// the previous request on this connection). Returns false when
    /// the connection is done (peer closed, error, or the exchange
    /// chose Connection: close); true means keep it open and @p carry
    /// holds any bytes of the next request that already arrived.
    /// @p first distinguishes a fresh connection from a reused one.
    bool serveOneRequest(int fd, std::string *carry, bool first);
    void sendAll(int fd, const std::string &data) const;

    FrontDoorOptions opts_;
    FrontDoorMetrics &metrics_;
    Handler handler_;

    int listenFd_ = -1;
    u16 boundPort_ = 0;
    bool started_ = false;
    bool joined_ = false;

    mutable std::mutex qmu_;
    std::condition_variable qcv_;
    std::deque<int> pending_; ///< accepted fds awaiting a worker
    bool draining_ = false;   ///< guarded by qmu_

    std::thread acceptor_;
    std::vector<std::thread> workers_;
};

} // namespace mgx::serve

#endif // MGX_SERVE_FRONT_DOOR_H
