/**
 * @file
 * Blocking HTTP client for the experiment service. Two shapes:
 *
 *  - httpGet / httpGetRetry: one-shot — connect, send one GET with
 *    `Connection: close`, read the full response, close. Shared by
 *    mgx_client, the load bench, and the tests.
 *  - ClientConnection: a reusable keep-alive connection — sends
 *    `Connection: keep-alive`, frames responses by Content-Length via
 *    HttpResponseParser, and keeps the socket open across requests.
 *    Used by the fleet proxy's backend pool and mgx_client.
 *
 * Failures are classified (GetFailure) so callers can tell a refused
 * connect from a connection reset after partial response bytes — the
 * latter is what a SIGKILLed worker mid-response looks like, and it
 * is retryable: the request never completed, and /run is idempotent.
 */

#ifndef MGX_SERVE_CLIENT_H
#define MGX_SERVE_CLIENT_H

#include <string>

#include "front_door.h"
#include "http.h"

namespace mgx::serve {

/** Where a failed GET fell apart, coarsest useful grain. */
enum class GetFailure
{
    None,            ///< it worked
    Connect,         ///< connect() refused / no socket
    Send,            ///< request never left and nothing came back
    Recv,            ///< zero response bytes (timeout / reset at idle)
    PartialResponse, ///< connection died after some response bytes
    Parse,           ///< malformed response
};

/** Stable lower-case name for a GetFailure (stats keys, logs). */
const char *getFailureName(GetFailure f);

/**
 * GET @p target from the server at @p addr. Returns false with
 * @p error set on connect/IO/parse failure; @p out holds the parsed
 * response otherwise (including non-2xx statuses — those are valid
 * answers, e.g. 429 back-pressure). @p failure (optional) reports
 * the failure class; a response truncated mid-body is a failure
 * (PartialResponse), never silently parsed as success.
 */
bool httpGet(const SocketAddress &addr, const std::string &target,
             HttpResponse *out, std::string *error,
             int timeout_ms = 30000, GetFailure *failure = nullptr);

/** Retry policy for httpGetRetry. */
struct RetryOptions
{
    int retries = 0;      ///< attempts beyond the first
    int backoffMs = 100;  ///< base delay; doubles per retry
    int maxBackoffMs = 5000; ///< ceiling for one delay
    u64 seed = 0;         ///< jitter seed; 0 = derive from pid+clock
};

/** Client-side counters accumulated across httpGetRetry attempts. */
struct RetryStats
{
    u64 attempts = 0;         ///< GETs actually issued
    u64 connectFailures = 0;  ///< GetFailure::Connect
    u64 sendFailures = 0;     ///< GetFailure::Send
    u64 recvFailures = 0;     ///< GetFailure::Recv
    u64 partialResponses = 0; ///< GetFailure::PartialResponse
    u64 parseFailures = 0;    ///< GetFailure::Parse
    u64 backpressure = 0;     ///< 429/503 answers that were retried

    void add(const RetryStats &o);
    void count(GetFailure f);
};

/**
 * httpGet with retries: transient failures — connect refused, IO
 * errors, a connection reset after partial response bytes, and
 * 429/503 answers (the server saying "try again") — are retried up
 * to opts.retries times with exponential backoff and full jitter
 * (each delay is uniform in [base/2, base], base doubling per
 * attempt and capped at maxBackoffMs). Definite answers (2xx, 4xx
 * other than 429) return immediately. Returns false with @p error
 * describing the *last* failure once attempts are exhausted;
 * @p attempts_out (optional) reports how many attempts were made and
 * @p stats (optional) accumulates per-class failure counts.
 *
 * A retried 429/503 that never improves is returned as a success
 * with that status — the caller distinguishes "the server answered
 * no" from "the server never answered".
 */
bool httpGetRetry(const SocketAddress &addr, const std::string &target,
                  HttpResponse *out, std::string *error,
                  int timeout_ms, const RetryOptions &opts,
                  int *attempts_out = nullptr,
                  RetryStats *stats = nullptr);

/**
 * A keep-alive connection to one server. get() reuses the open
 * socket when there is one; if the reused socket turns out stale
 * (the server closed it between requests — the classic reuse race)
 * the request is transparently retried once on a fresh connect.
 * The socket is closed when the response says `Connection: close`,
 * has no Content-Length (EOF-framed), or any failure occurs.
 */
class ClientConnection
{
  public:
    explicit ClientConnection(const SocketAddress &addr) : addr_(addr)
    {
    }
    ~ClientConnection() { close(); }

    ClientConnection(const ClientConnection &) = delete;
    ClientConnection &operator=(const ClientConnection &) = delete;

    /** GET @p target; same contract as httpGet. */
    bool get(const std::string &target, HttpResponse *out,
             std::string *error, int timeout_ms = 30000,
             GetFailure *failure = nullptr);

    /** True while a socket is open and eligible for reuse. */
    bool connected() const { return fd_ >= 0; }

    /** True when the last successful get() rode a reused socket. */
    bool lastReused() const { return last_reused_; }

    const SocketAddress &address() const { return addr_; }

    void close();

  private:
    bool getOnce(const std::string &target, HttpResponse *out,
                 std::string *error, int timeout_ms,
                 GetFailure *failure, bool *reused_attempt);

    SocketAddress addr_;
    int fd_ = -1;
    bool last_reused_ = false;
};

} // namespace mgx::serve

#endif // MGX_SERVE_CLIENT_H
