/**
 * @file
 * Minimal HTTP/1.1 framing for the experiment service: an incremental
 * request parser for the server side, a response parser for the client
 * side, and percent-encoding helpers for query strings.
 *
 * Deliberately tiny — mgx speaks whole GET requests over local
 * sockets, so there is no chunked encoding and no multipart. Since the
 * fleet proxy landed, connections can be reused: a request carrying
 * `Connection: keep-alive` may be answered in kind, and the
 * incremental HttpResponseParser frames responses by Content-Length so
 * a reader does not need EOF to know the body ended. Requests are
 * capped at 1 MiB so a confused peer cannot balloon the daemon.
 */

#ifndef MGX_SERVE_HTTP_H
#define MGX_SERVE_HTTP_H

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace mgx::serve {

/** One parsed request: request line, split query, headers, body. */
struct HttpRequest
{
    std::string method;  ///< "GET", "POST", ...
    std::string target;  ///< raw request target, e.g. "/run?w=x"
    std::string path;    ///< target up to '?', percent-decoded
    /// Query parameters in declaration order, percent-decoded;
    /// repeated keys are preserved (e.g. several workload=).
    std::vector<std::pair<std::string, std::string>> query;
    /// Header name (lower-cased) / value pairs in arrival order.
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    /** First value of query key @p key, if present. */
    std::optional<std::string> queryValue(const std::string &key) const;

    /** Every value of query key @p key, in order. */
    std::vector<std::string> queryValues(const std::string &key) const;

    /** Value of header @p name (case-insensitive), if present. */
    std::optional<std::string> header(const std::string &name) const;
};

/**
 * Incremental parser: feed() bytes as they arrive off the socket until
 * the status leaves Incomplete. Tolerates bare-LF line endings; the
 * header block ends at its first empty line, so the result does not
 * depend on how the bytes were split. On Error, error() holds a
 * one-line description and the connection should answer 400 and
 * close.
 */
class HttpRequestParser
{
  public:
    enum class Status { Incomplete, Complete, Error };

    Status feed(const char *data, std::size_t n);

    Status status() const { return status_; }
    const HttpRequest &request() const { return request_; }
    const std::string &error() const { return error_; }

    /** True when the Error is specifically the 1 MiB request cap —
     *  the connection should answer 431 instead of 400 so a confused
     *  peer can tell "you sent too much" from "you sent garbage". */
    bool tooLarge() const { return tooLarge_; }

    /** Total bytes fed so far (0 = the peer never said anything —
     *  a clean close on an idle keep-alive connection, not an error). */
    std::size_t bytesFed() const { return buffer_.size(); }

    /** After Complete: bytes fed beyond the parsed request. A peer
     *  that streams back-to-back requests on one connection leaves the
     *  start of the next one here; seed the next parser with it. */
    std::string surplus() const
    {
        return status_ == Status::Complete ? buffer_.substr(consumed_)
                                           : std::string();
    }

  private:
    Status parseBuffered();
    Status fail(const std::string &message);

    std::string buffer_;
    HttpRequest request_;
    std::string error_;
    Status status_ = Status::Incomplete;
    bool tooLarge_ = false;
    std::size_t consumed_ = 0; ///< bytes of buffer_ the request used
};

/** A parsed response (client side). */
struct HttpResponse
{
    int status = 0;
    std::string reason;
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    /** Value of header @p name (case-insensitive), if present. */
    std::optional<std::string> header(const std::string &name) const;
};

/**
 * Incremental response parser for connection reuse: feed() bytes off
 * the socket; once the header block and Content-Length bytes of body
 * have arrived the status flips to Complete without waiting for EOF —
 * the property that lets the fleet proxy and ClientConnection keep a
 * backend socket open across requests. A response with no
 * Content-Length only completes at finishEof(), exactly like the old
 * read-to-EOF contract.
 */
class HttpResponseParser
{
  public:
    enum class Status { Incomplete, Complete, Error };

    Status feed(const char *data, std::size_t n);

    /** The peer closed: a length-less body is complete, anything else
     *  mid-flight is an error ("connection closed mid-response"). */
    Status finishEof();

    Status status() const { return status_; }
    const HttpResponse &response() const { return response_; }
    const std::string &error() const { return error_; }

    /** True once the status line + headers have fully arrived. */
    bool headersComplete() const { return headers_done_; }

    /** Body bytes received so far (diagnostics for partial reads). */
    std::size_t bodyBytes() const;

  private:
    Status parseBuffered();
    Status fail(const std::string &message);

    std::string buffer_;
    HttpResponse response_;
    std::string error_;
    Status status_ = Status::Incomplete;
    bool headers_done_ = false;
    bool has_length_ = false;
    u64 content_length_ = 0;
    std::size_t body_start_ = 0;
};

/**
 * Serialize a complete response with Content-Length. The connection
 * header is `close` unless @p keep_alive — the server only sets it
 * when the request explicitly asked to keep the connection open.
 * @p extra_headers lines are inserted verbatim (no trailing CRLF).
 */
std::string
httpResponse(int status, const std::string &content_type,
             const std::string &body,
             const std::vector<std::string> &extra_headers = {},
             bool keep_alive = false);

/** The standard reason phrase for the handful of codes we emit. */
const char *httpReason(int status);

/** %XX-decode @p s (also turns '+' into ' '). */
std::string percentDecode(const std::string &s);

/** Encode @p s so it is safe inside one query value. */
std::string percentEncode(const std::string &s);

} // namespace mgx::serve

#endif // MGX_SERVE_HTTP_H
