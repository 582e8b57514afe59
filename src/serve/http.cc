#include "http.h"

#include <algorithm>
#include <cctype>

#include "common/parse.h"

namespace mgx::serve {
namespace {

/// Total request size cap: request line + headers + body.
constexpr std::size_t kMaxRequestBytes = 1u << 20;

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

/** Strip one trailing '\r' (we split on '\n' and tolerate bare LF). */
std::string_view
stripCr(std::string_view line)
{
    if (!line.empty() && line.back() == '\r')
        line.remove_suffix(1);
    return line;
}

using HeaderFields = std::vector<std::pair<std::string, std::string>>;

/**
 * Split the header block at the front of @p buf into its first line
 * (the request or status line) and its header fields. The block ends
 * at the first empty line, bare LF or CRLF — the first `\n\n` or
 * `\n\r\n` — so where it ends does not depend on how the bytes
 * arrived. Returns the offset of the body, npos while the block is
 * incomplete. A block with nothing before its end has an empty first
 * line, which no request or status line matches.
 */
std::size_t
splitHeaderBlock(std::string_view buf, std::string_view *first_line,
                 std::string_view *fields)
{
    for (std::size_t nl = buf.find('\n'); nl != std::string_view::npos;
         nl = buf.find('\n', nl + 1)) {
        std::size_t body_start;
        if (nl + 1 < buf.size() && buf[nl + 1] == '\n')
            body_start = nl + 2;
        else if (nl + 2 < buf.size() && buf[nl + 1] == '\r' &&
                 buf[nl + 2] == '\n')
            body_start = nl + 3;
        else
            continue;
        const std::string_view block = buf.substr(0, nl);
        const std::size_t eol = block.find('\n');
        *first_line = stripCr(block.substr(0, eol));
        *fields = eol == std::string_view::npos ? std::string_view()
                                                : block.substr(eol + 1);
        return body_start;
    }
    return std::string_view::npos;
}

/** Parse @p fields, one `Name: value` per line, into lower-cased
 *  names and left-trimmed values; false on a line with no name. */
bool
parseHeaderFields(std::string_view fields, HeaderFields *out)
{
    while (!fields.empty()) {
        const std::size_t eol = fields.find('\n');
        const std::string_view line = stripCr(fields.substr(0, eol));
        fields = eol == std::string_view::npos ? std::string_view()
                                               : fields.substr(eol + 1);
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos || colon == 0)
            return false;
        std::string_view value = line.substr(colon + 1);
        value.remove_prefix(
            std::min(value.find_first_not_of(" \t"), value.size()));
        out->emplace_back(toLower(std::string(line.substr(0, colon))),
                          std::string(value));
    }
    return true;
}

enum class Length { None, Valid, Malformed, OverCap };

/**
 * Read the Content-Length of @p headers into @p out: a plain digit
 * string no larger than @p cap, which every repeated field repeats.
 */
Length
contentLength(const HeaderFields &headers, u64 cap, u64 *out)
{
    const std::string *text = nullptr;
    for (const auto &h : headers) {
        if (h.first != "content-length")
            continue;
        if (text != nullptr && *text != h.second)
            return Length::Malformed;
        text = &h.second;
    }
    if (text == nullptr)
        return Length::None;
    if (text->empty() ||
        text->find_first_not_of("0123456789") != std::string::npos)
        return Length::Malformed;
    return parseDecimal(text->c_str(), cap, *out) ? Length::Valid
                                                   : Length::OverCap;
}

/** Parse a response's status line and header fields into @p resp;
 *  nullptr on success, else what was malformed. */
const char *
parseResponseHead(std::string_view line, std::string_view fields,
                  HttpResponse *resp)
{
    if (line.rfind("HTTP/1.", 0) != 0)
        return "malformed status line";
    const std::size_t sp1 = line.find(' ');
    if (sp1 == std::string_view::npos)
        return "malformed status line";
    const std::size_t sp2 = line.find(' ', sp1 + 1);
    const std::string code(line.substr(
        sp1 + 1,
        sp2 == std::string_view::npos ? sp2 : sp2 - sp1 - 1));
    u64 status = 0;
    if (code.size() != 3 || !parseDecimal(code.c_str(), 999, status))
        return "malformed status code";
    resp->status = static_cast<int>(status);
    if (sp2 != std::string_view::npos)
        resp->reason = std::string(line.substr(sp2 + 1));
    if (!parseHeaderFields(fields, &resp->headers))
        return "malformed header line";
    return nullptr;
}

int
hexValue(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/** Split `key=value&key=value` into decoded pairs. */
std::vector<std::pair<std::string, std::string>>
parseQueryString(const std::string &raw)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::size_t start = 0;
    while (start <= raw.size()) {
        std::size_t amp = raw.find('&', start);
        if (amp == std::string::npos)
            amp = raw.size();
        const std::string kv = raw.substr(start, amp - start);
        if (!kv.empty()) {
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos)
                out.emplace_back(percentDecode(kv), "");
            else
                out.emplace_back(percentDecode(kv.substr(0, eq)),
                                 percentDecode(kv.substr(eq + 1)));
        }
        start = amp + 1;
    }
    return out;
}

} // namespace

std::optional<std::string>
HttpRequest::queryValue(const std::string &key) const
{
    for (const auto &kv : query)
        if (kv.first == key)
            return kv.second;
    return std::nullopt;
}

std::vector<std::string>
HttpRequest::queryValues(const std::string &key) const
{
    std::vector<std::string> out;
    for (const auto &kv : query)
        if (kv.first == key)
            out.push_back(kv.second);
    return out;
}

std::optional<std::string>
HttpRequest::header(const std::string &name) const
{
    const std::string key = toLower(name);
    for (const auto &kv : headers)
        if (kv.first == key)
            return kv.second;
    return std::nullopt;
}

std::optional<std::string>
HttpResponse::header(const std::string &name) const
{
    const std::string key = toLower(name);
    for (const auto &kv : headers)
        if (kv.first == key)
            return kv.second;
    return std::nullopt;
}

HttpRequestParser::Status
HttpRequestParser::fail(const std::string &message)
{
    error_ = message;
    status_ = Status::Error;
    return status_;
}

HttpRequestParser::Status
HttpRequestParser::feed(const char *data, std::size_t n)
{
    if (status_ != Status::Incomplete)
        return status_;
    buffer_.append(data, n);
    if (buffer_.size() > kMaxRequestBytes) {
        tooLarge_ = true;
        return fail("request exceeds 1 MiB");
    }
    return parseBuffered();
}

HttpRequestParser::Status
HttpRequestParser::parseBuffered()
{
    // Wait for the end of the header block before parsing anything;
    // requests are tiny, so re-scanning per feed() is fine.
    std::string_view line, fields;
    const std::size_t body_start =
        splitHeaderBlock(buffer_, &line, &fields);
    if (body_start == std::string_view::npos)
        return status_;

    HttpRequest req;
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
    if (sp1 == 0 || sp1 == std::string_view::npos ||
        sp2 == std::string_view::npos)
        return fail("malformed request line");
    req.method = std::string(line.substr(0, sp1));
    req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
    const std::string_view version = line.substr(sp2 + 1);
    if (version.rfind("HTTP/1.", 0) != 0)
        return fail("unsupported HTTP version");
    if (req.target.empty() || req.target[0] != '/')
        return fail("request target must be absolute path");
    if (!parseHeaderFields(fields, &req.headers))
        return fail("malformed header line");

    u64 content_length = 0;
    const Length length =
        contentLength(req.headers, kMaxRequestBytes, &content_length);
    if (length == Length::Malformed)
        return fail("malformed Content-Length");
    if (length == Length::OverCap) {
        tooLarge_ = true;
        return fail("request exceeds 1 MiB");
    }
    if (buffer_.size() - body_start < content_length)
        return status_; // body still in flight
    req.body = buffer_.substr(body_start, content_length);
    consumed_ = body_start + content_length;

    const std::size_t qpos = req.target.find('?');
    req.path = percentDecode(req.target.substr(0, qpos));
    if (qpos != std::string::npos)
        req.query = parseQueryString(req.target.substr(qpos + 1));

    request_ = std::move(req);
    status_ = Status::Complete;
    return status_;
}

HttpResponseParser::Status
HttpResponseParser::fail(const std::string &message)
{
    error_ = message;
    status_ = Status::Error;
    return status_;
}

std::size_t
HttpResponseParser::bodyBytes() const
{
    if (!headers_done_ || buffer_.size() < body_start_)
        return 0;
    return buffer_.size() - body_start_;
}

HttpResponseParser::Status
HttpResponseParser::feed(const char *data, std::size_t n)
{
    if (status_ != Status::Incomplete)
        return status_;
    buffer_.append(data, n);
    return parseBuffered();
}

HttpResponseParser::Status
HttpResponseParser::finishEof()
{
    if (status_ != Status::Incomplete)
        return status_;
    if (!headers_done_)
        return fail(buffer_.empty()
                        ? "connection closed before any response"
                        : "connection closed inside response headers");
    if (has_length_)
        return fail("connection closed mid-response (" +
                    std::to_string(bodyBytes()) + " of " +
                    std::to_string(content_length_) + " body bytes)");
    // Length-less body: EOF is the terminator.
    response_.body = buffer_.substr(body_start_);
    status_ = Status::Complete;
    return status_;
}

HttpResponseParser::Status
HttpResponseParser::parseBuffered()
{
    if (!headers_done_) {
        std::string_view line, fields;
        const std::size_t body_start =
            splitHeaderBlock(buffer_, &line, &fields);
        if (body_start == std::string_view::npos)
            return status_;
        body_start_ = body_start;
        HttpResponse resp;
        if (const char *malformed = parseResponseHead(line, fields, &resp))
            return fail(malformed);
        const Length length =
            contentLength(resp.headers, ~u64{0}, &content_length_);
        if (length == Length::Malformed || length == Length::OverCap)
            return fail("malformed Content-Length");
        has_length_ = length == Length::Valid;
        response_ = std::move(resp);
        headers_done_ = true;
    }
    if (!has_length_)
        return status_; // only finishEof() can complete this one
    if (buffer_.size() - body_start_ < content_length_)
        return status_;
    response_.body = buffer_.substr(body_start_, content_length_);
    status_ = Status::Complete;
    return status_;
}

const char *
httpReason(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 429: return "Too Many Requests";
      case 431: return "Request Header Fields Too Large";
      case 500: return "Internal Server Error";
      case 502: return "Bad Gateway";
      case 503: return "Service Unavailable";
      default: return "Unknown";
    }
}

std::string
httpResponse(int status, const std::string &content_type,
             const std::string &body,
             const std::vector<std::string> &extra_headers,
             bool keep_alive)
{
    std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                      httpReason(status) + "\r\n";
    out += "Content-Type: " + content_type + "\r\n";
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    for (const auto &h : extra_headers)
        out += h + "\r\n";
    out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                      : "Connection: close\r\n\r\n";
    out += body;
    return out;
}

std::string
percentDecode(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '+') {
            out += ' ';
            continue;
        }
        if (s[i] == '%' && i + 2 < s.size()) {
            const int hi = hexValue(s[i + 1]);
            const int lo = hexValue(s[i + 2]);
            if (hi >= 0 && lo >= 0) {
                out += static_cast<char>(hi * 16 + lo);
                i += 2;
                continue;
            }
        }
        out += s[i];
    }
    return out;
}

std::string
percentEncode(const std::string &s)
{
    static const char *hex = "0123456789ABCDEF";
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        const bool safe = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' ||
                          c == '_' || c == '.' || c == '~' || c == '/';
        if (safe) {
            out += static_cast<char>(c);
        } else {
            out += '%';
            out += hex[c >> 4];
            out += hex[c & 0xf];
        }
    }
    return out;
}

} // namespace mgx::serve
