/**
 * @file
 * HTTP/1.1 message types shared by the parser, the workload generator and
 * the servers.
 *
 * The wire format is identical whether a request is processed by the host
 * baseline or by a Rhythm cohort on the device; only the execution
 * substrate differs.
 */

#ifndef RHYTHM_HTTP_HTTP_HH
#define RHYTHM_HTTP_HTTP_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rhythm::http {

/** Request methods supported by the Banking workload. */
enum class Method : uint8_t {
    Get,
    Post,
};

/** Returns the canonical name of a method. */
std::string_view methodName(Method method);

/** A parsed HTTP request. */
struct Request
{
    Method method = Method::Get;
    /** URL path without the query string, e.g. "/bank/login.php". */
    std::string path;
    /** Decoded key/value parameters from the query string or POST body. */
    std::vector<std::pair<std::string, std::string>> params;
    /** Raw Cookie header value ("" when absent). */
    std::string cookie;
    /** Session identifier parsed from the "session" cookie (0 = none). */
    uint64_t sessionId = 0;
    /** Value of Content-Length (0 when absent). */
    uint64_t contentLength = 0;
    /** Connection keep-alive (HTTP/1.1 default true). */
    bool keepAlive = true;

    /** Returns the value of a parameter or "" when absent. */
    std::string_view param(std::string_view key) const;

    /** True if the parameter is present. */
    bool hasParam(std::string_view key) const;
};

/** HTTP status codes used by the Banking service. */
enum class Status : uint16_t {
    Ok = 200,
    Found = 302,
    BadRequest = 400,
    NotFound = 404,
    InternalError = 500,
};

/** Returns the reason phrase for a status code. */
std::string_view statusReason(Status status);

/**
 * Host-side HTTP response builder.
 *
 * Buffers the body, then serializes the status line, headers (including a
 * correct Content-Length) and body. The device-side pipeline uses the
 * cohort buffer writer instead (src/rhythm/buffers.hh) which reserves
 * whitespace for Content-Length and back-patches it (Section 4.3.2).
 */
class ResponseBuilder
{
  public:
    explicit ResponseBuilder(Status status = Status::Ok);

    /** Adds a response header (Content-Length is added automatically). */
    void addHeader(std::string_view name, std::string_view value);

    /** Appends to the response body. */
    void append(std::string_view text) { body_.append(text); }

    /** Current body size in bytes. */
    size_t bodySize() const { return body_.size(); }

    /** Read-only view of the body so far. */
    std::string_view body() const { return body_; }

    /** Serializes the complete response message. */
    std::string serialize() const;

  private:
    Status status_;
    std::vector<std::pair<std::string, std::string>> headers_;
    std::string body_;
};

/**
 * Builds a raw HTTP request message (client side; used by the workload
 * generator and tests).
 *
 * @param method GET or POST.
 * @param path URL path.
 * @param params Parameters; encoded into the query string for GET and
 *        into a form body for POST.
 * @param cookie Cookie header value ("" omits the header).
 */
std::string buildRequest(
    Method method, std::string_view path,
    const std::vector<std::pair<std::string, std::string>> &params,
    std::string_view cookie = "");

} // namespace rhythm::http

#endif // RHYTHM_HTTP_HTTP_HH
