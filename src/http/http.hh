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

/** The framing of a response as checkFraming() found it. */
struct Framing
{
    /** Why the framing does not hold ("" when it does). */
    std::string error;
    /** Status line and headers, without the blank line (set when the
     *  framing holds). */
    std::string_view header;
    /** Everything after the blank line (set when the framing holds). */
    std::string_view body;
};

/**
 * Checks the framing of a complete `200 OK` response as the servers
 * write it: the status line, the header terminator, a Content-Length
 * header inside the header, its digits, the trailing whitespace the
 * device writer pads the value with (Section 4.3.2; HTTP permits it)
 * and its equality with the body size.
 */
Framing checkFraming(std::string_view raw);

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
