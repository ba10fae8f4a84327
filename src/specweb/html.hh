/**
 * @file
 * HTTP page framing for every service, and the shared site chrome and
 * HTML helpers of the Banking pages.
 *
 * All Banking pages share a masthead, navigation bar, inline stylesheet
 * and footer (static template content, served from constant memory on
 * the device) plus per-page disclosure/marketing sections that give each
 * page its SPECWeb-calibrated size. The Chat and Search pages frame
 * their own head and footer with openPage()/finishResponse() and answer
 * bad input with errorPage().
 */

#ifndef RHYTHM_SPECWEB_HTML_HH
#define RHYTHM_SPECWEB_HTML_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "specweb/context.hh"

namespace rhythm::specweb::html {

/** Chrome basic-block ids (shared across all page types). */
enum ChromeBlock : uint32_t {
    kBlockHttpHeader = 2900,
    kBlockHead = 2901,
    kBlockNav = 2902,
    kBlockFooter = 2903,
    kBlockFiller = 2904,
    kBlockTable = 2905,
};

/** Bytes reserved for the back-patched Content-Length value. */
inline constexpr size_t kContentLengthReserve = 10;

/**
 * An open page: its whitespace-reserved Content-Length value (Section
 * 4.3.2 "Whitespace Padding in HTML Headers") and the end of its
 * header, for finishResponse().
 */
struct PageFrame
{
    size_t contentLengthOffset = 0;
    size_t headerEnd = 0;
};

/**
 * Opens a Banking page: the `200 OK` header with a reserved
 * Content-Length.
 * @param set_cookie Optional Set-Cookie header value ("" omits it).
 */
PageFrame beginResponse(ResponseWriter &out,
                        std::string_view set_cookie = "");

/**
 * Opens a text/html page from @p server: the @p status line, Server,
 * Content-Type and "Content-Length: " as one static append, the
 * reserved length and the blank line, all in @p block.
 */
PageFrame openPage(ResponseWriter &out, uint32_t block,
                   std::string_view server,
                   std::string_view status = "200 OK");

/**
 * Back-patches the frame's Content-Length with the body size written
 * since the header and returns the body size.
 */
size_t finishResponse(ResponseWriter &out, const PageFrame &frame);

/**
 * Writes a complete `400 Bad Request` page carrying @p body and marks
 * the lane failed; the error path costs @p instructions in @p block.
 */
void errorPage(HandlerContext &ctx, uint32_t block, uint32_t instructions,
               std::string_view body);

/**
 * Checks a page framed by openPage(): http::checkFraming, then
 * @p ok_marker and @p type_marker anywhere in the response.
 * @param reason Set to why the check failed (may be null).
 */
bool checkPage(std::string_view raw, std::string_view ok_marker,
               std::string_view type_marker, std::string *reason);

/** Emits DOCTYPE, head (inline CSS) and opens the body. */
void pageHead(ResponseWriter &out, std::string_view title);

/** Emits the masthead and navigation bar. */
void pageNav(ResponseWriter &out, std::string_view user_name);

/** Emits the footer and closes body/html. */
void pageFooter(ResponseWriter &out);

/**
 * Emits @p count boilerplate disclosure/marketing paragraphs (~512 bytes
 * each). Used to reach each page's SPECWeb-reference size.
 */
void fillerParagraphs(ResponseWriter &out, int count);

/** Opens an HTML data table with the given column headers. */
void tableOpen(ResponseWriter &out, std::initializer_list<std::string_view>
                                        headers);

/** Closes an HTML data table. */
void tableClose(ResponseWriter &out);

/** Formats cents as a currency string, e.g. "$1,234.56" / "-$0.07". */
std::string formatCents(int64_t cents);

/** Formats a synthetic day number as "YYYY-MM-DD". */
std::string formatDate(uint32_t day);

} // namespace rhythm::specweb::html

#endif // RHYTHM_SPECWEB_HTML_HH
