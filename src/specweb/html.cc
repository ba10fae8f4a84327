#include "specweb/html.hh"

#include <cstdio>

#include "http/http.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace rhythm::specweb::html {
namespace {

constexpr std::string_view kStyles =
    "<style type=\"text/css\">\n"
    "body{font-family:Verdana,Arial,sans-serif;margin:0;background:#f4f6f8;"
    "color:#1a2733;font-size:13px}\n"
    "#masthead{background:#003366;color:#ffffff;padding:12px 24px;"
    "font-size:21px;letter-spacing:1px}\n"
    "#navbar{background:#0a4f8f;padding:6px 24px}\n"
    "#navbar a{color:#dce9f7;margin-right:18px;text-decoration:none;"
    "font-weight:bold}\n"
    "#navbar a:hover{color:#ffffff;text-decoration:underline}\n"
    "#content{margin:18px 24px;background:#ffffff;border:1px solid #c8d4e0;"
    "padding:18px}\n"
    "h2{color:#003366;border-bottom:2px solid #dce4ec;padding-bottom:4px}\n"
    "table.data{border-collapse:collapse;width:100%;margin:10px 0}\n"
    "table.data th{background:#e8eef5;border:1px solid #c8d4e0;"
    "padding:5px 9px;text-align:left}\n"
    "table.data td{border:1px solid #dbe3ec;padding:5px 9px}\n"
    "tr.neg td.amt{color:#a00000}\ntr.pos td.amt{color:#006400}\n"
    ".notice{background:#fdf6e3;border:1px solid #e0d4a8;padding:9px;"
    "margin:10px 0;font-size:11px;color:#5a6234}\n"
    "#footer{margin:14px 24px;font-size:10px;color:#5a6a7a}\n"
    "input,select{border:1px solid #8aa0b8;padding:3px;margin:2px 0}\n"
    ".btn{background:#0a4f8f;color:#fff;border:none;padding:5px 14px;"
    "font-weight:bold}\n"
    "</style>\n";

constexpr std::string_view kFillers[] = {
    "<p class=\"notice\">Deposit products are offered by Rhythm National "
    "Bank, Member FDIC. Deposits are insured up to the maximum amount "
    "permitted by law. Investment products are not FDIC insured, are not "
    "bank guaranteed and may lose value. Please review the account "
    "agreement and fee schedule for complete terms. Annual percentage "
    "yields are accurate as of the date shown and may change after the "
    "account is opened. Fees could reduce the earnings on the account. "
    "A minimum balance may be required to obtain the stated yield.</p>\n",

    "<p class=\"notice\">Online banking sessions are protected with "
    "industry standard transport encryption. For your security, never "
    "share your password or one-time codes with anyone. Rhythm National "
    "Bank will never ask for your full password by telephone or e-mail. "
    "If you suspect unauthorized activity on your account, contact our "
    "fraud department immediately at 1-800-555-0139. You can also review "
    "your recent sign-on history from the profile page at any time to "
    "verify that every session was initiated by you personally.</p>\n",

    "<p class=\"notice\">Bill payments submitted after 4:00 PM Eastern "
    "Time, or on weekends and federal holidays, begin processing on the "
    "next business day. Allow up to five business days for payees that "
    "receive payment by paper check. Electronic payees are typically "
    "credited within two business days. Scheduled payments may be "
    "modified or cancelled until their processing date. A confirmation "
    "number is issued for every accepted payment and can be referenced "
    "from the bill pay status page under your payment history tab.</p>\n",

    "<p class=\"notice\">Funds transferred between your own deposit "
    "accounts are available immediately. Federal regulation may limit "
    "certain withdrawals and transfers from savings accounts to six per "
    "statement cycle; transactions above the limit may incur an excess "
    "activity fee as described in the deposit account agreement. Wire "
    "transfers and external transfers are subject to separate cut-off "
    "times and fees. Balances shown include pending transactions that "
    "have been authorized but have not yet posted to the account.</p>\n",

    "<p class=\"notice\">Check images are retained for seven years and "
    "are admissible as legal copies under the Check Clearing for the "
    "21st Century Act. Ordering replacement checks through online "
    "banking uses the address currently on file for your account; "
    "please verify your profile information before placing an order. "
    "Standard orders arrive in seven to ten business days. Expedited "
    "shipping options are available at checkout for an additional "
    "charge, with delivery in two to three business days.</p>\n",

    "<p class=\"notice\">Rhythm National Bank is an Equal Housing "
    "Lender. Credit products are subject to credit approval. Rates, "
    "terms and conditions are subject to change without notice and may "
    "vary by state of residence. Property insurance is required for all "
    "loans secured by real property, and flood insurance is required "
    "where applicable. Consult your tax advisor regarding the "
    "deductibility of interest. NMLS Institution ID 555013. Lending "
    "services are provided by Rhythm National Bank, N.A.</p>\n",

    "<p class=\"notice\">The information contained in these pages is "
    "provided for your convenience and does not constitute financial "
    "advice. Market data, where shown, is delayed at least fifteen "
    "minutes and is provided by third parties believed to be reliable, "
    "but accuracy is not guaranteed. Account alerts are delivered on a "
    "best-effort basis and may be delayed or prevented by factors "
    "outside our control; do not rely solely on alerts for account "
    "management. Standard message and data rates may apply.</p>\n",

    "<p class=\"notice\">To report a lost or stolen card, call "
    "1-800-555-0145, twenty-four hours a day, seven days a week. For "
    "general account questions our customer care team is available from "
    "7:00 AM to 11:00 PM Eastern Time, every day including most "
    "holidays. Written correspondence should be directed to Rhythm "
    "National Bank, Customer Care, P.O. Box 550139, Springfield. Please "
    "include your name and the last four digits of your account number "
    "on all correspondence, and never send full account numbers.</p>\n",
};

constexpr size_t kNumFillers = sizeof(kFillers) / sizeof(kFillers[0]);

/** The reserved Content-Length value and the blank line after it. */
PageFrame
endHeader(ResponseWriter &out, uint32_t block)
{
    PageFrame frame;
    frame.contentLengthOffset = out.reserve(block, kContentLengthReserve);
    out.appendStatic(block, "\r\n\r\n");
    frame.headerEnd = out.size();
    return frame;
}

} // namespace

PageFrame
beginResponse(ResponseWriter &out, std::string_view set_cookie)
{
    out.appendStatic(kBlockHttpHeader,
                     "HTTP/1.1 200 OK\r\n"
                     "Server: Rhythm/1.0\r\n"
                     "Content-Type: text/html; charset=ISO-8859-1\r\n"
                     "Cache-Control: no-store\r\n");
    if (!set_cookie.empty()) {
        out.appendStatic(kBlockHttpHeader, "Set-Cookie: ");
        out.appendDynamic(kBlockHttpHeader, set_cookie);
        out.appendStatic(kBlockHttpHeader, "\r\n");
    }
    out.appendStatic(kBlockHttpHeader, "Content-Length: ");
    return endHeader(out, kBlockHttpHeader);
}

PageFrame
openPage(ResponseWriter &out, uint32_t block, std::string_view server,
         std::string_view status)
{
    std::string header = "HTTP/1.1 ";
    header += status;
    header += "\r\nServer: ";
    header += server;
    header += "\r\nContent-Type: text/html\r\nContent-Length: ";
    out.appendStatic(block, header);
    return endHeader(out, block);
}

size_t
finishResponse(ResponseWriter &out, const PageFrame &frame)
{
    RHYTHM_ASSERT(out.size() >= frame.headerEnd);
    const size_t body = out.size() - frame.headerEnd;
    char buf[kContentLengthReserve + 1];
    const int n = std::snprintf(buf, sizeof(buf), "%zu", body);
    RHYTHM_ASSERT(n > 0 &&
                  static_cast<size_t>(n) <= kContentLengthReserve);
    out.patch(frame.contentLengthOffset,
              std::string_view(buf, static_cast<size_t>(n)));
    return body;
}

void
errorPage(HandlerContext &ctx, uint32_t block, uint32_t instructions,
          std::string_view body)
{
    ctx.failed = true;
    ctx.rec->block(block, instructions);
    ctx.out->appendStatic(block, "HTTP/1.1 400 Bad Request\r\n"
                                 "Content-Type: text/html\r\n"
                                 "Content-Length: ");
    ctx.out->appendDynamic(block, std::to_string(body.size()));
    ctx.out->appendStatic(block, "\r\n\r\n");
    ctx.out->appendDynamic(block, body);
}

bool
checkPage(std::string_view raw, std::string_view ok_marker,
          std::string_view type_marker, std::string *reason)
{
    std::string why = http::checkFraming(raw).error;
    if (why.empty() && raw.find(ok_marker) == std::string_view::npos)
        why = "missing marker";
    if (why.empty() && raw.find(type_marker) == std::string_view::npos)
        why = "missing type marker";
    if (reason && !why.empty())
        *reason = why;
    return why.empty();
}

void
pageHead(ResponseWriter &out, std::string_view title)
{
    out.appendStatic(kBlockHead,
                     "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
                     "<meta charset=\"ISO-8859-1\">\n<title>");
    out.appendDynamic(kBlockHead, title);
    out.appendStatic(kBlockHead, " - Rhythm National Bank</title>\n");
    out.appendStatic(kBlockHead, kStyles);
    out.appendStatic(kBlockHead, "</head>\n<body>\n");
}

void
pageNav(ResponseWriter &out, std::string_view user_name)
{
    out.appendStatic(kBlockNav,
                     "<div id=\"masthead\">RHYTHM NATIONAL BANK"
                     "<span style=\"float:right;font-size:12px\">");
    if (user_name.empty()) {
        out.appendStatic(kBlockNav, "Welcome, guest");
    } else {
        out.appendStatic(kBlockNav, "Signed in as ");
        out.appendDynamic(kBlockNav, user_name);
    }
    out.appendStatic(
        kBlockNav,
        "</span></div>\n<div id=\"navbar\">"
        "<a href=\"/bank/account_summary.php\">Accounts</a>"
        "<a href=\"/bank/bill_pay.php\">Bill Pay</a>"
        "<a href=\"/bank/transfer.php\">Transfers</a>"
        "<a href=\"/bank/order_check.php\">Checks</a>"
        "<a href=\"/bank/change_profile.php\">Profile</a>"
        "<a href=\"/bank/logout.php\">Sign Off</a>"
        "</div>\n<div id=\"content\">\n");
}

void
pageFooter(ResponseWriter &out)
{
    out.appendStatic(
        kBlockFooter,
        "</div>\n<div id=\"footer\">Rhythm National Bank, N.A. Member "
        "FDIC. Equal Housing Lender. &copy; 2014 Rhythm Bancorp. "
        "<a href=\"#\">Privacy</a> | <a href=\"#\">Security</a> | "
        "<a href=\"#\">Terms of Use</a> | <a href=\"#\">Accessibility</a>"
        "</div>\n</body>\n</html>\n");
}

void
fillerParagraphs(ResponseWriter &out, int count)
{
    for (int i = 0; i < count; ++i)
        out.appendStatic(kBlockFiller,
                         kFillers[static_cast<size_t>(i) % kNumFillers]);
}

void
tableOpen(ResponseWriter &out,
          std::initializer_list<std::string_view> headers)
{
    out.appendStatic(kBlockTable, "<table class=\"data\">\n<tr>");
    for (std::string_view h : headers) {
        out.appendStatic(kBlockTable, "<th>");
        out.appendStatic(kBlockTable, h);
        out.appendStatic(kBlockTable, "</th>");
    }
    out.appendStatic(kBlockTable, "</tr>\n");
}

void
tableClose(ResponseWriter &out)
{
    out.appendStatic(kBlockTable, "</table>\n");
}

std::string
formatCents(int64_t cents)
{
    const bool neg = cents < 0;
    const uint64_t mag = static_cast<uint64_t>(neg ? -cents : cents);
    std::string out = neg ? "-$" : "$";
    out += withCommas(mag / 100);
    char frac[8];
    std::snprintf(frac, sizeof(frac), ".%02u",
                  static_cast<unsigned>(mag % 100));
    out += frac;
    return out;
}

std::string
formatDate(uint32_t day)
{
    // Synthetic calendar: day 0 = 2000-01-01, 30-day months.
    const uint32_t years = day / 360;
    const uint32_t months = (day % 360) / 30;
    const uint32_t dom = day % 30;
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%04u-%02u-%02u", 2000 + years,
                  months + 1, dom + 1);
    return buf;
}

} // namespace rhythm::specweb::html
