#include "specweb/quickpay.hh"

#include "backend/protocol.hh"
#include "specweb/banking.hh"
#include "specweb/html.hh"
#include "util/strings.hh"

namespace rhythm::specweb {
namespace {

namespace bp = rhythm::backend;

/** Block ids for quick pay (host-only; base beyond the device apps). */
enum QuickPayBlock : uint32_t {
    kQpValidate = 6000,
    kQpPayment = 6001,
    kQpRender = 6002,
};

} // namespace

std::string
serveQuickPay(const http::Request &request,
              backend::BackendService &backend, SessionProvider &sessions,
              simt::TraceRecorder &rec)
{
    StringResponseWriter writer(rec);
    HandlerContext ctx;
    ctx.request = &request;
    ctx.rec = &rec;
    ctx.out = &writer;
    ctx.sessions = &sessions;

    rec.block(kQpValidate, 400);
    const uint64_t user = request.sessionId
                              ? sessions.lookup(request.sessionId, rec)
                              : 0;
    if (user == 0) {
        emitErrorPage(ctx, "session invalid or expired");
        return writer.str();
    }

    auto payees = split(request.param("payees"), ',');
    auto amounts = split(request.param("amounts"), ',');
    if (payees.empty() || payees.size() != amounts.size() ||
        payees.size() > 16) {
        emitErrorPage(ctx, "malformed quick pay submission");
        return writer.str();
    }

    // Variable number of backend round trips — one per payment. This is
    // what makes quick pay unsuitable for a fixed cohort stage pipeline.
    struct Outcome
    {
        std::string payee;
        std::string amount;
        std::string confirmation; //!< empty = rejected
    };
    std::vector<Outcome> outcomes;
    for (size_t i = 0; i < payees.size(); ++i) {
        rec.block(kQpPayment, 300);
        uint64_t payee = 0, cents = 0;
        Outcome outcome;
        outcome.payee = std::string(payees[i]);
        outcome.amount = std::string(amounts[i]);
        if (parseU64(trim(payees[i]), payee) &&
            parseU64(trim(amounts[i]), cents) && cents > 0) {
            bp::BackendRequest breq;
            breq.op = bp::Op::PayBill;
            breq.userId = user;
            breq.args = {std::to_string(payee), std::to_string(cents),
                         "18160"};
            const std::string resp =
                backend.execute(breq.serialize(), rec);
            if (bp::response::isOk(resp)) {
                auto records =
                    bp::response::records(bp::response::payload(resp));
                if (!records.empty())
                    outcome.confirmation = std::string(records[0]);
            }
        }
        outcomes.push_back(std::move(outcome));
    }

    const html::PageFrame frame = html::beginResponse(writer);
    html::pageHead(writer, "Quick Pay Results");
    html::pageNav(writer, "customer");
    writer.appendStatic(kQpRender,
                        "<h2>Quick Pay Results</h2>\n<p>Each payment "
                        "below was processed individually; rejected "
                        "payments leave your balance unchanged.</p>\n");
    html::tableOpen(writer, {"Payee", "Amount", "Status"});
    for (const Outcome &o : outcomes) {
        writer.appendStatic(kQpRender, "<tr><td>payee ");
        writer.appendDynamic(kQpRender, o.payee);
        writer.appendStatic(kQpRender, "</td><td>");
        writer.appendDynamic(kQpRender, o.amount);
        writer.appendStatic(kQpRender, "</td><td>");
        if (o.confirmation.empty()) {
            writer.appendStatic(kQpRender, "rejected");
        } else {
            writer.appendStatic(kQpRender, "confirmation ");
            writer.appendDynamic(kQpRender, o.confirmation);
        }
        writer.appendStatic(kQpRender, "</td></tr>\n");
    }
    html::tableClose(writer);
    html::fillerParagraphs(writer, 4);
    writer.appendStatic(kQpRender, "<!-- page:ok -->\n");
    html::pageFooter(writer);
    html::finishResponse(writer, frame);
    return writer.str();
}

} // namespace rhythm::specweb
