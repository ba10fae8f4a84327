#include "specweb/workload.hh"

#include <algorithm>

#include "http/http.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace rhythm::specweb {
namespace {

/** Expected <h2> marker per page type (validator content check). */
std::string_view
expectedMarker(RequestType type)
{
    switch (type) {
      case RequestType::Login:
        return "Welcome back";
      case RequestType::AccountSummary:
        return "Account Summary";
      case RequestType::AddPayee:
        return "Add a Payee";
      case RequestType::BillPay:
        return "Pay a Bill";
      case RequestType::BillPayStatusOutput:
        return "Bill Payment Status";
      case RequestType::ChangeProfile:
        return "Update Your Profile";
      case RequestType::CheckDetailHtml:
        return "Check Detail";
      case RequestType::OrderCheck:
        return "Order Checks";
      case RequestType::PlaceCheckOrder:
        return "check order has been placed";
      case RequestType::PostPayee:
        return "Payee added";
      case RequestType::PostTransfer:
        return "Transfer complete";
      case RequestType::Profile:
        return "Your Profile";
      case RequestType::Transfer:
        return "Transfer Funds";
      case RequestType::Logout:
        return "You have signed off";
    }
    return "";
}

} // namespace

WorkloadGenerator::WorkloadGenerator(const backend::BankDb &db, uint64_t seed)
    : db_(db), rng_(seed), checkTxIds_(db.checkTransactionIds())
{
    double total = 0.0;
    for (size_t i = 0; i < kNumRequestTypes; ++i)
        total += typeTable()[i].mixPercent;
    double acc = 0.0;
    for (size_t i = 0; i < kNumRequestTypes; ++i) {
        acc += typeTable()[i].mixPercent / total;
        cumulative_[i] = acc;
    }
    cumulative_[kNumRequestTypes - 1] = 1.0;
}

RequestType
WorkloadGenerator::sampleType()
{
    const double u = rng_.nextDouble();
    for (size_t i = 0; i < kNumRequestTypes; ++i) {
        if (u <= cumulative_[i])
            return static_cast<RequestType>(i);
    }
    return RequestType::Logout;
}

RequestType
WorkloadGenerator::sampleBrowsingType()
{
    RequestType type;
    do {
        type = sampleType();
    } while (type == RequestType::Login || type == RequestType::Logout);
    return type;
}

uint64_t
WorkloadGenerator::sampleUser()
{
    return 1 + rng_.nextBounded(db_.numUsers());
}

GeneratedRequest
WorkloadGenerator::generate(RequestType type, uint64_t user_id,
                            uint64_t session_id)
{
    RHYTHM_ASSERT(db_.validUser(user_id), "generator given invalid user");
    GeneratedRequest out;
    out.type = type;
    out.userId = user_id;
    out.sessionId = type == RequestType::Login ? 0 : session_id;

    const std::string cookie =
        out.sessionId == 0 ? std::string()
                           : "session=" + std::to_string(out.sessionId);
    const RequestTypeInfo &info = typeInfo(type);
    using Params = std::vector<std::pair<std::string, std::string>>;
    Params params;
    http::Method method = http::Method::Get;

    switch (type) {
      case RequestType::Login:
        method = http::Method::Post;
        params = {{"userid", std::to_string(user_id)},
                  {"password", "pwd" + std::to_string(user_id)}};
        break;
      case RequestType::CheckDetailHtml: {
        uint64_t tx = 0;
        if (!checkTxIds_.empty())
            tx = checkTxIds_[rng_.nextBounded(checkTxIds_.size())];
        params = {{"tx", std::to_string(tx)}};
        break;
      }
      case RequestType::BillPayStatusOutput: {
        // 30% of status requests execute a payment (form target); the
        // rest list history.
        if (rng_.nextBool(0.3)) {
            auto payees = db_.payees(user_id);
            if (!payees.empty()) {
                method = http::Method::Post;
                params = {{"payee",
                           std::to_string(
                               payees[rng_.nextBounded(payees.size())]
                                   ->payeeId)},
                          {"amount",
                           std::to_string(rng_.nextRange(100, 5000))}};
            }
        }
        break;
      }
      case RequestType::PlaceCheckOrder:
        method = http::Method::Post;
        params = {{"style", std::to_string(rng_.nextRange(1, 4))},
                  {"quantity",
                   std::to_string(50u << rng_.nextBounded(3))}};
        break;
      case RequestType::PostPayee:
        method = http::Method::Post;
        params = {{"name",
                   "Utility Company " +
                       std::to_string(rng_.nextBounded(10000))},
                  {"address",
                   std::to_string(1 + rng_.nextBounded(9999)) +
                       " Industry Blvd"},
                  {"account",
                   std::to_string(100000000 + rng_.nextBounded(899999999))}};
        break;
      case RequestType::PostTransfer: {
        method = http::Method::Post;
        const bool from_checking = rng_.nextBool(0.5);
        const uint64_t from = from_checking
                                  ? backend::BankDb::checkingId(user_id)
                                  : backend::BankDb::savingsId(user_id);
        const uint64_t to = from_checking
                                ? backend::BankDb::savingsId(user_id)
                                : backend::BankDb::checkingId(user_id);
        params = {{"from", std::to_string(from)},
                  {"to", std::to_string(to)},
                  {"amount", std::to_string(rng_.nextRange(1, 1000))}};
        break;
      }
      default:
        break; // session-only pages need no parameters
    }

    out.raw = http::buildRequest(method, info.path, params, cookie);
    return out;
}

GeneratedRequest
WorkloadGenerator::fromPool(
    RequestType type, std::span<const std::pair<uint64_t, uint64_t>> pool,
    uint64_t i)
{
    if (type == RequestType::Login)
        return generate(type, sampleUser(), 0);
    const auto &[sid, user] = pool[i % pool.size()];
    return generate(type, user, sid);
}

GeneratedRequest
WorkloadGenerator::next(uint64_t session_id)
{
    return generate(sampleType(), sampleUser(), session_id);
}

ValidationResult
validateResponse(RequestType type, std::string_view raw)
{
    ValidationResult res;
    if (!startsWith(raw, "HTTP/1.1 200 OK\r\n")) {
        res.reason = "bad status line";
        return res;
    }
    const size_t header_end = raw.find("\r\n\r\n");
    if (header_end == std::string_view::npos) {
        res.reason = "no header terminator";
        return res;
    }
    const size_t body_size = raw.size() - header_end - 4;

    // Locate and check Content-Length; the device writer pads the value
    // with trailing whitespace, which HTTP permits.
    const size_t cl_pos = raw.find("Content-Length: ");
    if (cl_pos == std::string_view::npos || cl_pos > header_end) {
        res.reason = "missing Content-Length";
        return res;
    }
    size_t p = cl_pos + 16;
    uint64_t declared = 0;
    bool digits = false;
    while (p < raw.size() && raw[p] >= '0' && raw[p] <= '9') {
        declared = declared * 10 + static_cast<uint64_t>(raw[p] - '0');
        digits = true;
        ++p;
    }
    if (!digits) {
        res.reason = "unparsable Content-Length";
        return res;
    }
    while (p < raw.size() && raw[p] == ' ')
        ++p;
    if (p + 1 >= raw.size() || raw[p] != '\r' || raw[p + 1] != '\n') {
        res.reason = "Content-Length not whitespace-terminated";
        return res;
    }
    if (declared != body_size) {
        res.reason = "Content-Length mismatch: declared " +
                     std::to_string(declared) + " actual " +
                     std::to_string(body_size);
        return res;
    }

    const std::string_view body = raw.substr(header_end + 4);
    if (body.find("<!-- page:ok -->") == std::string_view::npos) {
        res.reason = "missing completion marker";
        return res;
    }
    if (body.find(expectedMarker(type)) == std::string_view::npos) {
        res.reason = "missing type marker: " +
                     std::string(expectedMarker(type));
        return res;
    }
    if (type == RequestType::Login &&
        raw.substr(0, header_end).find("Set-Cookie: session=") ==
            std::string_view::npos) {
        res.reason = "login response missing session cookie";
        return res;
    }
    res.ok = true;
    return res;
}

uint64_t
extractSessionId(std::string_view response)
{
    const size_t pos = response.find("Set-Cookie: session=");
    if (pos == std::string_view::npos)
        return 0;
    size_t p = pos + 20;
    uint64_t sid = 0;
    while (p < response.size() && response[p] >= '0' && response[p] <= '9') {
        sid = sid * 10 + static_cast<uint64_t>(response[p] - '0');
        ++p;
    }
    return sid;
}

} // namespace rhythm::specweb
