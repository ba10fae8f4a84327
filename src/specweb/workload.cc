#include "specweb/workload.hh"

#include "http/http.hh"
#include "util/logging.hh"

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
    : db_(db), rng_(seed),
      mix_(std::span(typeTable(), kNumRequestTypes),
           &RequestTypeInfo::mixPercent),
      checkTxIds_(db.checkTransactionIds())
{
}

RequestType
WorkloadGenerator::sampleType()
{
    return static_cast<RequestType>(mix_.draw(rng_));
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
    http::Framing framing = http::checkFraming(raw);
    if (!framing.error.empty())
        res.reason = std::move(framing.error);
    else if (framing.body.find("<!-- page:ok -->") == std::string_view::npos)
        res.reason = "missing completion marker";
    else if (framing.body.find(expectedMarker(type)) ==
             std::string_view::npos)
        res.reason =
            "missing type marker: " + std::string(expectedMarker(type));
    else if (type == RequestType::Login &&
             framing.header.find("Set-Cookie: session=") ==
                 std::string_view::npos)
        res.reason = "login response missing session cookie";
    else
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
