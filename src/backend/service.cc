#include "backend/service.hh"

#include "util/strings.hh"

namespace rhythm::backend {
namespace {

/// Backend service basic blocks.
enum BackendBlock : uint32_t {
    kBlockDecode = kBackendBlockBase + 0,
    kBlockLookup = kBackendBlockBase + 1,
    kBlockRecordEmit = kBackendBlockBase + 2,
    kBlockMutate = kBackendBlockBase + 3,
    kBlockError = kBackendBlockBase + 4,
};

/// Fixed decode/validation weight per request.
constexpr uint32_t kDecodeInsts = 380;
/// Weight of a user/account lookup.
constexpr uint32_t kLookupInsts = 220;
/// Weight of a mutation (balance update, insert).
constexpr uint32_t kMutateInsts = 450;
/// Per-byte cost of emitting a response record.
constexpr uint32_t kEmitInstsPerByte = 3;

/// Appends a record and charges its emission cost.
void
emit(std::string &payload, std::string record, simt::TraceRecorder &rec)
{
    rec.block(kBlockRecordEmit,
              32 + static_cast<uint32_t>(record.size()) * kEmitInstsPerByte);
    payload.append(record);
    payload.push_back(';');
}

std::string
centsToString(int64_t cents)
{
    return std::to_string(cents);
}

} // namespace

std::string
BackendService::execute(std::string_view request, simt::TraceRecorder &rec)
{
    rec.block(kBlockDecode,
              kDecodeInsts + static_cast<uint32_t>(request.size()) * 2);
    BackendRequest req;
    if (!BackendRequest::parse(request, req)) {
        rec.block(kBlockError, 48);
        return response::error("malformed");
    }
    return execute(req, rec);
}

std::string
BackendService::execute(const BackendRequest &req, simt::TraceRecorder &rec)
{
    ++requestsServed_;
    rec.block(kBlockLookup, kLookupInsts);

    auto arg = [&](size_t i) -> std::string_view {
        return i < req.args.size() ? std::string_view(req.args[i])
                                   : std::string_view();
    };
    auto argU64 = [&](size_t i) -> uint64_t {
        uint64_t v = 0;
        parseU64(arg(i), v);
        return v;
    };

    if (req.op != Op::GetCheckDetail && !db_.validUser(req.userId)) {
        rec.block(kBlockError, 48);
        return response::error("no such user");
    }

    std::string payload;
    switch (req.op) {
      case Op::Authenticate: {
        if (!db_.authenticate(req.userId, arg(0))) {
            rec.block(kBlockError, 64);
            return response::error("bad credentials");
        }
        emit(payload, db_.profile(req.userId).name, rec);
        break;
      }
      case Op::GetAccounts: {
        for (const Account *a : db_.accounts(req.userId)) {
            emit(payload,
                 std::to_string(a->accountId) + "," +
                     (a->isChecking ? "checking" : "savings") + "," +
                     centsToString(a->balanceCents),
                 rec);
        }
        break;
      }
      case Op::GetTransactions: {
        const uint64_t account = argU64(0);
        const uint64_t max = argU64(1) ? argU64(1) : 10;
        for (const Transaction *tx : db_.transactions(account, max)) {
            emit(payload,
                 std::to_string(tx->txId) + "," + std::to_string(tx->date) +
                     "," + centsToString(tx->amountCents) + "," +
                     tx->description + "," + (tx->hasCheck ? "1" : "0"),
                 rec);
        }
        break;
      }
      case Op::GetPayees: {
        for (const Payee *p : db_.payees(req.userId)) {
            emit(payload,
                 std::to_string(p->payeeId) + "," + p->name + "," +
                     p->address + "," + std::to_string(p->externalAccount),
                 rec);
        }
        break;
      }
      case Op::AddPayee: {
        rec.block(kBlockMutate, kMutateInsts);
        const uint64_t id =
            db_.addPayee(req.userId, arg(0), arg(1), argU64(2));
        emit(payload, std::to_string(id), rec);
        break;
      }
      case Op::PayBill: {
        rec.block(kBlockMutate, kMutateInsts);
        const uint64_t id = db_.payBill(
            req.userId, argU64(0), static_cast<int64_t>(argU64(1)),
            static_cast<uint32_t>(argU64(2)));
        if (id == 0) {
            rec.block(kBlockError, 64);
            return response::error("payment rejected");
        }
        emit(payload, std::to_string(id), rec);
        break;
      }
      case Op::GetPayments: {
        const uint32_t from = static_cast<uint32_t>(argU64(0));
        const uint32_t to =
            req.args.size() > 1 ? static_cast<uint32_t>(argU64(1)) : 0xffffffffu;
        for (const BillPayment *bp : db_.billPayments(req.userId, from, to)) {
            emit(payload,
                 std::to_string(bp->paymentId) + "," +
                     std::to_string(bp->payeeId) + "," +
                     centsToString(bp->amountCents) + "," +
                     std::to_string(bp->date) + "," +
                     (bp->executed ? "1" : "0"),
                 rec);
        }
        break;
      }
      case Op::UpdateProfile: {
        rec.block(kBlockMutate, kMutateInsts);
        db_.updateProfile(req.userId, arg(0), arg(1), arg(2));
        emit(payload, "updated", rec);
        break;
      }
      case Op::GetProfile: {
        const Profile &p = db_.profile(req.userId);
        emit(payload,
             p.name + "," + p.address + "," + p.email + "," + p.phone, rec);
        break;
      }
      case Op::GetCheckDetail: {
        const Transaction *tx = db_.transaction(argU64(0));
        if (!tx || !tx->hasCheck) {
            rec.block(kBlockError, 64);
            return response::error("no such check");
        }
        emit(payload,
             std::to_string(tx->txId) + "," + std::to_string(tx->date) +
                 "," + centsToString(tx->amountCents) + "," +
                 tx->description + ",check-" + std::to_string(tx->txId),
             rec);
        break;
      }
      case Op::OrderCheck: {
        rec.block(kBlockMutate, kMutateInsts);
        const uint64_t id =
            db_.orderCheck(req.userId, static_cast<uint32_t>(argU64(0)),
                           static_cast<uint32_t>(argU64(1)));
        emit(payload, std::to_string(id), rec);
        break;
      }
      case Op::PlaceCheckOrder: {
        rec.block(kBlockMutate, kMutateInsts);
        if (req.args.size() >= 2) {
            // Combined create-and-place (the place_check_order page's
            // single backend round trip): args = style, quantity.
            const uint64_t id =
                db_.orderCheck(req.userId,
                               static_cast<uint32_t>(argU64(0)),
                               static_cast<uint32_t>(argU64(1)));
            db_.placeCheckOrder(req.userId, id);
            emit(payload, std::to_string(id), rec);
            break;
        }
        if (!db_.placeCheckOrder(req.userId, argU64(0))) {
            rec.block(kBlockError, 64);
            return response::error("no such order");
        }
        emit(payload, "placed", rec);
        break;
      }
      case Op::Summary: {
        // Composite record set: "A,..." account rows followed by
        // "T,..." recent checking transactions — the account_summary
        // page's single backend round trip.
        for (const Account *a : db_.accounts(req.userId)) {
            emit(payload,
                 std::string("A,") + std::to_string(a->accountId) + "," +
                     (a->isChecking ? "checking" : "savings") + "," +
                     centsToString(a->balanceCents),
                 rec);
        }
        for (const Transaction *tx :
             db_.transactions(BankDb::checkingId(req.userId), 12)) {
            emit(payload,
                 std::string("T,") + std::to_string(tx->txId) + "," +
                     std::to_string(tx->date) + "," +
                     centsToString(tx->amountCents) + "," +
                     tx->description + "," + (tx->hasCheck ? "1" : "0"),
                 rec);
        }
        break;
      }
      case Op::Transfer: {
        rec.block(kBlockMutate, kMutateInsts);
        const uint64_t id = db_.transfer(req.userId, argU64(0), argU64(1),
                                         static_cast<int64_t>(argU64(2)));
        if (id == 0) {
            rec.block(kBlockError, 64);
            return response::error("transfer rejected");
        }
        emit(payload, std::to_string(id), rec);
        break;
      }
      case Op::XferOut: {
        rec.block(kBlockMutate, kMutateInsts);
        const uint64_t id = db_.externalDebit(
            req.userId, argU64(0), static_cast<int64_t>(argU64(1)));
        if (id == 0) {
            rec.block(kBlockError, 64);
            return response::error("transfer rejected");
        }
        emit(payload, std::to_string(id), rec);
        break;
      }
      case Op::XferIn: {
        rec.block(kBlockMutate, kMutateInsts);
        const uint64_t id = db_.externalCredit(
            req.userId, argU64(0), static_cast<int64_t>(argU64(1)));
        if (id == 0) {
            rec.block(kBlockError, 64);
            return response::error("transfer rejected");
        }
        emit(payload, std::to_string(id), rec);
        break;
      }
    }
    return response::ok(payload);
}

} // namespace rhythm::backend
