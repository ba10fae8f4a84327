#include "backend/bankdb.hh"

#include <algorithm>

#include "util/hash.hh"
#include "util/logging.hh"

namespace rhythm::backend {
namespace {

const char *kDescriptions[] = {
    "grocery store purchase", "online retailer",     "utility payment",
    "salary deposit",         "restaurant",          "atm withdrawal",
    "insurance premium",      "subscription service", "fuel station",
    "pharmacy",               "interest credit",      "wire transfer",
};

} // namespace

BankDb::BankDb(uint64_t num_users, uint64_t seed)
    : numUsers_(num_users), nextTxId_(1), nextPayeeId_(1), nextPaymentId_(1),
      nextOrderId_(1)
{
    RHYTHM_ASSERT(num_users > 0 && num_users <= UINT32_MAX);
    Rng rng(seed);
    users_.resize(num_users);
    for (uint64_t uid = 1; uid <= num_users; ++uid) {
        UserData &u = users_[uid - 1];

        u.profile.userId = uid;
        u.profile.name = "User " + std::to_string(uid);
        u.profile.address = std::to_string(100 + rng.nextBounded(9899)) +
                            " Main Street, Springfield " +
                            std::to_string(10000 + rng.nextBounded(89999));
        u.profile.email = "user" + std::to_string(uid) + "@bank.example.com";
        u.profile.phone = "555-" + std::to_string(1000 + rng.nextBounded(8999));
        u.profile.password = "pwd" + std::to_string(uid);

        u.checking = Account{checkingId(uid), uid, true,
                             static_cast<int64_t>(rng.nextRange(50000,
                                                                5000000))};
        u.savings = Account{savingsId(uid), uid, false,
                            static_cast<int64_t>(rng.nextRange(100000,
                                                               20000000))};

        const int ntx = static_cast<int>(rng.nextRange(10, 20));
        for (int i = 0; i < ntx; ++i) {
            Transaction tx;
            tx.accountId =
                rng.nextBool(0.7) ? u.checking.accountId
                                  : u.savings.accountId;
            tx.amountCents = rng.nextRange(-250000, 250000);
            tx.date = static_cast<uint32_t>(18000 + i * 3 +
                                            rng.nextBounded(3));
            tx.description = kDescriptions[rng.nextBounded(
                sizeof(kDescriptions) / sizeof(kDescriptions[0]))];
            tx.hasCheck = tx.amountCents < 0 && rng.nextBool(0.3);
            appendTx(uid, std::move(tx));
        }

        const int npayee = static_cast<int>(rng.nextRange(2, 8));
        for (int i = 0; i < npayee; ++i) {
            Payee p;
            p.payeeId = nextPayeeId_++;
            p.userId = uid;
            p.name = "Payee " + std::to_string(p.payeeId);
            p.address = std::to_string(1 + rng.nextBounded(999)) +
                        " Commerce Ave";
            p.externalAccount = 900000000 + rng.nextBounded(99999999);
            u.payees.push_back(std::move(p));
        }

        const int npay = static_cast<int>(rng.nextRange(0, 5));
        for (int i = 0; i < npay && !u.payees.empty(); ++i) {
            BillPayment bp;
            bp.paymentId = nextPaymentId_++;
            bp.userId = uid;
            bp.payeeId =
                u.payees[rng.nextBounded(u.payees.size())].payeeId;
            bp.amountCents = static_cast<int64_t>(rng.nextRange(500, 50000));
            bp.date = static_cast<uint32_t>(18000 + rng.nextBounded(90));
            bp.executed = rng.nextBool(0.5);
            u.payments.push_back(bp);
        }
    }
}

bool
BankDb::validUser(uint64_t user_id) const
{
    return user_id >= 1 && user_id <= numUsers_;
}

BankDb::UserData &
BankDb::user(uint64_t user_id)
{
    RHYTHM_ASSERT(validUser(user_id), "invalid user id");
    return users_[user_id - 1];
}

const BankDb::UserData &
BankDb::user(uint64_t user_id) const
{
    RHYTHM_ASSERT(validUser(user_id), "invalid user id");
    return users_[user_id - 1];
}

uint64_t
BankDb::appendTx(uint64_t user_id, Transaction tx)
{
    std::vector<Transaction> &txs = user(user_id).txs;
    RHYTHM_ASSERT(txs.size() < UINT32_MAX);
    tx.txId = nextTxId_++;
    txIndex_.push_back(TxRef{static_cast<uint32_t>(user_id - 1),
                             static_cast<uint32_t>(txs.size())});
    txs.push_back(std::move(tx));
    return txs.back().txId;
}

bool
BankDb::authenticate(uint64_t user_id, std::string_view password) const
{
    if (!validUser(user_id))
        return false;
    return user(user_id).profile.password == password;
}

const Profile &
BankDb::profile(uint64_t user_id) const
{
    return user(user_id).profile;
}

void
BankDb::updateProfile(uint64_t user_id, std::string_view address,
                      std::string_view email, std::string_view phone)
{
    UserData &u = user(user_id);
    if (!address.empty())
        u.profile.address = std::string(address);
    if (!email.empty())
        u.profile.email = std::string(email);
    if (!phone.empty())
        u.profile.phone = std::string(phone);
}

std::vector<const Account *>
BankDb::accounts(uint64_t user_id) const
{
    const UserData &u = user(user_id);
    return {&u.checking, &u.savings};
}

const Account *
BankDb::account(uint64_t account_id) const
{
    const uint64_t uid = account_id / 10;
    if (!validUser(uid))
        return nullptr;
    const UserData &u = user(uid);
    if (u.checking.accountId == account_id)
        return &u.checking;
    if (u.savings.accountId == account_id)
        return &u.savings;
    return nullptr;
}

std::vector<const Transaction *>
BankDb::transactions(uint64_t account_id, size_t max) const
{
    std::vector<const Transaction *> out;
    const uint64_t uid = account_id / 10;
    if (!validUser(uid))
        return out;
    const UserData &u = user(uid);
    for (auto it = u.txs.rbegin(); it != u.txs.rend() && out.size() < max;
         ++it) {
        if (it->accountId == account_id)
            out.push_back(&*it);
    }
    return out;
}

const Transaction *
BankDb::transaction(uint64_t tx_id) const
{
    if (tx_id == 0 || tx_id > txIndex_.size())
        return nullptr;
    const TxRef ref = txIndex_[tx_id - 1];
    return &users_[ref.user].txs[ref.pos];
}

std::vector<uint64_t>
BankDb::checkTransactionIds() const
{
    std::vector<uint64_t> out;
    for (const UserData &u : users_) {
        for (const Transaction &tx : u.txs) {
            if (tx.hasCheck)
                out.push_back(tx.txId);
        }
    }
    return out;
}

std::vector<const Payee *>
BankDb::payees(uint64_t user_id) const
{
    std::vector<const Payee *> out;
    for (const Payee &p : user(user_id).payees)
        out.push_back(&p);
    return out;
}

uint64_t
BankDb::addPayee(uint64_t user_id, std::string_view name,
                 std::string_view address, uint64_t external_account)
{
    UserData &u = user(user_id);
    Payee p;
    p.payeeId = nextPayeeId_++;
    p.userId = user_id;
    p.name = std::string(name);
    p.address = std::string(address);
    p.externalAccount = external_account;
    u.payees.push_back(std::move(p));
    return u.payees.back().payeeId;
}

uint64_t
BankDb::payBill(uint64_t user_id, uint64_t payee_id, int64_t amount_cents,
                uint32_t date)
{
    UserData &u = user(user_id);
    const bool known =
        std::any_of(u.payees.begin(), u.payees.end(),
                    [&](const Payee &p) { return p.payeeId == payee_id; });
    if (!known || amount_cents <= 0 ||
        u.checking.balanceCents < amount_cents)
        return 0;

    u.checking.balanceCents -= amount_cents;

    BillPayment bp;
    bp.paymentId = nextPaymentId_++;
    bp.userId = user_id;
    bp.payeeId = payee_id;
    bp.amountCents = amount_cents;
    bp.date = date;
    bp.executed = false;
    u.payments.push_back(bp);

    Transaction tx;
    tx.accountId = u.checking.accountId;
    tx.amountCents = -amount_cents;
    tx.date = date;
    tx.description = "bill payment";
    appendTx(user_id, std::move(tx));
    return bp.paymentId;
}

std::vector<const BillPayment *>
BankDb::billPayments(uint64_t user_id, uint32_t from, uint32_t to) const
{
    std::vector<const BillPayment *> out;
    for (const BillPayment &bp : user(user_id).payments) {
        if (bp.date >= from && bp.date <= to)
            out.push_back(&bp);
    }
    return out;
}

uint64_t
BankDb::transfer(uint64_t user_id, uint64_t from_account,
                 uint64_t to_account, int64_t amount_cents)
{
    UserData &u = user(user_id);
    auto resolve = [&](uint64_t id) -> Account * {
        if (u.checking.accountId == id)
            return &u.checking;
        if (u.savings.accountId == id)
            return &u.savings;
        return nullptr;
    };
    Account *from = resolve(from_account);
    Account *to = resolve(to_account);
    if (!from || !to || from == to || amount_cents <= 0 ||
        from->balanceCents < amount_cents)
        return 0;

    from->balanceCents -= amount_cents;
    to->balanceCents += amount_cents;

    Transaction tx;
    tx.accountId = from_account;
    tx.amountCents = -amount_cents;
    tx.date = 18100;
    tx.description = "transfer";
    return appendTx(user_id, std::move(tx));
}

uint64_t
BankDb::externalDebit(uint64_t user_id, uint64_t peer_user,
                      int64_t amount_cents)
{
    UserData &u = user(user_id);
    if (amount_cents <= 0 || u.checking.balanceCents < amount_cents)
        return 0;
    u.checking.balanceCents -= amount_cents;
    Transaction tx;
    tx.accountId = u.checking.accountId;
    tx.amountCents = -amount_cents;
    tx.date = 18100;
    tx.description = "xfer-out to user " + std::to_string(peer_user);
    return appendTx(user_id, std::move(tx));
}

uint64_t
BankDb::externalCredit(uint64_t user_id, uint64_t peer_user,
                       int64_t amount_cents)
{
    UserData &u = user(user_id);
    if (amount_cents <= 0)
        return 0;
    u.checking.balanceCents += amount_cents;
    Transaction tx;
    tx.accountId = u.checking.accountId;
    tx.amountCents = amount_cents;
    tx.date = 18100;
    tx.description = "xfer-in from user " + std::to_string(peer_user);
    return appendTx(user_id, std::move(tx));
}

uint64_t
BankDb::orderCheck(uint64_t user_id, uint32_t style, uint32_t quantity)
{
    UserData &u = user(user_id);
    CheckOrder order;
    order.orderId = nextOrderId_++;
    order.userId = user_id;
    order.style = style;
    order.quantity = quantity;
    order.placed = false;
    u.orders.push_back(order);
    return order.orderId;
}

bool
BankDb::placeCheckOrder(uint64_t user_id, uint64_t order_id)
{
    for (CheckOrder &order : user(user_id).orders) {
        if (order.orderId == order_id) {
            order.placed = true;
            return true;
        }
    }
    return false;
}

namespace {

/** Folds one length-prefixed string into both accumulators. */
void
hashString(util::Fnv1a64 &f, util::Mix64 &m, std::string_view s)
{
    f.update(s.size());
    m.update(s.size());
    uint64_t word = 0;
    int shift = 0;
    for (char c : s) {
        word |= static_cast<uint64_t>(static_cast<uint8_t>(c)) << shift;
        shift += 8;
        if (shift == 64) {
            f.update(word);
            m.update(word);
            word = 0;
            shift = 0;
        }
    }
    if (shift != 0) {
        f.update(word);
        m.update(word);
    }
}

void
hashWord(util::Fnv1a64 &f, util::Mix64 &m, uint64_t word)
{
    f.update(word);
    m.update(word);
}

} // namespace

uint64_t
BankDb::digest() const
{
    util::Fnv1a64 f;
    util::Mix64 m;
    hashWord(f, m, numUsers_);
    hashWord(f, m, nextTxId_);
    hashWord(f, m, nextPayeeId_);
    hashWord(f, m, nextPaymentId_);
    hashWord(f, m, nextOrderId_);
    for (const UserData &u : users_) {
        hashString(f, m, u.profile.name);
        hashString(f, m, u.profile.address);
        hashString(f, m, u.profile.email);
        hashString(f, m, u.profile.phone);
        hashString(f, m, u.profile.password);
        for (const Account *a : {&u.checking, &u.savings}) {
            hashWord(f, m, a->accountId);
            hashWord(f, m, static_cast<uint64_t>(a->balanceCents));
        }
        hashWord(f, m, u.txs.size());
        for (const Transaction &tx : u.txs) {
            hashWord(f, m, tx.txId);
            hashWord(f, m, tx.accountId);
            hashWord(f, m, static_cast<uint64_t>(tx.amountCents));
            hashWord(f, m, tx.date);
            hashWord(f, m, tx.hasCheck ? 1 : 0);
            hashString(f, m, tx.description);
        }
        hashWord(f, m, u.payees.size());
        for (const Payee &p : u.payees) {
            hashWord(f, m, p.payeeId);
            hashWord(f, m, p.externalAccount);
            hashString(f, m, p.name);
            hashString(f, m, p.address);
        }
        hashWord(f, m, u.payments.size());
        for (const BillPayment &p : u.payments) {
            hashWord(f, m, p.paymentId);
            hashWord(f, m, p.payeeId);
            hashWord(f, m, static_cast<uint64_t>(p.amountCents));
            hashWord(f, m, p.date);
            hashWord(f, m, p.executed ? 1 : 0);
        }
        hashWord(f, m, u.orders.size());
        for (const CheckOrder &o : u.orders) {
            hashWord(f, m, o.orderId);
            hashWord(f, m, o.style);
            hashWord(f, m, o.quantity);
            hashWord(f, m, o.placed ? 1 : 0);
        }
    }
    // Fold the FNV digest into the mix chain so a collision needs to
    // defeat both structurally independent accumulators at once.
    m.update(f.digest());
    return m.digest();
}

const CheckOrder *
BankDb::checkOrder(uint64_t order_id) const
{
    for (const UserData &u : users_) {
        for (const CheckOrder &order : u.orders) {
            if (order.orderId == order_id)
                return &order;
        }
    }
    return nullptr;
}

} // namespace rhythm::backend
