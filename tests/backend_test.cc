/**
 * @file
 * Unit tests for the bank database, wire protocol and backend service.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "backend/bankdb.hh"
#include "backend/protocol.hh"
#include "backend/service.hh"
#include "simt/trace.hh"

namespace rhythm::backend {
namespace {

simt::NullTracer gNull;

class BankDbTest : public ::testing::Test
{
  protected:
    BankDb db_{100, 7};
};

TEST_F(BankDbTest, PopulationIsDeterministic)
{
    BankDb other(100, 7);
    EXPECT_EQ(db_.profile(42).address, other.profile(42).address);
    EXPECT_EQ(db_.account(BankDb::checkingId(42))->balanceCents,
              other.account(BankDb::checkingId(42))->balanceCents);
}

TEST_F(BankDbTest, UserValidity)
{
    EXPECT_TRUE(db_.validUser(1));
    EXPECT_TRUE(db_.validUser(100));
    EXPECT_FALSE(db_.validUser(0));
    EXPECT_FALSE(db_.validUser(101));
}

TEST_F(BankDbTest, Authentication)
{
    EXPECT_TRUE(db_.authenticate(5, "pwd5"));
    EXPECT_FALSE(db_.authenticate(5, "pwd6"));
    EXPECT_FALSE(db_.authenticate(0, "pwd0"));
    EXPECT_FALSE(db_.authenticate(999, "x"));
}

TEST_F(BankDbTest, EveryUserHasTwoAccounts)
{
    for (uint64_t uid = 1; uid <= 100; ++uid) {
        auto accts = db_.accounts(uid);
        ASSERT_EQ(accts.size(), 2u);
        EXPECT_TRUE(accts[0]->isChecking);
        EXPECT_FALSE(accts[1]->isChecking);
        EXPECT_GT(accts[0]->balanceCents, 0);
        EXPECT_GT(accts[1]->balanceCents, 0);
    }
}

TEST_F(BankDbTest, AccountLookup)
{
    EXPECT_NE(db_.account(BankDb::checkingId(3)), nullptr);
    EXPECT_NE(db_.account(BankDb::savingsId(3)), nullptr);
    EXPECT_EQ(db_.account(BankDb::checkingId(3))->userId, 3u);
    EXPECT_EQ(db_.account(999999), nullptr);
    EXPECT_EQ(db_.account(39), nullptr); // user 3, invalid suffix
}

TEST_F(BankDbTest, TransactionsNewestFirstAndBounded)
{
    auto txs = db_.transactions(BankDb::checkingId(1), 5);
    EXPECT_LE(txs.size(), 5u);
    for (size_t i = 1; i < txs.size(); ++i)
        EXPECT_GE(txs[i - 1]->date, txs[i]->date);
}

TEST_F(BankDbTest, TransferMovesFunds)
{
    const int64_t before_c =
        db_.account(BankDb::checkingId(9))->balanceCents;
    const int64_t before_s = db_.account(BankDb::savingsId(9))->balanceCents;
    const uint64_t tx =
        db_.transfer(9, BankDb::checkingId(9), BankDb::savingsId(9), 10000);
    EXPECT_NE(tx, 0u);
    EXPECT_EQ(db_.account(BankDb::checkingId(9))->balanceCents,
              before_c - 10000);
    EXPECT_EQ(db_.account(BankDb::savingsId(9))->balanceCents,
              before_s + 10000);
}

TEST_F(BankDbTest, TransferRejectsInvalid)
{
    // Insufficient funds.
    EXPECT_EQ(db_.transfer(9, BankDb::checkingId(9), BankDb::savingsId(9),
                           INT64_MAX / 2),
              0u);
    // Same account.
    EXPECT_EQ(db_.transfer(9, BankDb::checkingId(9), BankDb::checkingId(9),
                           100),
              0u);
    // Foreign account.
    EXPECT_EQ(db_.transfer(9, BankDb::checkingId(8), BankDb::savingsId(9),
                           100),
              0u);
    // Non-positive amount.
    EXPECT_EQ(db_.transfer(9, BankDb::checkingId(9), BankDb::savingsId(9),
                           0),
              0u);
}

TEST_F(BankDbTest, PayBillDebitsChecking)
{
    auto payees = db_.payees(4);
    ASSERT_FALSE(payees.empty());
    const int64_t before = db_.account(BankDb::checkingId(4))->balanceCents;
    const uint64_t pid = db_.payBill(4, payees[0]->payeeId, 2500, 18100);
    EXPECT_NE(pid, 0u);
    EXPECT_EQ(db_.account(BankDb::checkingId(4))->balanceCents,
              before - 2500);
    auto payments = db_.billPayments(4, 18100, 18100);
    bool found = false;
    for (const BillPayment *bp : payments)
        found |= bp->paymentId == pid;
    EXPECT_TRUE(found);
}

TEST_F(BankDbTest, PayBillRejectsUnknownPayee)
{
    EXPECT_EQ(db_.payBill(4, 999999999, 100, 18100), 0u);
    EXPECT_EQ(db_.payBill(4, db_.payees(4)[0]->payeeId, -5, 18100), 0u);
}

TEST_F(BankDbTest, AddPayeePersists)
{
    const size_t before = db_.payees(6).size();
    const uint64_t id = db_.addPayee(6, "Acme Power", "1 Grid Way", 12345);
    EXPECT_NE(id, 0u);
    auto payees = db_.payees(6);
    EXPECT_EQ(payees.size(), before + 1);
    EXPECT_EQ(payees.back()->name, "Acme Power");
}

TEST_F(BankDbTest, ProfileUpdatePartial)
{
    const std::string old_email = db_.profile(2).email;
    db_.updateProfile(2, "9 New Rd", "", "555-0000");
    EXPECT_EQ(db_.profile(2).address, "9 New Rd");
    EXPECT_EQ(db_.profile(2).email, old_email);
    EXPECT_EQ(db_.profile(2).phone, "555-0000");
}

TEST_F(BankDbTest, CheckOrderLifecycle)
{
    const uint64_t id = db_.orderCheck(3, 2, 50);
    ASSERT_NE(id, 0u);
    const CheckOrder *order = db_.checkOrder(id);
    ASSERT_NE(order, nullptr);
    EXPECT_FALSE(order->placed);
    EXPECT_TRUE(db_.placeCheckOrder(3, id));
    EXPECT_TRUE(db_.checkOrder(id)->placed);
    EXPECT_FALSE(db_.placeCheckOrder(3, 999999));
}

/** Every transaction in the per-account ledgers, by id (a full scan). */
std::map<uint64_t, const Transaction *>
scanTransactions(const BankDb &db)
{
    std::map<uint64_t, const Transaction *> out;
    for (uint64_t uid = 1; uid <= db.numUsers(); ++uid) {
        for (const Account *a : db.accounts(uid)) {
            for (const Transaction *tx :
                 db.transactions(a->accountId, SIZE_MAX))
                EXPECT_TRUE(out.emplace(tx->txId, tx).second) << tx->txId;
        }
    }
    return out;
}

/** transaction(id) is the scan's record for every id, nullptr beyond. */
void
expectLookupMatchesScan(const BankDb &db)
{
    const auto scan = scanTransactions(db);
    ASSERT_FALSE(scan.empty());
    // Ids are allocated densely from 1.
    EXPECT_EQ(scan.begin()->first, 1u);
    EXPECT_EQ(scan.rbegin()->first, scan.size());
    for (const auto &[id, tx] : scan)
        EXPECT_EQ(db.transaction(id), tx) << "id " << id;
    EXPECT_EQ(db.transaction(0), nullptr);
    EXPECT_EQ(db.transaction(scan.size() + 1), nullptr);
    EXPECT_EQ(db.transaction(UINT64_MAX), nullptr);
}

/** Every transaction-creating call, some of them rejected. */
void
mutateLedgers(BankDb &db)
{
    for (uint64_t uid = 1; uid <= db.numUsers(); uid += 3) {
        const uint64_t peer = uid % db.numUsers() + 1;
        EXPECT_NE(db.payBill(uid, db.payees(uid)[0]->payeeId, 1500, 18050),
                  0u);
        EXPECT_EQ(db.payBill(uid, 0, 1500, 18050), 0u);
        EXPECT_NE(db.transfer(uid, BankDb::checkingId(uid),
                              BankDb::savingsId(uid), 700),
                  0u);
        EXPECT_EQ(db.transfer(uid, BankDb::checkingId(uid),
                              BankDb::savingsId(uid), INT64_MAX),
                  0u);
        EXPECT_NE(db.externalDebit(uid, peer, 300), 0u);
        EXPECT_EQ(db.externalDebit(uid, peer, 0), 0u);
        EXPECT_NE(db.externalCredit(peer, uid, 300), 0u);
    }
}

TEST(BankDbIndex, TransactionLookupMatchesFullScan)
{
    BankDb db(60, 5);
    expectLookupMatchesScan(db);
    mutateLedgers(db);
    expectLookupMatchesScan(db);

    // A checkpoint is a copy and a restore is copy-assignment: the
    // copy's lookups land in the copy's own ledgers.
    const BankDb snapshot = db;
    expectLookupMatchesScan(snapshot);
    mutateLedgers(db);
    expectLookupMatchesScan(db);
    db = snapshot;
    expectLookupMatchesScan(db);
    EXPECT_EQ(db.digest(), snapshot.digest());

    // The index is not database state: an identical history digests
    // identically.
    BankDb twin(60, 5);
    mutateLedgers(twin);
    EXPECT_EQ(twin.digest(), db.digest());
}

TEST(Protocol, OpNamesRoundTrip)
{
    for (int i = 0; i <= static_cast<int>(Op::Summary); ++i) {
        const Op op = static_cast<Op>(i);
        Op parsed;
        ASSERT_TRUE(parseOp(opName(op), parsed));
        EXPECT_EQ(parsed, op);
    }
    Op dummy;
    EXPECT_FALSE(parseOp("NOPE", dummy));
}

TEST(Protocol, RequestSerializeParseRoundTrip)
{
    BackendRequest req;
    req.op = Op::PayBill;
    req.userId = 42;
    req.args = {"7", "2500", "18100"};
    const std::string wire = req.serialize();
    EXPECT_EQ(wire, "PAYBILL|42|7|2500|18100");
    BackendRequest parsed;
    ASSERT_TRUE(BackendRequest::parse(wire, parsed));
    EXPECT_EQ(parsed.op, Op::PayBill);
    EXPECT_EQ(parsed.userId, 42u);
    EXPECT_EQ(parsed.args, req.args);
}

TEST(Protocol, ParseRejectsMalformed)
{
    BackendRequest req;
    EXPECT_FALSE(BackendRequest::parse("", req));
    EXPECT_FALSE(BackendRequest::parse("NOPE|1", req));
    EXPECT_FALSE(BackendRequest::parse("AUTH|abc", req));
}

TEST(Protocol, ResponseHelpers)
{
    const std::string okr = response::ok("a,b;c,d;");
    EXPECT_TRUE(response::isOk(okr));
    EXPECT_EQ(response::payload(okr), "a,b;c,d;");
    auto recs = response::records(response::payload(okr));
    ASSERT_EQ(recs.size(), 2u);
    auto f = response::fields(recs[0]);
    ASSERT_EQ(f.size(), 2u);
    EXPECT_EQ(f[0], "a");

    const std::string err = response::error("nope");
    EXPECT_FALSE(response::isOk(err));
    EXPECT_EQ(response::payload(err), "");
}

class ServiceTest : public ::testing::Test
{
  protected:
    BankDb db_{50, 3};
    BackendService svc_{db_};

    std::string
    run(Op op, uint64_t user, std::vector<std::string> args = {})
    {
        BackendRequest req;
        req.op = op;
        req.userId = user;
        req.args = std::move(args);
        return svc_.execute(req.serialize(), gNull);
    }
};

TEST_F(ServiceTest, AuthenticateOkAndFail)
{
    EXPECT_TRUE(response::isOk(run(Op::Authenticate, 10, {"pwd10"})));
    EXPECT_FALSE(response::isOk(run(Op::Authenticate, 10, {"wrong"})));
    EXPECT_FALSE(response::isOk(run(Op::Authenticate, 0, {"pwd0"})));
}

TEST_F(ServiceTest, GetAccountsReturnsTwoRecords)
{
    const std::string resp = run(Op::GetAccounts, 10);
    ASSERT_TRUE(response::isOk(resp));
    auto recs = response::records(response::payload(resp));
    ASSERT_EQ(recs.size(), 2u);
    auto f0 = response::fields(recs[0]);
    ASSERT_EQ(f0.size(), 3u);
    EXPECT_EQ(f0[1], "checking");
}

TEST_F(ServiceTest, GetTransactionsRespectsMax)
{
    const std::string resp =
        run(Op::GetTransactions, 10,
            {std::to_string(BankDb::checkingId(10)), "3"});
    ASSERT_TRUE(response::isOk(resp));
    EXPECT_LE(response::records(response::payload(resp)).size(), 3u);
}

TEST_F(ServiceTest, EndToEndBillPayFlow)
{
    // List payees, pay the first one, then see it in payments.
    const std::string payees = run(Op::GetPayees, 5);
    ASSERT_TRUE(response::isOk(payees));
    auto recs = response::records(response::payload(payees));
    ASSERT_FALSE(recs.empty());
    const std::string payee_id(response::fields(recs[0])[0]);

    const std::string pay =
        run(Op::PayBill, 5, {payee_id, "1234", "18200"});
    ASSERT_TRUE(response::isOk(pay));

    const std::string payments =
        run(Op::GetPayments, 5, {"18200", "18200"});
    ASSERT_TRUE(response::isOk(payments));
    EXPECT_FALSE(response::records(response::payload(payments)).empty());
}

TEST_F(ServiceTest, TransferViaWire)
{
    const std::string resp = run(
        Op::Transfer, 8,
        {std::to_string(BankDb::checkingId(8)),
         std::to_string(BankDb::savingsId(8)), "500"});
    EXPECT_TRUE(response::isOk(resp));
    const std::string bad = run(
        Op::Transfer, 8,
        {std::to_string(BankDb::checkingId(8)),
         std::to_string(BankDb::savingsId(8)), "999999999999"});
    EXPECT_FALSE(response::isOk(bad));
}

TEST_F(ServiceTest, ProfileRoundTrip)
{
    ASSERT_TRUE(response::isOk(
        run(Op::UpdateProfile, 3, {"1 Elm St", "[email protected]", ""})));
    const std::string prof = run(Op::GetProfile, 3);
    ASSERT_TRUE(response::isOk(prof));
    auto f = response::fields(
        response::records(response::payload(prof))[0]);
    ASSERT_EQ(f.size(), 4u);
    EXPECT_EQ(f[1], "1 Elm St");
    EXPECT_EQ(f[2], "[email protected]");
}

TEST_F(ServiceTest, CheckOrderViaWire)
{
    const std::string order = run(Op::OrderCheck, 2, {"1", "100"});
    ASSERT_TRUE(response::isOk(order));
    const std::string order_id(
        response::fields(response::records(response::payload(order))[0])[0]);
    EXPECT_TRUE(response::isOk(run(Op::PlaceCheckOrder, 2, {order_id})));
    EXPECT_FALSE(response::isOk(run(Op::PlaceCheckOrder, 2, {"999999"})));
}

TEST_F(ServiceTest, MalformedRequestIsError)
{
    EXPECT_FALSE(response::isOk(svc_.execute("garbage", gNull)));
    EXPECT_FALSE(response::isOk(svc_.execute("", gNull)));
}

TEST_F(ServiceTest, InstructionAccountingIsNonTrivial)
{
    simt::CountingTracer ct;
    BackendRequest req;
    req.op = Op::GetTransactions;
    req.userId = 10;
    req.args = {std::to_string(BankDb::checkingId(10)), "10"};
    svc_.execute(req.serialize(), ct);
    EXPECT_GT(ct.instructions(), 500u);
}

TEST_F(ServiceTest, ResponsesFitTheirSlots)
{
    for (uint64_t uid = 1; uid <= 50; ++uid) {
        for (Op op : {Op::GetAccounts, Op::GetPayees, Op::GetProfile}) {
            const std::string resp = run(op, uid);
            EXPECT_LE(resp.size(), kResponseSlotBytes);
        }
        const std::string txs =
            run(Op::GetTransactions, uid,
                {std::to_string(BankDb::checkingId(uid)), "20"});
        EXPECT_LE(txs.size(), kResponseSlotBytes);
    }
}

TEST_F(ServiceTest, RequestsServedCounter)
{
    const uint64_t before = svc_.requestsServed();
    run(Op::GetProfile, 1);
    run(Op::GetProfile, 2);
    EXPECT_EQ(svc_.requestsServed(), before + 2);
}

} // namespace
} // namespace rhythm::backend
