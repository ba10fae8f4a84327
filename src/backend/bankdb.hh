/**
 * @file
 * In-memory bank database: the data substrate behind the SPECWeb2009
 * Banking workload (the role Besim plays in the official harness).
 *
 * The database is populated deterministically from a seed so every
 * experiment is reproducible. All mutating operations are real (balances
 * move, payees persist), which lets the test suite assert end-to-end
 * semantics of the 14 Banking request types.
 */

#ifndef RHYTHM_BACKEND_BANKDB_HH
#define RHYTHM_BACKEND_BANKDB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace rhythm::backend {

/** A customer bank account. */
struct Account
{
    uint64_t accountId = 0;
    uint64_t userId = 0;
    /** "checking" or "savings". */
    bool isChecking = true;
    int64_t balanceCents = 0;
};

/** One ledger entry. */
struct Transaction
{
    uint64_t txId = 0;
    uint64_t accountId = 0;
    int64_t amountCents = 0; //!< Negative = debit.
    uint32_t date = 0;       //!< Days since epoch (synthetic calendar).
    std::string description;
    bool hasCheck = false;   //!< True if a check image is associated.
};

/** A bill-pay payee registered by a user. */
struct Payee
{
    uint64_t payeeId = 0;
    uint64_t userId = 0;
    std::string name;
    std::string address;
    uint64_t externalAccount = 0;
};

/** A scheduled or executed bill payment. */
struct BillPayment
{
    uint64_t paymentId = 0;
    uint64_t userId = 0;
    uint64_t payeeId = 0;
    int64_t amountCents = 0;
    uint32_t date = 0;
    bool executed = false;
};

/** Customer profile data. */
struct Profile
{
    uint64_t userId = 0;
    std::string name;
    std::string address;
    std::string email;
    std::string phone;
    std::string password;
};

/** A check-book order. */
struct CheckOrder
{
    uint64_t orderId = 0;
    uint64_t userId = 0;
    uint32_t style = 0;
    uint32_t quantity = 0;
    bool placed = false;
};

/**
 * The bank's data store.
 *
 * Lookups are O(1) by user id (dense vectors) and by transaction id (an
 * id-indexed table of ledger positions); per-user collections are small
 * (the SPECWeb data model), so linear scans inside a user are fine.
 */
class BankDb
{
  public:
    /**
     * Populates the database.
     * @param num_users Users are ids 1..num_users.
     * @param seed Seed for the deterministic generator.
     */
    explicit BankDb(uint64_t num_users, uint64_t seed = 12345);

    /** Number of users. */
    uint64_t numUsers() const { return numUsers_; }

    /** True if the user id exists. */
    bool validUser(uint64_t user_id) const;

    /** Checks a password; false for unknown users. */
    bool authenticate(uint64_t user_id, std::string_view password) const;

    /** Returns the profile (user id must be valid). */
    const Profile &profile(uint64_t user_id) const;

    /** Updates profile fields; empty strings leave a field unchanged. */
    void updateProfile(uint64_t user_id, std::string_view address,
                       std::string_view email, std::string_view phone);

    /** Returns the user's accounts (always 2: checking, savings). */
    std::vector<const Account *> accounts(uint64_t user_id) const;

    /** Returns an account by id, or nullptr. */
    const Account *account(uint64_t account_id) const;

    /**
     * Returns up to @p max most recent transactions of an account
     * (newest first).
     */
    std::vector<const Transaction *> transactions(uint64_t account_id,
                                                  size_t max) const;

    /** Returns a transaction by id in O(1), or nullptr. */
    const Transaction *transaction(uint64_t tx_id) const;

    /**
     * Returns the ids of all transactions that carry a check image
     * (used by the workload generator for check-detail requests).
     */
    std::vector<uint64_t> checkTransactionIds() const;

    /** Returns the user's payees. */
    std::vector<const Payee *> payees(uint64_t user_id) const;

    /** Adds a payee; returns its id. */
    uint64_t addPayee(uint64_t user_id, std::string_view name,
                      std::string_view address, uint64_t external_account);

    /**
     * Schedules a bill payment and debits checking.
     * @return Payment id, or 0 if the payee is unknown or funds are
     *         insufficient.
     */
    uint64_t payBill(uint64_t user_id, uint64_t payee_id,
                     int64_t amount_cents, uint32_t date);

    /** Returns the user's bill payments within [from, to] (by date). */
    std::vector<const BillPayment *> billPayments(uint64_t user_id,
                                                  uint32_t from,
                                                  uint32_t to) const;

    /**
     * Moves funds between two of the user's accounts.
     * @return New transaction id, or 0 on invalid accounts/funds.
     */
    uint64_t transfer(uint64_t user_id, uint64_t from_account,
                      uint64_t to_account, int64_t amount_cents);

    /**
     * Debits the user's checking account toward a peer user whose
     * state lives in another shard's database — phase 1 of a
     * cross-shard transfer (DESIGN.md 6k). Balance-checked like
     * transfer(); the matching credit happens on the peer's shard via
     * externalCredit().
     * @return New transaction id, or 0 on invalid amount/funds.
     */
    uint64_t externalDebit(uint64_t user_id, uint64_t peer_user,
                           int64_t amount_cents);

    /**
     * Credits the user's checking account from a peer on another
     * shard — phase 2 of a cross-shard transfer.
     * @return New transaction id, or 0 on invalid amount.
     */
    uint64_t externalCredit(uint64_t user_id, uint64_t peer_user,
                            int64_t amount_cents);

    /** Creates a provisional check order; returns order id. */
    uint64_t orderCheck(uint64_t user_id, uint32_t style, uint32_t quantity);

    /** Finalizes a provisional order. @return false if unknown. */
    bool placeCheckOrder(uint64_t user_id, uint64_t order_id);

    /** Returns a check order by id, or nullptr. */
    const CheckOrder *checkOrder(uint64_t order_id) const;

    /**
     * Order-sensitive fingerprint of the complete database state
     * (profiles, balances, ledgers, payees, payments, orders and the
     * id allocators). Two databases with equal digests went through
     * the same mutation history; the recovery-equivalence harness
     * compares digests between faulty and fault-free runs. BankDb is
     * plainly copyable, so a crash-recovery snapshot is an ordinary
     * copy and restore is copy-assignment.
     */
    uint64_t digest() const;

    /** Account id of a user's checking account. */
    static uint64_t checkingId(uint64_t user_id) { return user_id * 10 + 1; }
    /** Account id of a user's savings account. */
    static uint64_t savingsId(uint64_t user_id) { return user_id * 10 + 2; }

  private:
    struct UserData
    {
        Profile profile;
        Account checking;
        Account savings;
        std::vector<Transaction> txs; //!< Newest last.
        std::vector<Payee> payees;
        std::vector<BillPayment> payments;
        std::vector<CheckOrder> orders;
    };

    /** Where one transaction sits: users_[user].txs[pos]. Positions,
     *  not pointers, so a copied database's table stays valid. */
    struct TxRef
    {
        uint32_t user;
        uint32_t pos;
    };

    UserData &user(uint64_t user_id);
    const UserData &user(uint64_t user_id) const;
    /** Appends @p tx to the user's ledger under the next transaction
     *  id and indexes it; every transaction is created here. */
    uint64_t appendTx(uint64_t user_id, Transaction tx);

    uint64_t numUsers_;
    std::vector<UserData> users_; //!< Index = user id - 1.
    /** Index = transaction id - 1 (ids are allocated sequentially). */
    std::vector<TxRef> txIndex_;
    uint64_t nextTxId_;
    uint64_t nextPayeeId_;
    uint64_t nextPaymentId_;
    uint64_t nextOrderId_;
};

} // namespace rhythm::backend

#endif // RHYTHM_BACKEND_BANKDB_HH
