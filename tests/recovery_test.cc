/**
 * @file
 * Tests for the crash-recovery layer and the straggler watchdog:
 * journal framing/torn-tail detection, checkpoint+replay state
 * equivalence, idempotency-token deduplication, session-array replay,
 * watchdog-hedged cohorts (first-completion wins) and the interaction
 * of retry-budget exhaustion with hedging (no double-spend).
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "backend/bankdb.hh"
#include "backend/journal.hh"
#include "backend/protocol.hh"
#include "backend/recovery.hh"
#include "backend/service.hh"
#include "fault/plan.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/server.hh"
#include "rhythm/session_array.hh"
#include "specweb/workload.hh"

namespace rhythm {
namespace {

namespace bp = backend;

// ---- Journal unit tests -----------------------------------------------

TEST(Journal, RoundTripPreservesRecords)
{
    bp::Journal journal;
    // Payloads exercise every framing hazard: the field separator, the
    // record terminator and the request/response separator byte.
    const bp::JournalRecord records[] = {
        {'B', 17, "XFER|1|2|300\x1fOK|55"},
        {'C', 0x1234'5678'9abcull, "42"},
        {'D', 7, ""},
        {'B', 0, std::string("ragged|\n|tail\n", 14)},
    };
    for (const auto &rec : records)
        journal.append(rec);
    EXPECT_EQ(journal.records(), 4u);

    const bp::Journal::ScanResult scanned =
        bp::Journal::scan(journal.data());
    EXPECT_FALSE(scanned.torn);
    ASSERT_EQ(scanned.records.size(), 4u);
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(scanned.records[i].kind, records[i].kind);
        EXPECT_EQ(scanned.records[i].token, records[i].token);
        EXPECT_EQ(scanned.records[i].payload, records[i].payload);
    }
}

TEST(Journal, TornFinalRecordIsDetectedAndDropped)
{
    bp::Journal journal;
    journal.append({'B', 1, "first"});
    journal.append({'B', 2, "second"});
    journal.append({'B', 3, "the record a crash interrupts"});
    journal.tearLastRecord();

    const bp::Journal::ScanResult scanned =
        bp::Journal::scan(journal.data());
    EXPECT_TRUE(scanned.torn);
    EXPECT_GT(scanned.tornBytes, 0u);
    ASSERT_EQ(scanned.records.size(), 2u);
    EXPECT_EQ(scanned.records[0].token, 1u);
    EXPECT_EQ(scanned.records[1].token, 2u);
}

TEST(Journal, CorruptChecksumStopsScanAtBoundary)
{
    bp::Journal journal;
    journal.append({'B', 1, "good"});
    journal.append({'B', 2, "flipped"});
    journal.append({'B', 3, "unreachable"});

    // Flip one payload byte of the middle record; nothing after an
    // undetectable boundary can be trusted, so the scan must stop
    // there even though record 3 is intact on the wire.
    std::string image = journal.data();
    const size_t pos = image.find("flipped");
    ASSERT_NE(pos, std::string::npos);
    image[pos] ^= 0x01;

    const bp::Journal::ScanResult scanned = bp::Journal::scan(image);
    EXPECT_TRUE(scanned.torn);
    ASSERT_EQ(scanned.records.size(), 1u);
    EXPECT_EQ(scanned.records[0].token, 1u);
}

// ---- RecoverableBackend unit tests ------------------------------------

std::string
addPayeeRequest(uint64_t user, const std::string &name)
{
    bp::BackendRequest req;
    req.op = bp::Op::AddPayee;
    req.userId = user;
    req.args = {name, "1 Main St", "900042"};
    return req.serialize();
}

std::string
summaryRequest(uint64_t user)
{
    bp::BackendRequest req;
    req.op = bp::Op::Summary;
    req.userId = user;
    return req.serialize();
}

struct BackendRig
{
    explicit BackendRig(bp::RecoveryConfig config = {})
        : db(20, 3), service(db), recovery(service, db, config)
    {
    }

    std::string
    run(const std::string &request, uint64_t token)
    {
        simt::NullTracer null;
        return recovery.execute(request, token, null);
    }

    backend::BankDb db;
    backend::BackendService service;
    backend::RecoverableBackend recovery;
};

TEST(Recovery, MemoDeduplicatesSameToken)
{
    // A duplicate delivery (hedge replay, client retry) of a mutating
    // op must return the recorded response without touching the db.
    BackendRig rig;
    BackendRig reference;

    const std::string req = addPayeeRequest(5, "Alice");
    const std::string first = rig.run(req, 100);
    const std::string second = rig.run(req, 100);
    EXPECT_EQ(first, second);
    EXPECT_EQ(rig.recovery.stats().memoHits, 1u);

    const std::string once = reference.run(req, 100);
    EXPECT_EQ(first, once);
    EXPECT_EQ(rig.db.digest(), reference.db.digest());
}

TEST(Recovery, ReadsPassThroughUnjournaled)
{
    BackendRig rig;
    const std::string a = rig.run(summaryRequest(3), 1);
    const std::string b = rig.run(summaryRequest(3), 2);
    EXPECT_EQ(a, b);
    EXPECT_EQ(rig.recovery.stats().journaledRecords, 0u);
    EXPECT_EQ(rig.recovery.journal().records(), 0u);
}

TEST(Recovery, CrashRecoveryRebuildsIdenticalState)
{
    BackendRig rig;
    for (uint64_t i = 0; i < 12; ++i)
        rig.run(addPayeeRequest(1 + i % 5, "payee" + std::to_string(i)),
                1000 + i);
    const uint64_t before = rig.db.digest();

    rig.recovery.crashAndRecover(/*torn=*/false);

    EXPECT_EQ(rig.db.digest(), before);
    EXPECT_EQ(rig.recovery.stats().replayedRecords, 12u);
    EXPECT_EQ(rig.recovery.stats().replayMismatches, 0u);
    EXPECT_EQ(rig.recovery.stats().tornRecords, 0u);

    // The rebuilt memo still deduplicates pre-crash tokens.
    rig.run(addPayeeRequest(1, "payee0"), 1000);
    EXPECT_EQ(rig.recovery.stats().memoHits, 1u);
    EXPECT_EQ(rig.db.digest(), before);
}

TEST(Recovery, TornFinalRecordIsLostThenReexecutedByRetry)
{
    // A crash that tears the final journal record loses exactly that
    // operation; the client retry with the same idempotency token
    // re-executes it, converging on the fault-free state.
    BackendRig rig;
    BackendRig reference;
    for (uint64_t i = 0; i < 6; ++i) {
        const std::string req =
            addPayeeRequest(1 + i % 5, "p" + std::to_string(i));
        rig.run(req, 50 + i);
        if (i < 5)
            reference.run(req, 50 + i);
    }

    rig.recovery.crashAndRecover(/*torn=*/true);
    EXPECT_EQ(rig.recovery.stats().tornRecords, 1u);
    EXPECT_EQ(rig.recovery.stats().replayedRecords, 5u);
    // Only the torn op's effect is gone.
    EXPECT_EQ(rig.db.digest(), reference.db.digest());

    // The retry finds no memo entry and applies the op exactly once.
    const std::string retried = rig.run(addPayeeRequest(1, "p5"), 55);
    const std::string fresh = reference.run(addPayeeRequest(1, "p5"), 55);
    EXPECT_EQ(retried, fresh);
    EXPECT_EQ(rig.db.digest(), reference.db.digest());
}

TEST(Recovery, CheckpointBoundsReplay)
{
    bp::RecoveryConfig config;
    config.checkpointInterval = 4;
    BackendRig rig(config);
    for (uint64_t i = 0; i < 10; ++i)
        rig.run(addPayeeRequest(1 + i % 5, "c" + std::to_string(i)),
                200 + i);
    EXPECT_GE(rig.recovery.stats().checkpoints, 2u);
    EXPECT_LT(rig.recovery.journal().records(), 4u);

    const uint64_t before = rig.db.digest();
    rig.recovery.crashAndRecover(/*torn=*/false);
    EXPECT_EQ(rig.db.digest(), before);
    // Replay only covers the journal since the last checkpoint.
    EXPECT_LT(rig.recovery.stats().replayedRecords, 4u);
    EXPECT_EQ(rig.recovery.stats().replayMismatches, 0u);
}

TEST(Recovery, ScheduledInFlightCrashReturnsRecordedResponse)
{
    // A crash drawn by the fault plan mid-operation (after apply+log,
    // before the response escapes) must be invisible to the client:
    // same responses, same final state as the fault-free run.
    fault::FaultConfig fcfg;
    fault::FaultPlan plan(fcfg);
    plan.scheduleFault(fault::Site::BackendCrash, 2);

    BackendRig rig;
    BackendRig reference;
    rig.recovery.setFaultPlan(&plan);

    for (uint64_t i = 0; i < 6; ++i) {
        const std::string req =
            addPayeeRequest(1 + i % 5, "s" + std::to_string(i));
        EXPECT_EQ(rig.run(req, 300 + i), reference.run(req, 300 + i))
            << "operation " << i;
    }
    EXPECT_EQ(rig.recovery.stats().crashes, 1u);
    EXPECT_EQ(rig.recovery.stats().replayMismatches, 0u);
    EXPECT_EQ(rig.db.digest(), reference.db.digest());
}

// ---- Session-array crash domain ---------------------------------------

TEST(Recovery, SessionMutationsReplayToIdenticalArray)
{
    backend::BankDb db(20, 3);
    backend::BackendService service(db);
    backend::RecoverableBackend recovery(service, db);
    core::SessionArray sessions(64, 8);
    simt::NullTracer null;

    // Pre-populated sessions belong to the baseline checkpoint.
    sessions.populate(16, 20);
    core::attachSessionRecovery(recovery, sessions);

    std::vector<uint64_t> created;
    for (uint64_t user = 1; user <= 10; ++user)
        created.push_back(sessions.create(user, null));
    EXPECT_TRUE(sessions.destroy(created[3], null));
    EXPECT_TRUE(sessions.destroy(created[7], null));
    const uint64_t before = sessions.digest();
    EXPECT_EQ(recovery.stats().journaledRecords, 12u);

    recovery.crashAndRecover(/*torn=*/false);

    EXPECT_EQ(sessions.digest(), before);
    EXPECT_EQ(recovery.stats().replayMismatches, 0u);
    // Replayed creates reproduced the original ids, so lookups work.
    EXPECT_EQ(sessions.lookup(created[0], null), 1u);
    EXPECT_EQ(sessions.lookup(created[3], null), 0u);
}

TEST(Recovery, SessionRecordsCheckpointAtTheInterval)
{
    // A journal that sees only session mutations (logins, logouts)
    // still checkpoints every interval, so its replay stays bounded.
    backend::BankDb db(20, 3);
    backend::BackendService service(db);
    bp::RecoveryConfig config;
    config.checkpointInterval = 4;
    backend::RecoverableBackend recovery(service, db, config);
    core::SessionArray sessions(64, 8);
    simt::NullTracer null;
    core::attachSessionRecovery(recovery, sessions);

    std::vector<uint64_t> created;
    for (uint64_t user = 1; user <= 13; ++user)
        created.push_back(sessions.create(user, null));
    for (size_t i = 0; i < created.size(); i += 3)
        EXPECT_TRUE(sessions.destroy(created[i], null));
    EXPECT_EQ(recovery.stats().journaledRecords, 18u);
    EXPECT_GT(recovery.stats().checkpoints, 0u);
    EXPECT_LT(recovery.journal().records(), config.checkpointInterval);

    const uint64_t before = sessions.digest();
    recovery.crashAndRecover(/*torn=*/false);
    EXPECT_EQ(sessions.digest(), before);
    EXPECT_LT(recovery.stats().replayedRecords, config.checkpointInterval);
    EXPECT_EQ(recovery.stats().replayMismatches, 0u);
}

// ---- Server-level watchdog / hedging tests ----------------------------

struct WatchdogRig
{
    WatchdogRig(core::RhythmConfig cfg, fault::FaultConfig fcfg,
                bool with_recovery)
        : db(200, 11), device(queue, simt::DeviceConfig{}), service(db),
          server(queue, device, service, cfg), plan(fcfg), gen(db, 77)
    {
        server.setFaultPlan(&plan);
        server.setResponseCallback(
            [this](uint64_t client, std::string_view response,
                   des::Time) {
                responses.emplace(client, std::string(response));
            });
        if (with_recovery) {
            recovery = std::make_unique<backend::RecoverableBackend>(
                service.backendService(), db);
            recovery->setFaultPlan(&plan,
                                   [this]() { return queue.now(); });
            core::attachSessionRecovery(*recovery, server.sessions());
            service.setRecovery(recovery.get());
        }
    }

    static core::RhythmConfig
    smallConfig()
    {
        core::RhythmConfig cfg;
        cfg.cohortSize = 32;
        cfg.cohortContexts = 4;
        cfg.cohortTimeout = des::kMillisecond;
        cfg.backendOnDevice = true;
        cfg.networkOverPcie = false;
        return cfg;
    }

    /// Feeds @p n requests of @p type through the pull-mode reader.
    void
    feed(uint64_t n, specweb::RequestType type)
    {
        simt::NullTracer null;
        sessions.clear();
        for (uint64_t i = 0; i < n; ++i) {
            const uint64_t user = 1 + i % 150;
            sessions.push_back(server.sessions().create(user, null));
        }
        uint64_t issued = 0;
        server.start([this, n, type,
                      &issued]() -> std::optional<std::string> {
            if (issued >= n)
                return std::nullopt;
            const uint64_t user = 1 + issued % 150;
            auto req = gen.generate(type, user, sessions[issued]);
            ++issued;
            return std::move(req.raw);
        });
        queue.run();
    }

    des::EventQueue queue;
    backend::BankDb db;
    simt::Device device;
    core::BankingService service;
    core::RhythmServer server;
    fault::FaultPlan plan;
    specweb::WorkloadGenerator gen;
    std::unique_ptr<backend::RecoverableBackend> recovery;
    std::vector<uint64_t> sessions;
    std::map<uint64_t, std::string> responses;
};

void
expectConserved(const core::RhythmStats &st)
{
    EXPECT_EQ(st.requestsAccepted, st.responsesCompleted +
                                       st.errorResponses +
                                       st.requestsShed);
}

TEST(Watchdog, HedgeRecoversHungCohort)
{
    // The first cohort hangs for 8x the watchdog timeout; the hedge
    // re-execution on the spare stream must win and deliver every
    // response, with the straggler canonically cancelled.
    core::RhythmConfig cfg = WatchdogRig::smallConfig();
    cfg.watchdogTimeout = 5 * des::kMillisecond;
    fault::FaultConfig fcfg; // all probabilities zero
    WatchdogRig rig(cfg, fcfg, /*with_recovery=*/false);
    rig.plan.scheduleFault(fault::Site::KernelHang, 0);

    rig.feed(64, specweb::RequestType::AccountSummary);

    const core::RhythmStats &st = rig.server.stats();
    EXPECT_EQ(st.kernelHangs, 1u);
    EXPECT_GE(st.watchdogFires, 1u);
    EXPECT_GE(st.hedgeWins, 1u);
    EXPECT_EQ(st.hedgeWins + st.hedgeCancelled, 2 * st.watchdogFires);
    EXPECT_EQ(st.responsesCompleted, 64u);
    expectConserved(st);
    EXPECT_TRUE(rig.server.drained());
    EXPECT_EQ(rig.responses.size(), 64u);
}

TEST(Watchdog, WatchdogWithoutHangsNeverFires)
{
    // A generous watchdog must be pure bookkeeping on healthy cohorts:
    // identical responses and database state to a watchdog-less run.
    fault::FaultConfig quiet;
    core::RhythmConfig base = WatchdogRig::smallConfig();
    WatchdogRig plain(base, quiet, /*with_recovery=*/false);
    plain.feed(64, specweb::RequestType::PostTransfer);

    core::RhythmConfig watched = base;
    watched.watchdogTimeout = des::kSecond;
    WatchdogRig rig(watched, quiet, /*with_recovery=*/false);
    rig.feed(64, specweb::RequestType::PostTransfer);

    EXPECT_EQ(rig.server.stats().watchdogFires, 0u);
    EXPECT_EQ(rig.server.stats().hedgeWins, 0u);
    EXPECT_EQ(rig.responses, plain.responses);
    EXPECT_EQ(rig.db.digest(), plain.db.digest());
}

TEST(Watchdog, HedgedMutationsAreExactlyOnce)
{
    // A hung cohort of transfers is hedged; the hedge replays its
    // backend calls through the idempotency memo, so every transfer
    // posts exactly once — byte-identical responses and database state
    // to the fault-free run.
    fault::FaultConfig quiet;
    core::RhythmConfig base = WatchdogRig::smallConfig();
    WatchdogRig clean(base, quiet, /*with_recovery=*/true);
    clean.feed(64, specweb::RequestType::PostTransfer);

    core::RhythmConfig cfg = base;
    cfg.watchdogTimeout = 5 * des::kMillisecond;
    fault::FaultConfig fcfg;
    WatchdogRig rig(cfg, fcfg, /*with_recovery=*/true);
    rig.plan.scheduleFault(fault::Site::KernelHang, 0);
    rig.feed(64, specweb::RequestType::PostTransfer);

    const core::RhythmStats &st = rig.server.stats();
    EXPECT_EQ(st.kernelHangs, 1u);
    EXPECT_GE(st.hedgeWins, 1u);
    EXPECT_GT(st.hedgeReplayedCalls, 0u);
    EXPECT_EQ(st.hedgeReplayMismatches, 0u);
    EXPECT_GT(rig.recovery->stats().memoHits, 0u);
    EXPECT_EQ(st.responsesCompleted, 64u);
    expectConserved(st);

    EXPECT_EQ(rig.responses, clean.responses);
    EXPECT_EQ(rig.db.digest(), clean.db.digest());
    EXPECT_EQ(rig.server.sessions().digest(),
              clean.server.sessions().digest());
}

TEST(Watchdog, RetryExhaustionPlusHedgingDoesNotDoubleSpend)
{
    // One lane exhausts its retry budget (503) while the same cohort
    // hangs and is hedged. The hedge must not re-charge the budget or
    // re-execute the failed lane: state and responses match a run with
    // the same backend-failure schedule but no hang.
    core::RhythmConfig base = WatchdogRig::smallConfig();
    base.backendRetryBudget = 1;
    fault::FaultConfig quiet;

    WatchdogRig reference(base, quiet, /*with_recovery=*/true);
    // Ordinal 7 fails the initial call, ordinal 8 its only retry.
    reference.plan.scheduleFault(fault::Site::BackendFail, 7);
    reference.plan.scheduleFault(fault::Site::BackendFail, 8);
    reference.feed(64, specweb::RequestType::PostTransfer);

    core::RhythmConfig cfg = base;
    cfg.watchdogTimeout = 5 * des::kMillisecond;
    WatchdogRig rig(cfg, quiet, /*with_recovery=*/true);
    rig.plan.scheduleFault(fault::Site::BackendFail, 7);
    rig.plan.scheduleFault(fault::Site::BackendFail, 8);
    rig.plan.scheduleFault(fault::Site::KernelHang, 0);
    rig.feed(64, specweb::RequestType::PostTransfer);

    for (const WatchdogRig *r : {&reference, &rig}) {
        const core::RhythmStats &st = r->server.stats();
        EXPECT_EQ(st.backendRetries, 1u);
        EXPECT_EQ(st.errorResponses, 1u);
        EXPECT_EQ(st.responsesCompleted, 63u);
        expectConserved(st);
    }
    EXPECT_GE(rig.server.stats().hedgeWins, 1u);
    // The hedge replay consults the memo, never the retry budget: the
    // budget was charged exactly once across both executions.
    EXPECT_EQ(rig.responses, reference.responses);
    EXPECT_EQ(rig.db.digest(), reference.db.digest());
}

TEST(Watchdog, CrashDuringHedgedCohortStaysExactlyOnce)
{
    // The full stack at once: a kernel hang triggers hedging while a
    // backend crash (with a torn final record) interrupts the same
    // run's journal. The recovered state must still match fault-free.
    fault::FaultConfig quiet;
    core::RhythmConfig base = WatchdogRig::smallConfig();
    WatchdogRig clean(base, quiet, /*with_recovery=*/true);
    clean.feed(64, specweb::RequestType::PostTransfer);

    core::RhythmConfig cfg = base;
    cfg.watchdogTimeout = 5 * des::kMillisecond;
    WatchdogRig rig(cfg, quiet, /*with_recovery=*/true);
    rig.plan.scheduleFault(fault::Site::KernelHang, 0);
    rig.plan.scheduleFault(fault::Site::BackendCrash, 10);
    rig.plan.scheduleFault(fault::Site::JournalTorn, 0);
    rig.feed(64, specweb::RequestType::PostTransfer);

    EXPECT_EQ(rig.recovery->stats().crashes, 1u);
    EXPECT_EQ(rig.recovery->stats().tornRecords, 1u);
    EXPECT_EQ(rig.recovery->stats().replayMismatches, 0u);
    EXPECT_EQ(rig.server.stats().responsesCompleted, 64u);
    expectConserved(rig.server.stats());

    EXPECT_EQ(rig.responses, clean.responses);
    EXPECT_EQ(rig.db.digest(), clean.db.digest());
    EXPECT_EQ(rig.server.sessions().digest(),
              clean.server.sessions().digest());
}

} // namespace
} // namespace rhythm
