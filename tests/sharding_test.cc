/**
 * @file
 * Tests for the multi-device sharded serving layer (DESIGN.md §6k):
 * the canonical per-stream event merge (equal-timestamp ordering,
 * interleaving invariance, stream inheritance), the front-end routing
 * map (stable session hash, per-type least-outstanding overrides,
 * deterministic dead-home remap), two-phase cross-shard transfers
 * (money moves between authoritative shard copies, idempotency-token
 * replay dedups, a crash between the phases never double-spends) and
 * the 4-device chaos path (kill one device mid-flight: committed
 * transactions survive the journal replay and re-sharded sessions are
 * served by the survivors through the cookie rewrite), a fleet whose
 * shard journals draw a crash schedule (every crash recovers
 * transparently: no error, no replay mismatch, money conserved), and
 * the trace layout of a fleet (one trace process per device).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "backend/bankdb.hh"
#include "backend/protocol.hh"
#include "backend/recovery.hh"
#include "des/event_queue.hh"
#include "fault/plan.hh"
#include "net/arrival.hh"
#include "obs/obs.hh"
#include "rhythm/fleet.hh"
#include "simt/trace.hh"
#include "specweb/workload.hh"

namespace rhythm {
namespace {

// ---- Canonical stream merge (EventQueue property tests) ---------------

TEST(CanonicalMerge, EqualTimestampsDispatchInStreamIdOrder)
{
    // Three streams plus the default, all with an event at the same
    // instant, scheduled in *reverse* stream order. The merge must
    // dispatch lowest stream id first regardless of insertion order.
    des::EventQueue queue;
    const des::StreamId s1 = queue.createStream();
    const des::StreamId s2 = queue.createStream();
    const des::StreamId s3 = queue.createStream();
    const des::Time t = 5 * des::kMicrosecond;
    std::vector<des::StreamId> order;
    for (des::StreamId s : {s3, s2, s1, des::StreamId{0}})
        queue.scheduleAtOn(s, t, [&order, &queue] {
            order.push_back(queue.currentStream());
        });
    queue.run();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order, (std::vector<des::StreamId>{0, s1, s2, s3}));
}

TEST(CanonicalMerge, WithinStreamTiesStayFifo)
{
    des::EventQueue queue;
    const des::StreamId s1 = queue.createStream();
    const des::Time t = des::kMicrosecond;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        queue.scheduleAtOn(s1, t, [&order, i] { order.push_back(i); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

/** One logical schedule: (stream, time, tag) triples. */
struct Planned
{
    des::StreamId stream;
    des::Time when;
    int tag;
};

/** Schedules @p plan into a fresh queue in the given order, runs it and
 *  returns (dispatch sequence of tags, orderHash). */
std::pair<std::vector<int>, uint64_t>
runPlan(const std::vector<Planned> &plan, uint32_t streams)
{
    des::EventQueue queue;
    for (uint32_t i = 0; i < streams; ++i)
        queue.createStream();
    std::vector<int> order;
    for (const Planned &p : plan)
        queue.scheduleAtOn(p.stream, p.when,
                           [&order, tag = p.tag] { order.push_back(tag); });
    queue.run();
    return {order, queue.orderHash()};
}

TEST(CanonicalMerge, GlobalInterleavingDoesNotChangeDispatchOrder)
{
    // Property: the dispatch order depends only on the *per-stream*
    // schedules (their internal FIFO order), never on how the streams'
    // insertions were interleaved globally. Build a pseudo-random
    // schedule over 4 streams — with deliberate cross-stream timestamp
    // ties — and feed it in three different global interleavings.
    constexpr uint32_t kStreams = 3; // ids 1..3, plus stream 0
    constexpr int kPerStream = 64;
    uint64_t lcg = 12345;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    };
    // Per-stream schedules with nondecreasing per-stream insertion
    // times (coarse timestamps force cross-stream ties).
    std::vector<std::vector<Planned>> per(kStreams + 1);
    int tag = 0;
    for (uint32_t s = 0; s <= kStreams; ++s) {
        des::Time t = 0;
        for (int i = 0; i < kPerStream; ++i) {
            t += (next() % 3) * des::kMicrosecond;
            per[s].push_back({s, t, tag++});
        }
    }
    // Interleaving A: stream-major. B: round-robin. C: reverse
    // stream-major. Within a stream the order never changes (that is
    // the per-stream FIFO contract the callers rely on).
    std::vector<Planned> a, b, c;
    for (uint32_t s = 0; s <= kStreams; ++s)
        for (const Planned &p : per[s])
            a.push_back(p);
    for (int i = 0; i < kPerStream; ++i)
        for (uint32_t s = 0; s <= kStreams; ++s)
            b.push_back(per[s][i]);
    for (uint32_t s = kStreams + 1; s-- > 0;)
        for (const Planned &p : per[s])
            c.push_back(p);

    const auto ra = runPlan(a, kStreams);
    const auto rb = runPlan(b, kStreams);
    const auto rc = runPlan(c, kStreams);
    ASSERT_EQ(ra.first.size(),
              static_cast<size_t>((kStreams + 1) * kPerStream));
    EXPECT_EQ(ra.first, rb.first);
    EXPECT_EQ(ra.first, rc.first);
    EXPECT_EQ(ra.second, rb.second);
    EXPECT_EQ(ra.second, rc.second);
}

TEST(CanonicalMerge, ChildEventsInheritTheParentStream)
{
    des::EventQueue queue;
    const des::StreamId s1 = queue.createStream();
    const des::StreamId s2 = queue.createStream();
    std::vector<des::StreamId> child_streams;
    auto parent = [&queue, &child_streams] {
        // scheduleAfter() carries no stream argument: the child must
        // land on the dispatching event's stream.
        const des::EventId id = queue.scheduleAfter(
            des::kMicrosecond, [&queue, &child_streams] {
                child_streams.push_back(queue.currentStream());
            });
        EXPECT_EQ(id.stream, queue.currentStream());
    };
    queue.scheduleAtOn(s2, des::kMicrosecond, parent);
    queue.scheduleAtOn(s1, des::kMicrosecond, parent);
    queue.run();
    EXPECT_EQ(child_streams, (std::vector<des::StreamId>{s1, s2}));
    // Between events the queue is back on the default stream.
    EXPECT_EQ(queue.currentStream(), 0u);
}

// ---- Front-end routing ------------------------------------------------

core::RhythmConfig
smallServerConfig()
{
    core::RhythmConfig cfg;
    cfg.cohortSize = 64;
    cfg.cohortContexts = 4;
    cfg.cohortTimeout = des::fromSeconds(0.1e-3);
    cfg.backendOnDevice = true;
    cfg.networkOverPcie = false;
    return cfg;
}

TEST(FleetRouting, InterleavedPoolsRoundRobinUnevenShards)
{
    const std::vector<std::vector<std::pair<uint64_t, uint64_t>>> pools = {
        {{1, 10}, {2, 20}, {3, 30}}, {}, {{4, 40}}};
    EXPECT_EQ(core::interleavePools(pools),
              (std::vector<std::pair<uint64_t, uint64_t>>{
                  {1, 10}, {4, 40}, {2, 20}, {3, 30}}));
}

TEST(FleetRouting, HomeShardIsStableAndCoversEveryShard)
{
    des::EventQueue queue;
    simt::DeviceConfig dcfg;
    core::FleetConfig fc;
    fc.devices = 4;
    core::Fleet fleet(queue, dcfg, smallServerConfig(), fc, 64, 3);
    std::set<uint32_t> seen;
    for (uint64_t u = 1; u <= 64; ++u) {
        const uint32_t home = fleet.homeShard(u);
        ASSERT_LT(home, 4u);
        EXPECT_EQ(home, fleet.homeShard(u)); // stable
        EXPECT_EQ(home, fleet.routeShard(u, 1));
        seen.insert(home);
    }
    // splitmix64 over 64 users must touch all four shards.
    EXPECT_EQ(seen.size(), 4u);
}

TEST(FleetRouting, PerTypeOverrideRoutesLeastOutstanding)
{
    des::EventQueue queue;
    simt::DeviceConfig dcfg;
    core::FleetConfig fc;
    fc.devices = 3;
    fc.leastOutstandingTypes = {7}; // a "stateless" type id
    core::Fleet fleet(queue, dcfg, smallServerConfig(), fc, 32, 3);
    // All shards idle: least-outstanding resolves to the first alive
    // shard, for every user — the override ignores the home map.
    for (uint64_t u = 1; u <= 32; ++u)
        EXPECT_EQ(fleet.routeShard(u, 7), 0u);
    // Any other type keeps the session-sharded home.
    bool off_zero = false;
    for (uint64_t u = 1; u <= 32; ++u) {
        EXPECT_EQ(fleet.routeShard(u, 1), fleet.homeShard(u));
        off_zero |= fleet.homeShard(u) != 0;
    }
    EXPECT_TRUE(off_zero);
}

TEST(FleetRouting, DeadHomeRemapsDeterministicallyToSurvivors)
{
    des::EventQueue queue;
    simt::DeviceConfig dcfg;
    core::FleetConfig fc;
    fc.devices = 4;
    core::Fleet fleet(queue, dcfg, smallServerConfig(), fc, 128, 3);
    fleet.killDevice(2);
    EXPECT_EQ(fleet.aliveCount(), 3u);
    std::set<uint32_t> remap_targets;
    for (uint64_t u = 1; u <= 128; ++u) {
        const uint32_t r = fleet.routeShard(u, 1);
        ASSERT_NE(r, 2u);
        ASSERT_TRUE(fleet.alive(r));
        EXPECT_EQ(r, fleet.routeShard(u, 1)); // deterministic
        if (fleet.homeShard(u) == 2)
            remap_targets.insert(r);
        else
            EXPECT_EQ(r, fleet.homeShard(u)); // survivors keep users
    }
    // The dead shard's users spread over every survivor, not one.
    EXPECT_EQ(remap_targets.size(), 3u);
}

// ---- Cross-shard transfers --------------------------------------------

/** Finds a user homed on @p shard (user ids 1..max). */
uint64_t
userHomedOn(const core::Fleet &fleet, uint32_t shard, uint64_t max,
            uint64_t skip = 0)
{
    for (uint64_t u = 1; u <= max; ++u)
        if (u != skip && fleet.homeShard(u) == shard)
            return u;
    ADD_FAILURE() << "no user homed on shard " << shard;
    return 0;
}

int64_t
checking(const core::Fleet &fleet, uint32_t shard, uint64_t user)
{
    const backend::Account *a = const_cast<core::Fleet &>(fleet)
                                    .db(shard)
                                    .account(backend::BankDb::checkingId(user));
    EXPECT_NE(a, nullptr);
    return a ? a->balanceCents : 0;
}

TEST(CrossShard, TransferMovesMoneyBetweenAuthoritativeShards)
{
    des::EventQueue queue;
    simt::DeviceConfig dcfg;
    core::FleetConfig fc;
    fc.devices = 2;
    fc.recovery = true;
    core::Fleet fleet(queue, dcfg, smallServerConfig(), fc, 64, 5);
    const uint64_t payer = userHomedOn(fleet, 0, 64);
    const uint64_t payee = userHomedOn(fleet, 1, 64);
    const int64_t payer0 = checking(fleet, 0, payer);
    const int64_t payee1 = checking(fleet, 1, payee);
    ASSERT_GE(payer0, 500); // seeded balances are comfortably positive

    fleet.beginCrossShardTransfer(payer, payee, 500);
    queue.run();

    // Authoritative copies move...
    EXPECT_EQ(checking(fleet, 0, payer), payer0 - 500);
    EXPECT_EQ(checking(fleet, 1, payee), payee1 + 500);
    // ...and the non-authoritative replicas never do (each shard holds
    // an identically seeded BankDb; routing decides authority).
    EXPECT_EQ(checking(fleet, 1, payer), payer0);
    EXPECT_EQ(checking(fleet, 0, payee), payee1);
    EXPECT_EQ(fleet.stats().crossStarted, 1u);
    EXPECT_EQ(fleet.stats().crossCompleted, 1u);
    EXPECT_EQ(fleet.stats().crossRejected, 0u);
}

TEST(CrossShard, RejectedDebitNeverCreditsThePayee)
{
    des::EventQueue queue;
    simt::DeviceConfig dcfg;
    core::FleetConfig fc;
    fc.devices = 2;
    fc.recovery = true;
    core::Fleet fleet(queue, dcfg, smallServerConfig(), fc, 64, 5);
    const uint64_t payer = userHomedOn(fleet, 0, 64);
    const uint64_t payee = userHomedOn(fleet, 1, 64);
    const int64_t payer0 = checking(fleet, 0, payer);
    const int64_t payee1 = checking(fleet, 1, payee);

    // Far beyond any seeded balance: phase 1 must reject, and phase 2
    // must never be scheduled.
    fleet.beginCrossShardTransfer(payer, payee, 1'000'000'000'000ll);
    queue.run();

    EXPECT_EQ(checking(fleet, 0, payer), payer0);
    EXPECT_EQ(checking(fleet, 1, payee), payee1);
    EXPECT_EQ(fleet.stats().crossRejected, 1u);
    EXPECT_EQ(fleet.stats().crossCompleted, 0u);
}

TEST(CrossShard, Phase2TokenReplayDedupsInsteadOfDoubleCrediting)
{
    des::EventQueue queue;
    simt::DeviceConfig dcfg;
    core::FleetConfig fc;
    fc.devices = 2;
    fc.recovery = true;
    core::Fleet fleet(queue, dcfg, smallServerConfig(), fc, 64, 5);
    const uint64_t payer = userHomedOn(fleet, 0, 64);
    const uint64_t payee = userHomedOn(fleet, 1, 64);
    const int64_t payee1 = checking(fleet, 1, payee);

    fleet.beginCrossShardTransfer(payer, payee, 500);
    queue.run();
    ASSERT_EQ(checking(fleet, 1, payee), payee1 + 500);

    // A coordinator retry after losing the phase-2 ack replays the
    // credit leg with the same idempotency token (transfer id 1,
    // phase bit 1). The shard's recovery memo must swallow it.
    const uint64_t token_in = (1ull << 62) | (1ull << 1) | 1ull;
    backend::BackendRequest credit;
    credit.op = backend::Op::XferIn;
    credit.userId = payee;
    credit.args = {std::to_string(payer), "500"};
    backend::RecoverableBackend *recov = fleet.recovery(1);
    ASSERT_NE(recov, nullptr);
    const uint64_t memo_before = recov->stats().memoHits;
    simt::NullTracer rec;
    const std::string replay = recov->execute(credit.serialize(),
                                              token_in, rec);
    EXPECT_TRUE(backend::response::isOk(replay));
    EXPECT_EQ(recov->stats().memoHits, memo_before + 1);
    EXPECT_EQ(checking(fleet, 1, payee), payee1 + 500); // applied once
}

TEST(CrossShard, CrashBetweenPhasesNeverDoubleSpends)
{
    des::EventQueue queue;
    simt::DeviceConfig dcfg;
    core::FleetConfig fc;
    fc.devices = 2;
    fc.recovery = true;
    core::Fleet fleet(queue, dcfg, smallServerConfig(), fc, 64, 5);
    const uint64_t payer = userHomedOn(fleet, 0, 64);
    const uint64_t payee = userHomedOn(fleet, 1, 64);
    const int64_t payer0 = checking(fleet, 0, payer);
    const int64_t payee1 = checking(fleet, 1, payee);

    // Transfer #1 completes cleanly (phase 2 lands at ~20us). Transfer
    // #2 starts at 50us; its phase-1 debit applies immediately and the
    // payee's device is killed at 60us — squarely between the phases.
    // The credit leg, already scheduled into the dead shard's drain,
    // applies exactly once after the journal replay.
    fleet.beginCrossShardTransfer(payer, payee, 500);
    queue.scheduleAt(50 * des::kMicrosecond, [&fleet, payer, payee] {
        fleet.beginCrossShardTransfer(payer, payee, 500);
    });
    uint64_t digest_pre = 0, digest_post = 0;
    queue.scheduleAt(60 * des::kMicrosecond, [&] {
        digest_pre = fleet.db(1).digest();
        fleet.killDevice(1);
        digest_post = fleet.db(1).digest();
    });
    queue.run();

    // The crash-recovery replay restored every committed transaction —
    // including transfer #1's credit — bit for bit.
    EXPECT_EQ(digest_pre, digest_post);
    EXPECT_EQ(fleet.stats().devicesKilled, 1u);
    // Exactly-once across the fleet: the payer paid twice, the payee
    // was credited twice, and no replica moved.
    EXPECT_EQ(checking(fleet, 0, payer), payer0 - 1000);
    EXPECT_EQ(checking(fleet, 1, payee), payee1 + 1000);
    EXPECT_EQ(checking(fleet, 1, payer), payer0);
    EXPECT_EQ(checking(fleet, 0, payee), payee1);
    EXPECT_EQ(fleet.stats().crossCompleted, 2u);
    EXPECT_EQ(fleet.stats().crossRejected, 0u);
}

TEST(CrossShard, CreditRemapsWhenTheHomeShardIsAlreadyDead)
{
    des::EventQueue queue;
    simt::DeviceConfig dcfg;
    core::FleetConfig fc;
    fc.devices = 2;
    fc.recovery = true;
    core::Fleet fleet(queue, dcfg, smallServerConfig(), fc, 64, 5);
    const uint64_t payer = userHomedOn(fleet, 0, 64);
    const uint64_t payee = userHomedOn(fleet, 1, 64);
    const int64_t payee_init = checking(fleet, 1, payee);

    // The payee's home dies before the transfer starts: phase 2 must
    // follow the routing remap to the survivor instead of crediting a
    // dead shard's replica.
    fleet.killDevice(1);
    fleet.beginCrossShardTransfer(payer, payee, 500);
    queue.run();

    EXPECT_EQ(fleet.stats().crossCompleted, 1u);
    EXPECT_EQ(checking(fleet, 0, payee), payee_init + 500);
    EXPECT_EQ(checking(fleet, 1, payee), payee_init); // dead copy idle
}

// ---- 4-device chaos: kill one mid-flight ------------------------------

TEST(FleetChaos, KillOneOfFourMidFlightLosesNothing)
{
    des::EventQueue queue;
    simt::DeviceConfig dcfg;
    core::FleetConfig fc;
    fc.devices = 4;
    fc.recovery = true;
    core::Fleet fleet(queue, dcfg, smallServerConfig(), fc, 200, 11);

    constexpr uint32_t kVictim = 1;
    const des::Time kill_at = 100 * des::kMicrosecond;
    uint64_t responses_after_kill = 0;
    fleet.setResponseCallback(
        [&](uint64_t, std::string_view, des::Time t) {
            if (t > kill_at)
                ++responses_after_kill;
        });

    // Round-robin interleave of every shard's session pool; the flat
    // copy deliberately keeps the victim's (sid, user) pairs so the
    // post-kill stretch keeps presenting dead-shard cookies.
    const auto &pools = fleet.populateSessions(128, 200);
    std::vector<std::pair<uint64_t, uint64_t>> flat;
    size_t longest = 0;
    for (const auto &p : pools)
        longest = std::max(longest, p.size());
    for (size_t k = 0; k < longest; ++k)
        for (const auto &p : pools)
            if (k < p.size())
                flat.push_back(p[k]);
    ASSERT_FALSE(flat.empty());

    backend::BankDb front_db(200, 11);
    specweb::WorkloadGenerator gen(front_db, 29);
    constexpr uint64_t kRequests = 1200;
    // ~360us of open-loop arrivals, so the 100us kill lands mid-run.
    const des::Time gap = 300 * des::kNanosecond;
    uint64_t issued = 0;
    std::function<void()> arrive = [&] {
        if (issued >= kRequests)
            return;
        const auto &[sid, user] = flat[issued % flat.size()];
        specweb::RequestType type;
        do {
            type = gen.sampleType();
        } while (type == specweb::RequestType::Login ||
                 type == specweb::RequestType::Logout);
        specweb::GeneratedRequest req = gen.generate(type, user, sid);
        ++issued;
        fleet.injectRequest(std::move(req.raw), issued, user,
                            static_cast<uint32_t>(type));
        if (issued < kRequests)
            queue.scheduleAfter(gap, arrive);
    };
    queue.scheduleAfter(gap, arrive);

    uint64_t digest_pre = 0, digest_post = 0;
    queue.scheduleAt(kill_at, [&] {
        digest_pre = fleet.db(kVictim).digest();
        fleet.killDevice(kVictim);
        digest_post = fleet.db(kVictim).digest();
    });
    queue.run();

    // Zero lost committed transactions: the journal replay restored
    // the victim's database exactly, mid-flight traffic and all.
    EXPECT_EQ(digest_pre, digest_post);
    EXPECT_EQ(fleet.stats().devicesKilled, 1u);
    EXPECT_EQ(fleet.aliveCount(), 3u);
    EXPECT_FALSE(fleet.alive(kVictim));

    // Every re-homed session was re-created on a survivor, and the
    // front end rewrote dead cookies on the way in.
    EXPECT_GT(fleet.stats().sessionsResharded, 0u);
    EXPECT_EQ(fleet.stats().reshardDrops, 0u);
    EXPECT_GT(fleet.stats().rewrittenCookies, 0u);
    // The survivors kept serving — including the re-sharded users.
    EXPECT_GT(responses_after_kill, 0u);

    // Full drain and conservation: every accepted request was answered
    // or deliberately shed, nowhere silently dropped.
    EXPECT_TRUE(fleet.drainedAll());
    EXPECT_EQ(fleet.totalAccepted(), fleet.totalResponses() +
                                         fleet.totalErrors() +
                                         fleet.totalShed());
    EXPECT_GT(fleet.totalResponses(), 0u);
}

// ---- Crash schedule on every shard journal ----------------------------

/** Money held by the authoritative shard copies, plus bills paid out. */
int64_t
fleetMoney(core::Fleet &fleet, uint64_t users)
{
    int64_t total = 0;
    for (uint64_t u = 1; u <= users; ++u) {
        backend::BankDb &db = fleet.db(fleet.homeShard(u));
        for (const backend::Account *a : db.accounts(u))
            total += a->balanceCents;
        for (const backend::BillPayment *p :
             db.billPayments(u, 0, UINT32_MAX))
            total += p->amountCents;
    }
    return total;
}

TEST(FleetChaos, CrashScheduleRecoversEveryShardTransparently)
{
    des::EventQueue queue;
    simt::DeviceConfig dcfg;
    core::FleetConfig fc;
    fc.devices = 4;
    fc.recovery = true;
    constexpr uint64_t kUsers = 200;
    core::Fleet fleet(queue, dcfg, smallServerConfig(), fc, kUsers, 11);
    fault::FaultConfig faults;
    faults.seed = 5;
    faults.at(fault::Site::BackendCrash).probability = 0.05;
    faults.at(fault::Site::JournalTorn).probability = 0.5;
    fault::FaultPlan plan(faults);
    fleet.setFaultPlan(&plan);
    // Each journal's baseline holds its populated pool: replaying
    // population's creates could not reproduce their session ids.
    const auto pool =
        core::interleavePools(fleet.populateSessions(128, kUsers));
    ASSERT_FALSE(pool.empty());
    const int64_t money_before = fleetMoney(fleet, kUsers);

    // Browsing traffic plus cross-shard transfers, so crashes land on
    // session lookups, journaled mutations and both transfer legs.
    backend::BankDb front_db(kUsers, 11);
    specweb::WorkloadGenerator gen(front_db, 29);
    net::ArrivalConfig acfg;
    acfg.kind = net::ArrivalKind::Poisson;
    acfg.rate = 2e6;
    acfg.seed = 3;
    net::ArrivalProcess arrivals(acfg);
    arrivals.drive(queue, 3000, [&](uint64_t i) {
        specweb::GeneratedRequest req =
            gen.fromPool(gen.sampleBrowsingType(), pool, i);
        fleet.injectRequest(std::move(req.raw), i + 1, req.userId,
                            static_cast<uint32_t>(req.type));
        if ((i + 1) % 50 == 0)
            fleet.beginCrossShardTransfer(gen.sampleUser(),
                                          gen.sampleUser(), 300);
    });
    queue.run();

    uint64_t crashes = 0;
    uint64_t mismatches = 0;
    for (uint32_t i = 0; i < fleet.devices(); ++i) {
        const backend::RecoverableBackend *journal = fleet.recovery(i);
        ASSERT_NE(journal, nullptr);
        crashes += journal->stats().crashes;
        mismatches += journal->stats().replayMismatches;
    }
    EXPECT_GT(crashes, 0u);
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(fleet.totalErrors(), 0u);
    EXPECT_TRUE(fleet.drainedAll());
    EXPECT_EQ(fleet.totalAccepted(),
              fleet.totalResponses() + fleet.totalShed());
    EXPECT_EQ(fleetMoney(fleet, kUsers), money_before);
}

// ---- Trace layout -------------------------------------------------------

TEST(FleetTrace, EachDeviceTracesIntoItsOwnProcess)
{
    // Shard i runs on DES stream i + 1, and obs maps a stream's tracks
    // into block i + 1 of the Chrome export: process "dev<i>".
    obs::Observability &o = obs::global();
    o.reset();
    des::EventQueue queue;
    o.enable(queue);
    {
        core::FleetConfig fc;
        fc.devices = 2;
        core::Fleet fleet(queue, simt::DeviceConfig{}, smallServerConfig(),
                          fc, 64, 5);
        const auto pool =
            core::interleavePools(fleet.populateSessions(32, 64));
        backend::BankDb front_db(64, 5);
        specweb::WorkloadGenerator gen(front_db, 29);
        net::ArrivalConfig acfg;
        acfg.rate = 1e6;
        net::ArrivalProcess arrivals(acfg);
        arrivals.drive(queue, 256, [&](uint64_t i) {
            specweb::GeneratedRequest req =
                gen.fromPool(gen.sampleBrowsingType(), pool, i);
            fleet.injectRequest(std::move(req.raw), i + 1, req.userId,
                                static_cast<uint32_t>(req.type));
        });
        queue.run();
        EXPECT_GT(fleet.server(0).stats().cohortsLaunched, 0u);
        EXPECT_GT(fleet.server(1).stats().cohortsLaunched, 0u);
    }
    o.disable();

    // pid -> {cohort-context spans, hardware-queue spans}.
    std::map<uint32_t, std::pair<uint64_t, uint64_t>> per_pid;
    for (const obs::TraceEvent &e : o.tracer().events()) {
        const uint32_t tid = e.track % obs::track::kDeviceStride;
        auto &[cohort, hwq] = per_pid[e.track / obs::track::kDeviceStride];
        cohort += tid >= obs::track::kCohortBase && tid < obs::track::kHwqBase;
        hwq += tid >= obs::track::kHwqBase && tid < obs::track::kPcieH2D;
    }
    std::ostringstream out;
    o.tracer().writeChromeTrace(out);
    o.reset();

    for (uint32_t pid : {1u, 2u}) {
        EXPECT_GT(per_pid[pid].first, 0u) << "pid " << pid;
        EXPECT_GT(per_pid[pid].second, 0u) << "pid " << pid;
        EXPECT_NE(out.str().find("{\"ph\": \"M\", \"pid\": " +
                                 std::to_string(pid) +
                                 ", \"tid\": 0, \"name\": "
                                 "\"process_name\", \"args\": {\"name\": "
                                 "\"dev" + std::to_string(pid - 1) + "\"}}"),
                  std::string::npos)
            << "pid " << pid;
    }
    // The front end (stream 0) runs no device work of its own, and no
    // shard's work leaks past the two device blocks.
    for (const auto &[pid, counts] : per_pid) {
        if (pid != 1 && pid != 2) {
            EXPECT_EQ(counts.first, 0u) << "pid " << pid;
            EXPECT_EQ(counts.second, 0u) << "pid " << pid;
        }
    }
}

} // namespace
} // namespace rhythm
