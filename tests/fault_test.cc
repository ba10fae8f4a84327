/**
 * @file
 * Tests for deterministic fault injection and graceful degradation:
 * FaultPlan stream independence and targeted faults, lane-level error
 * isolation inside a cohort, cohort retries, partial-cohort launches
 * under injected backend slowdown, load shedding, client disconnects
 * and the request conservation invariant.
 */

#include <gtest/gtest.h>

#include "backend/bankdb.hh"
#include "fault/device_injector.hh"
#include "fault/plan.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/server.hh"
#include "specweb/workload.hh"

namespace rhythm {
namespace {

// ---- FaultPlan unit tests ---------------------------------------------

TEST(FaultPlan, QuietByDefault)
{
    fault::FaultConfig cfg;
    EXPECT_TRUE(cfg.allQuiet());
    fault::FaultPlan plan(cfg);
    for (int i = 0; i < 1000; ++i) {
        const fault::Decision d =
            plan.at(fault::Site::BackendFail, des::kMillisecond * i);
        EXPECT_FALSE(d.fire);
        EXPECT_EQ(d.delay, 0u);
        EXPECT_DOUBLE_EQ(d.factor, 1.0);
    }
    EXPECT_EQ(plan.totalInjected(), 0u);
    EXPECT_EQ(plan.consultations(fault::Site::BackendFail), 1000u);
}

TEST(FaultPlan, SameSeedSameDecisions)
{
    fault::FaultConfig cfg;
    cfg.seed = 99;
    cfg.at(fault::Site::BackendFail).probability = 0.3;
    cfg.at(fault::Site::StreamStall).probability = 0.2;
    cfg.at(fault::Site::StreamStall).meanDelay = des::kMillisecond;

    fault::FaultPlan a(cfg);
    fault::FaultPlan b(cfg);
    for (int i = 0; i < 500; ++i) {
        const des::Time now = des::kMicrosecond * i;
        const fault::Decision da = a.at(fault::Site::BackendFail, now);
        const fault::Decision db = b.at(fault::Site::BackendFail, now);
        EXPECT_EQ(da.fire, db.fire);
        const fault::Decision sa = a.at(fault::Site::StreamStall, now);
        const fault::Decision sb = b.at(fault::Site::StreamStall, now);
        EXPECT_EQ(sa.fire, sb.fire);
        EXPECT_EQ(sa.delay, sb.delay);
    }
    EXPECT_EQ(a.totalInjected(), b.totalInjected());
    EXPECT_GT(a.totalInjected(), 0u);
}

TEST(FaultPlan, SitesHaveIndependentStreams)
{
    // Decisions at one site must not shift when another site is
    // consulted in between — that is what makes sweeps comparable.
    fault::FaultConfig cfg;
    cfg.seed = 7;
    cfg.at(fault::Site::BackendFail).probability = 0.25;
    cfg.at(fault::Site::PcieCorrupt).probability = 0.25;

    fault::FaultPlan solo(cfg);
    std::vector<bool> expected;
    for (int i = 0; i < 300; ++i)
        expected.push_back(solo.at(fault::Site::BackendFail, 0).fire);

    fault::FaultPlan interleaved(cfg);
    for (int i = 0; i < 300; ++i) {
        interleaved.at(fault::Site::PcieCorrupt, 0);
        EXPECT_EQ(interleaved.at(fault::Site::BackendFail, 0).fire,
                  expected[static_cast<size_t>(i)]);
        interleaved.at(fault::Site::PcieCorrupt, 0);
    }
}

TEST(FaultPlan, ScheduledFaultFiresAtExactOrdinal)
{
    fault::FaultConfig cfg; // all probabilities zero
    fault::FaultPlan plan(cfg);
    plan.scheduleFault(fault::Site::BackendFail, 5);
    for (uint64_t i = 0; i < 10; ++i) {
        const fault::Decision d = plan.at(fault::Site::BackendFail, 0);
        EXPECT_EQ(d.fire, i == 5) << "consultation " << i;
    }
    EXPECT_EQ(plan.injected(fault::Site::BackendFail), 1u);
}

TEST(FaultPlan, ActiveWindowGatesFaults)
{
    fault::FaultConfig cfg;
    cfg.at(fault::Site::BackendSlow).probability = 1.0;
    cfg.at(fault::Site::BackendSlow).meanDelay = des::kMillisecond;
    cfg.at(fault::Site::BackendSlow).activeFrom = des::kMillisecond;
    cfg.at(fault::Site::BackendSlow).activeUntil = 2 * des::kMillisecond;
    fault::FaultPlan plan(cfg);

    EXPECT_FALSE(plan.at(fault::Site::BackendSlow, 0).fire);
    EXPECT_TRUE(
        plan.at(fault::Site::BackendSlow, des::kMillisecond).fire);
    EXPECT_TRUE(plan.at(fault::Site::BackendSlow,
                        2 * des::kMillisecond - 1)
                    .fire);
    EXPECT_FALSE(
        plan.at(fault::Site::BackendSlow, 2 * des::kMillisecond).fire);
}

// ---- Server-level integration tests -----------------------------------

struct FaultRig
{
    explicit FaultRig(core::RhythmConfig cfg, fault::FaultConfig fcfg)
        : db(200, 11), device(queue, simt::DeviceConfig{}), service(db),
          server(queue, device, service, cfg), plan(fcfg), gen(db, 77)
    {
        server.setFaultPlan(&plan);
        server.setResponseCallback(
            [this](uint64_t client, std::string_view response,
                   des::Time) {
                responses.emplace_back(client, response);
            });
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

    /// Feeds @p n AccountSummary requests through the pull-mode reader.
    void
    feed(uint64_t n)
    {
        simt::NullTracer null;
        sessions.clear();
        for (uint64_t i = 0; i < n; ++i) {
            const uint64_t user = 1 + i % 150;
            sessions.push_back(server.sessions().create(user, null));
        }
        uint64_t issued = 0;
        server.start([this, n, &issued]() -> std::optional<std::string> {
            if (issued >= n)
                return std::nullopt;
            const uint64_t user = 1 + issued % 150;
            auto req =
                gen.generate(specweb::RequestType::AccountSummary, user,
                             sessions[issued]);
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
    std::vector<uint64_t> sessions;
    std::vector<std::pair<uint64_t, std::string>> responses;
};

/// Conservation invariant: every accepted request is answered once.
void
expectConserved(const core::RhythmStats &st)
{
    EXPECT_EQ(st.requestsAccepted, st.responsesCompleted +
                                       st.errorResponses +
                                       st.requestsShed);
}

TEST(FaultInjection, PoisonedLaneIsIsolatedInFullCohort)
{
    // One targeted backend failure inside a full 4096-cohort: exactly
    // one lane answers 503 and the 4095 cohort-mates stay valid.
    core::RhythmConfig cfg = FaultRig::smallConfig();
    cfg.cohortSize = 4096;
    cfg.cohortTimeout = 50 * des::kMillisecond;
    cfg.sessionNodesPerBucket = 128; // ~27 live sessions per user
    fault::FaultConfig fcfg; // all probabilities zero
    FaultRig rig(cfg, fcfg);
    rig.plan.scheduleFault(fault::Site::BackendFail, 1234);

    rig.feed(4096);

    const core::RhythmStats &st = rig.server.stats();
    EXPECT_EQ(st.backendFailedLanes, 1u);
    EXPECT_EQ(st.errorResponses, 1u);
    EXPECT_EQ(st.responsesCompleted, 4095u);
    expectConserved(st);
    ASSERT_EQ(rig.responses.size(), 4096u);
    uint64_t errors = 0;
    for (const auto &[client, response] : rig.responses) {
        if (response.rfind("HTTP/1.1 503", 0) == 0) {
            ++errors;
            continue;
        }
        auto v = specweb::validateResponse(
            specweb::RequestType::AccountSummary, response);
        EXPECT_TRUE(v.ok) << v.reason;
    }
    EXPECT_EQ(errors, 1u);
    EXPECT_TRUE(rig.server.drained());
}

TEST(FaultInjection, RetryBudgetAbsorbsTransientFailure)
{
    core::RhythmConfig cfg = FaultRig::smallConfig();
    cfg.backendRetryBudget = 2;
    fault::FaultConfig fcfg;
    FaultRig rig(cfg, fcfg);
    rig.plan.scheduleFault(fault::Site::BackendFail, 7);

    rig.feed(32);

    const core::RhythmStats &st = rig.server.stats();
    EXPECT_EQ(st.backendRetries, 1u);
    EXPECT_EQ(st.backendFailedLanes, 0u);
    EXPECT_EQ(st.errorResponses, 0u);
    EXPECT_EQ(st.responsesCompleted, 32u);
    expectConserved(st);
}

TEST(FaultInjection, PartialCohortTimeoutUnderBackendSlowdown)
{
    // A sustained backend brownout must not wedge cohort formation:
    // partially-filled cohorts still launch on timeout and every
    // request is answered.
    core::RhythmConfig cfg = FaultRig::smallConfig();
    fault::FaultConfig fcfg;
    fcfg.at(fault::Site::BackendSlow).probability = 1.0;
    fcfg.at(fault::Site::BackendSlow).meanDelay = 5 * des::kMillisecond;
    FaultRig rig(cfg, fcfg);

    rig.feed(40); // 32-cohort + a 8-wide remainder cohort

    const core::RhythmStats &st = rig.server.stats();
    EXPECT_GE(st.cohortTimeouts, 1u);
    EXPECT_EQ(st.responsesCompleted, 40u);
    EXPECT_GT(rig.plan.totalInjected(), 0u);
    expectConserved(st);
    EXPECT_TRUE(rig.server.drained());
    EXPECT_EQ(rig.responses.size(), 40u);
}

TEST(FaultInjection, SameSeedSamePlanIdenticalStats)
{
    core::RhythmConfig cfg = FaultRig::smallConfig();
    cfg.backendRetryBudget = 1;
    fault::FaultConfig fcfg;
    fcfg.seed = 1;
    fcfg.at(fault::Site::BackendFail).probability = 0.05;
    fcfg.at(fault::Site::BackendSlow).probability = 0.2;
    fcfg.at(fault::Site::BackendSlow).meanDelay = des::kMillisecond;
    fcfg.at(fault::Site::ClientDisconnect).probability = 0.02;

    auto run = [&]() {
        FaultRig rig(cfg, fcfg);
        rig.feed(160);
        return std::make_tuple(rig.server.stats().responsesCompleted,
                               rig.server.stats().errorResponses,
                               rig.server.stats().backendRetries,
                               rig.server.stats().backendFailedLanes,
                               rig.server.stats().clientDisconnects,
                               rig.plan.totalInjected(),
                               rig.queue.now());
    };
    EXPECT_EQ(run(), run());
}

TEST(FaultInjection, ClientDisconnectsAreCountedNotDelivered)
{
    core::RhythmConfig cfg = FaultRig::smallConfig();
    fault::FaultConfig fcfg;
    fcfg.at(fault::Site::ClientDisconnect).probability = 1.0;
    FaultRig rig(cfg, fcfg);

    rig.feed(32);

    const core::RhythmStats &st = rig.server.stats();
    EXPECT_EQ(st.clientDisconnects, 32u);
    EXPECT_EQ(st.errorResponses, 32u);
    EXPECT_EQ(st.responsesCompleted, 0u);
    expectConserved(st);
    EXPECT_TRUE(rig.responses.empty());
}

TEST(FaultInjection, DeadlineMissesAreCounted)
{
    core::RhythmConfig cfg = FaultRig::smallConfig();
    cfg.requestDeadline = des::kNanosecond; // everything misses
    fault::FaultConfig fcfg;
    FaultRig rig(cfg, fcfg);

    rig.feed(32);

    const core::RhythmStats &st = rig.server.stats();
    EXPECT_EQ(st.responsesCompleted, 32u);
    EXPECT_EQ(st.deadlineMisses, 32u);
}

TEST(FaultInjection, BacklogSheddingAnswers503AndConserves)
{
    core::RhythmConfig cfg = FaultRig::smallConfig();
    cfg.cohortContexts = 2;
    cfg.shedBacklogLimit = 16;
    fault::FaultConfig fcfg;
    FaultRig rig(cfg, fcfg);

    // Push-mode burst far above the backlog limit.
    simt::NullTracer null;
    uint64_t accepted_calls = 0;
    for (uint64_t i = 0; i < 400; ++i) {
        const uint64_t user = 1 + i % 150;
        auto req = rig.gen.generate(specweb::RequestType::AccountSummary,
                                    user,
                                    rig.server.sessions().create(user,
                                                                 null));
        if (rig.server.injectRequest(std::move(req.raw), i))
            ++accepted_calls;
    }
    rig.queue.run();

    const core::RhythmStats &st = rig.server.stats();
    EXPECT_GT(st.requestsShed, 0u);
    EXPECT_EQ(st.requestsAccepted, accepted_calls);
    expectConserved(st);
    uint64_t shed_responses = 0;
    for (const auto &[client, response] : rig.responses)
        if (response.rfind("HTTP/1.1 503", 0) == 0)
            ++shed_responses;
    EXPECT_EQ(shed_responses, st.requestsShed);
    EXPECT_EQ(rig.responses.size(), accepted_calls);
    EXPECT_TRUE(rig.server.drained());
}

TEST(FaultInjection, SloSheddingTripsOnObservedP99)
{
    // With an absurdly tight SLO, the server must start shedding as
    // soon as the observed-p99 window has enough samples (two 32-wide
    // cohorts' worth), and count the degraded-mode time.
    core::RhythmConfig cfg = FaultRig::smallConfig();
    cfg.shedLatencySlo = des::kMicrosecond;
    cfg.sloWindow = 64;
    fault::FaultConfig fcfg;
    FaultRig rig(cfg, fcfg);

    simt::NullTracer null;
    auto inject = [&](uint64_t id) {
        const uint64_t user = 1 + id % 150;
        auto req = rig.gen.generate(specweb::RequestType::AccountSummary,
                                    user,
                                    rig.server.sessions().create(user,
                                                                 null));
        ASSERT_TRUE(rig.server.injectRequest(std::move(req.raw), id));
    };
    for (uint64_t wave = 0; wave < 3; ++wave) {
        for (uint64_t i = 0; i < 32; ++i)
            inject(wave * 32 + i);
        rig.server.flush();
        rig.queue.run();
        rig.queue.run(); // timeout stragglers
    }
    // Advance time while degraded, then shed one more request so the
    // open degraded interval lands in the stats.
    rig.queue.scheduleAfter(des::kMillisecond, [] {});
    rig.queue.run();
    inject(96);
    rig.queue.run();

    const core::RhythmStats &st = rig.server.stats();
    // Waves 1 and 2 complete normally (64 samples); wave 3 is shed.
    EXPECT_EQ(st.requestsShed, 33u);
    EXPECT_EQ(st.responsesCompleted, 64u);
    EXPECT_GE(st.degradedTime, des::kMillisecond);
    expectConserved(st);
}

TEST(FaultInjection, DeviceFaultsSlowTheRunDeterministically)
{
    // PCIe corruption (replay) and stream stalls on the host-backend
    // path must stretch simulated time, identically for a fixed seed.
    core::RhythmConfig cfg = FaultRig::smallConfig();
    cfg.backendOnDevice = false; // Titan A: D2H/H2D per backend stage

    auto elapsed = [&](bool faulty) {
        fault::FaultConfig fcfg;
        if (faulty) {
            fcfg.at(fault::Site::PcieCorrupt).probability = 1.0;
            fcfg.at(fault::Site::StreamStall).probability = 0.5;
            fcfg.at(fault::Site::StreamStall).meanDelay =
                des::kMillisecond;
        }
        FaultRig rig(cfg, fcfg);
        fault::installDeviceFaults(rig.device, rig.plan, rig.queue);
        rig.feed(64);
        EXPECT_EQ(rig.server.stats().responsesCompleted, 64u);
        return rig.queue.now();
    };

    const des::Time clean = elapsed(false);
    const des::Time faulty = elapsed(true);
    EXPECT_GT(faulty, clean);
    EXPECT_EQ(faulty, elapsed(true));
}

} // namespace
} // namespace rhythm
