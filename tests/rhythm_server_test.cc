/**
 * @file
 * Integration tests for the Rhythm server: full pipeline runs on the
 * simulated device with validated responses, cohort formation/timeout
 * behaviour, platform-variant command patterns (Titan A vs B vs C), and
 * sampling equivalence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "backend/bankdb.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/server.hh"
#include "simt/profile_cache.hh"
#include "specweb/workload.hh"

namespace rhythm::core {
namespace {

struct TestRig
{
    explicit TestRig(RhythmConfig cfg = smallConfig(),
                     simt::DeviceConfig dev_cfg = simt::DeviceConfig{})
        : db(200, 11), device(queue, dev_cfg),
          service(db), server(queue, device, service, cfg), gen(db, 77)
    {
        server.setResponseCallback(
            [this](uint64_t client, std::string_view response,
                   des::Time latency) {
                responses.emplace_back(client, response);
                latencies.push_back(latency);
            });
    }

    static RhythmConfig
    smallConfig()
    {
        RhythmConfig cfg;
        cfg.cohortSize = 32;
        cfg.cohortContexts = 4;
        cfg.cohortTimeout = des::kMillisecond;
        cfg.backendOnDevice = true;
        cfg.networkOverPcie = false;
        return cfg;
    }

    /// Pre-establishes a session and generates a request of a type.
    specweb::GeneratedRequest
    request(specweb::RequestType type, uint64_t user)
    {
        simt::NullTracer null;
        const uint64_t sid = type == specweb::RequestType::Login
                                 ? 0
                                 : server.sessions().create(user, null);
        return gen.generate(type, user, sid);
    }

    des::EventQueue queue;
    backend::BankDb db;
    simt::Device device;
    BankingService service;
    RhythmServer server;
    specweb::WorkloadGenerator gen;
    std::vector<std::pair<uint64_t, std::string>> responses;
    std::vector<des::Time> latencies;
};

TEST(RhythmServer, FullCohortServesValidResponses)
{
    TestRig rig;
    for (int i = 0; i < 32; ++i) {
        auto req = rig.request(specweb::RequestType::AccountSummary,
                               static_cast<uint64_t>(1 + i));
        ASSERT_TRUE(rig.server.injectRequest(req.raw, 1000u + i));
    }
    rig.queue.run();
    ASSERT_EQ(rig.responses.size(), 32u);
    EXPECT_TRUE(rig.server.drained());
    for (const auto &[client, response] : rig.responses) {
        auto v = specweb::validateResponse(
            specweb::RequestType::AccountSummary, response);
        EXPECT_TRUE(v.ok) << v.reason;
    }
    EXPECT_EQ(rig.server.stats().cohortsLaunched, 1u);
    EXPECT_EQ(rig.server.stats().responsesCompleted, 32u);
    EXPECT_EQ(rig.server.stats().errorResponses, 0u);
}

TEST(RhythmServer, PartialCohortLaunchesOnTimeout)
{
    TestRig rig;
    for (int i = 0; i < 5; ++i) {
        auto req = rig.request(specweb::RequestType::Logout,
                               static_cast<uint64_t>(1 + i));
        ASSERT_TRUE(rig.server.injectRequest(req.raw, 2000u + i));
    }
    rig.queue.run();
    EXPECT_EQ(rig.responses.size(), 5u);
    EXPECT_GE(rig.server.stats().cohortTimeouts, 1u);
    // Latency includes the formation timeout.
    for (des::Time lat : rig.latencies)
        EXPECT_GE(lat, rig.server.config().cohortTimeout / 2);
}

TEST(RhythmServer, MixedTypesFormSeparateCohorts)
{
    TestRig rig;
    for (int i = 0; i < 16; ++i) {
        auto a = rig.request(specweb::RequestType::AccountSummary,
                             static_cast<uint64_t>(1 + i));
        auto b = rig.request(specweb::RequestType::BillPay,
                             static_cast<uint64_t>(50 + i));
        ASSERT_TRUE(rig.server.injectRequest(a.raw, 1u + 2 * i));
        ASSERT_TRUE(rig.server.injectRequest(b.raw, 2u + 2 * i));
    }
    rig.queue.run();
    EXPECT_EQ(rig.responses.size(), 32u);
    // Two typed cohorts (one per type) were launched.
    EXPECT_EQ(rig.server.stats().cohortsLaunched, 2u);
    int summaries = 0, billpays = 0;
    for (const auto &[client, response] : rig.responses) {
        summaries += response.find("Account Summary") != std::string::npos;
        billpays += response.find("Pay a Bill") != std::string::npos;
    }
    EXPECT_EQ(summaries, 16);
    EXPECT_EQ(billpays, 16);
}

TEST(RhythmServer, LoginFlowCreatesDeviceSession)
{
    TestRig rig;
    for (int i = 0; i < 32; ++i) {
        auto req = rig.request(specweb::RequestType::Login,
                               static_cast<uint64_t>(1 + i));
        ASSERT_TRUE(rig.server.injectRequest(req.raw, 3000u + i));
    }
    rig.queue.run();
    ASSERT_EQ(rig.responses.size(), 32u);
    for (const auto &[client, response] : rig.responses) {
        const uint64_t sid = specweb::extractSessionId(response);
        ASSERT_NE(sid, 0u);
        simt::NullTracer null;
        EXPECT_NE(rig.server.sessions().lookup(sid, null), 0u);
    }
}

TEST(RhythmServer, UnknownPathGets404WithoutCohort)
{
    TestRig rig;
    ASSERT_TRUE(rig.server.injectRequest(
        "GET /bank/no_such_page.php HTTP/1.1\r\nHost: h\r\n\r\n", 9));
    rig.server.flush();
    rig.queue.run();
    ASSERT_EQ(rig.responses.size(), 1u);
    EXPECT_NE(rig.responses[0].second.find("404"), std::string::npos);
    EXPECT_TRUE(rig.server.drained());
}

TEST(RhythmServer, MalformedRequestGets404Path)
{
    TestRig rig;
    ASSERT_TRUE(rig.server.injectRequest("garbage\r\n\r\n", 10));
    rig.server.flush();
    rig.queue.run();
    ASSERT_EQ(rig.responses.size(), 1u);
    EXPECT_TRUE(rig.server.drained());
}

TEST(RhythmServer, PullSourceDrainsCompletely)
{
    TestRig rig;
    int remaining = 96;
    rig.server.start([&]() -> std::optional<std::string> {
        if (remaining == 0)
            return std::nullopt;
        --remaining;
        auto req = rig.request(specweb::RequestType::CheckDetailHtml,
                               1 + static_cast<uint64_t>(remaining) % 100);
        return req.raw;
    });
    rig.queue.run();
    EXPECT_EQ(rig.responses.size(), 96u);
    EXPECT_TRUE(rig.server.drained());
    EXPECT_EQ(rig.server.stats().cohortsLaunched, 3u);
}

TEST(RhythmServer, TitanAUsesPcieAndHostBackend)
{
    RhythmConfig cfg = TestRig::smallConfig();
    cfg.backendOnDevice = false;
    cfg.networkOverPcie = true;
    TestRig rig(cfg);
    for (int i = 0; i < 32; ++i) {
        auto req = rig.request(specweb::RequestType::BillPay,
                               static_cast<uint64_t>(1 + i));
        rig.server.injectRequest(req.raw, 100u + i);
    }
    rig.queue.run();
    EXPECT_EQ(rig.responses.size(), 32u);
    const auto dstats = rig.device.stats();
    // Requests in, backend requests out, backend responses in,
    // responses out.
    EXPECT_GE(dstats.copiesToDevice, 2u);
    EXPECT_GE(dstats.copiesToHost, 2u);
    EXPECT_GT(dstats.bytesToDevice, 0u);
    EXPECT_GT(dstats.bytesToHost, 0u);
}

TEST(RhythmServer, TitanBAvoidsPcieCopies)
{
    TestRig rig; // smallConfig = Titan B style
    for (int i = 0; i < 32; ++i) {
        auto req = rig.request(specweb::RequestType::BillPay,
                               static_cast<uint64_t>(1 + i));
        rig.server.injectRequest(req.raw, 100u + i);
    }
    rig.queue.run();
    EXPECT_EQ(rig.responses.size(), 32u);
    const auto dstats = rig.device.stats();
    EXPECT_EQ(dstats.copiesToDevice, 0u);
    EXPECT_EQ(dstats.copiesToHost, 0u);
}

TEST(RhythmServer, TitanCOffloadSkipsResponseTranspose)
{
    RhythmConfig base = TestRig::smallConfig();
    RhythmConfig offload = base;
    offload.offloadResponseTranspose = true;

    auto kernels = [](const RhythmConfig &cfg) {
        TestRig rig(cfg);
        for (int i = 0; i < 32; ++i) {
            auto req = rig.request(specweb::RequestType::Logout,
                                   static_cast<uint64_t>(1 + i));
            rig.server.injectRequest(req.raw, 100u + i);
        }
        rig.queue.run();
        EXPECT_EQ(rig.responses.size(), 32u);
        return rig.device.stats().kernelsLaunched;
    };
    // The offloaded variant launches exactly one fewer kernel (the
    // response transpose).
    EXPECT_EQ(kernels(base), kernels(offload) + 1);
}

TEST(RhythmServer, PaddingReportedWhenEnabled)
{
    TestRig rig;
    for (int i = 0; i < 32; ++i) {
        auto req = rig.request(specweb::RequestType::AccountSummary,
                               static_cast<uint64_t>(1 + i));
        rig.server.injectRequest(req.raw, 100u + i);
    }
    rig.queue.run();
    // Dynamic content (names, balances) differs per user, so padding
    // must have been inserted.
    EXPECT_GT(rig.server.stats().paddingBytes, 0u);
    EXPECT_GT(rig.server.stats().responseBytes, 0u);
}

TEST(RhythmServer, LaneSamplingPreservesThroughputShape)
{
    // Full execution vs 1/2 sampling: completion time should agree
    // within a few percent (profiles are scaled).
    auto runWith = [](uint32_t sample) {
        RhythmConfig cfg = TestRig::smallConfig();
        cfg.cohortSize = 64;
        cfg.laneSample = sample;
        TestRig rig(cfg);
        for (int i = 0; i < 64; ++i) {
            auto req = rig.request(specweb::RequestType::Transfer,
                                   static_cast<uint64_t>(1 + i % 100));
            rig.server.injectRequest(req.raw, 100u + i);
        }
        rig.queue.run();
        EXPECT_EQ(rig.responses.size(), 64u);
        return des::toSeconds(rig.queue.now());
    };
    const double full = runWith(0);
    const double sampled = runWith(32);
    EXPECT_NEAR(sampled / full, 1.0, 0.10);
}

TEST(RhythmServer, SimdEfficiencyIsHighForUniformCohorts)
{
    TestRig rig;
    for (int i = 0; i < 32; ++i) {
        auto req = rig.request(specweb::RequestType::ChangeProfile,
                               static_cast<uint64_t>(1 + i));
        rig.server.injectRequest(req.raw, 100u + i);
    }
    rig.queue.run();
    const auto &stats = rig.server.stats();
    const double eff = stats.processLaneInstructions /
                       (stats.processIssueSlots * 32.0);
    EXPECT_GT(eff, 0.85);
}

TEST(RhythmServer, MemoryFootprintScalesWithConfig)
{
    TestRig small;
    RhythmConfig big_cfg = TestRig::smallConfig();
    big_cfg.cohortSize = 4096;
    big_cfg.cohortContexts = 8;
    des::EventQueue q2;
    simt::Device dev2(q2, simt::DeviceConfig{});
    backend::BankDb db2(10, 1);
    BankingService svc2(db2);
    RhythmServer big(q2, dev2, svc2, big_cfg);
    EXPECT_GT(big.memoryFootprintBytes(),
              small.server.memoryFootprintBytes());
    // The paper's configuration fits the Titan's 6 GB.
    EXPECT_LT(big.memoryFootprintBytes(), 6ull << 30);
}

TEST(RhythmServer, LatenciesAreMonotoneWithQueueing)
{
    TestRig rig;
    // Two back-to-back cohorts of the same type: the second cohort's
    // requests wait for the first, so its latencies are at least the
    // first cohort's minimum.
    for (int i = 0; i < 64; ++i) {
        auto req = rig.request(specweb::RequestType::Profile,
                               static_cast<uint64_t>(1 + i % 100));
        rig.server.injectRequest(req.raw, 100u + i);
    }
    rig.queue.run();
    ASSERT_EQ(rig.latencies.size(), 64u);
    EXPECT_GT(rig.server.stats().latencyMs.percentile(99.0), 0.0);
}

// Dispatch work grows with the requests served, not with the backlog.
// One type and eight contexts: the parser outruns the process stage,
// so parsed requests queue for a context. A dispatch pass runs on every
// parsed batch and every completion; the backlog-rescan dispatcher
// re-visited every queued request on each pass. Visits per request are
// a deterministic host-side work count.
TEST(RhythmServer, RouteVisitsPerRequestDoNotGrowWithTheRun)
{
    for (uint32_t cohorts : {16u, 64u}) {
        RhythmConfig cfg = TestRig::smallConfig();
        cfg.cohortSize = 512;
        cfg.cohortContexts = 8;
        cfg.cohortTimeout = 2 * des::kMillisecond;
        cfg.laneSample = 128;
        cfg.traceTemplateCacheEntries = 4096;
        TestRig rig(cfg);
        simt::ProfileCache cache(4096);
        rig.device.engine().setProfileCache(&cache);
        uint64_t answered = 0;
        rig.server.setResponseCallback(
            [&](uint64_t, std::string_view, des::Time) { ++answered; });
        const uint64_t total = uint64_t{cohorts} * cfg.cohortSize;
        const auto sessions = rig.server.sessions().populate(
            std::min<uint64_t>(total, 8192), rig.db.numUsers());
        uint64_t issued = 0;
        rig.server.start([&]() -> std::optional<std::string> {
            if (issued >= total)
                return std::nullopt;
            const auto &[sid, user] = sessions[issued++ % sessions.size()];
            return rig.gen
                .generate(specweb::RequestType::AccountSummary, user, sid)
                .raw;
        });
        rig.queue.run();
        ASSERT_EQ(answered, total);
        EXPECT_EQ(rig.server.stats().responsesCompleted, total);
        const double per_request =
            static_cast<double>(rig.server.routeVisits()) /
            static_cast<double>(total);
        EXPECT_GE(per_request, 1.0);
        EXPECT_LE(per_request, 1.05) << cohorts << " cohorts";
    }
}

} // namespace
} // namespace rhythm::core
