/**
 * @file
 * Tests for the paper's auxiliary mechanisms: static image cohorts
 * (Section 5.1, bypassing the process stage), the quick pay host
 * fallback (Sections 3.1/5.1), and their integration in both servers.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "backend/bankdb.hh"
#include "host/server.hh"
#include "http/parser.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/server.hh"
#include "specweb/quickpay.hh"
#include "specweb/static_content.hh"
#include "specweb/workload.hh"

namespace rhythm {
namespace {

simt::NullTracer gNull;

// ---------------------------------------------------------------------
// StaticContent
// ---------------------------------------------------------------------

TEST(StaticContent, StandardAssetsExist)
{
    specweb::StaticContent content(8, 3);
    EXPECT_NE(content.lookup("/images/logo.gif"), nullptr);
    EXPECT_NE(content.lookup("/images/check_1_front.gif"), nullptr);
    EXPECT_NE(content.lookup("/images/check_8_back.gif"), nullptr);
    EXPECT_EQ(content.lookup("/images/check_9_front.gif"), nullptr);
    EXPECT_EQ(content.lookup("/images/nope.gif"), nullptr);
    EXPECT_EQ(content.paths().size(), 4u + 16u);
    EXPECT_GT(content.totalBytes(), 100u * 1024);
}

TEST(StaticContent, DeterministicAcrossInstances)
{
    specweb::StaticContent a(4, 9), b(4, 9);
    EXPECT_EQ(*a.lookup("/images/check_2_front.gif"),
              *b.lookup("/images/check_2_front.gif"));
}

TEST(StaticContent, PathClassification)
{
    EXPECT_TRUE(specweb::StaticContent::isStaticPath("/images/logo.gif"));
    EXPECT_TRUE(specweb::StaticContent::isStaticPath("/images/a.png"));
    EXPECT_FALSE(specweb::StaticContent::isStaticPath("/bank/login.php"));
    EXPECT_FALSE(specweb::StaticContent::isStaticPath("/images/readme.txt"));
    EXPECT_FALSE(specweb::StaticContent::isStaticPath("/img/logo.gif"));
}

TEST(StaticContent, ResponseHasCorrectContentLength)
{
    specweb::StaticContent content(2, 5);
    const std::string resp = content.buildResponse("/images/logo.gif");
    EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(resp.find("Content-Type: image/gif"), std::string::npos);
    const size_t body = resp.size() - resp.find("\r\n\r\n") - 4;
    EXPECT_NE(resp.find("Content-Length: " + std::to_string(body)),
              std::string::npos);
    EXPECT_EQ(body, content.lookup("/images/logo.gif")->size());
}

// ---------------------------------------------------------------------
// Quick pay (host fallback)
// ---------------------------------------------------------------------

class QuickPayTest : public ::testing::Test
{
  protected:
    QuickPayTest() : db_(50, 3), svc_(db_) {}

    http::Request
    makeRequest(uint64_t user, const std::string &payees,
                const std::string &amounts)
    {
        const uint64_t sid = sessions_.create(user, gNull);
        const std::string raw = http::buildRequest(
            http::Method::Post, std::string(specweb::kQuickPayPath),
            {{"payees", payees}, {"amounts", amounts}},
            "session=" + std::to_string(sid));
        http::Request req;
        EXPECT_TRUE(http::parseRequest(raw, 0, gNull, req));
        return req;
    }

    backend::BankDb db_;
    backend::BackendService svc_;
    specweb::MapSessionProvider sessions_;
};

TEST_F(QuickPayTest, PaysMultiplePayees)
{
    auto payees = db_.payees(7);
    ASSERT_GE(payees.size(), 2u);
    const int64_t before =
        db_.account(backend::BankDb::checkingId(7))->balanceCents;
    http::Request req = makeRequest(
        7,
        std::to_string(payees[0]->payeeId) + "," +
            std::to_string(payees[1]->payeeId),
        "150,250");
    const std::string page =
        specweb::serveQuickPay(req, svc_, sessions_, gNull);
    EXPECT_NE(page.find("Quick Pay Results"), std::string::npos);
    EXPECT_NE(page.find("page:ok"), std::string::npos);
    EXPECT_EQ(db_.account(backend::BankDb::checkingId(7))->balanceCents,
              before - 400);
}

TEST_F(QuickPayTest, RejectedPaymentsReported)
{
    http::Request req = makeRequest(7, "999999999", "100");
    const std::string page =
        specweb::serveQuickPay(req, svc_, sessions_, gNull);
    EXPECT_NE(page.find("rejected"), std::string::npos);
    EXPECT_NE(page.find("page:ok"), std::string::npos);
}

TEST_F(QuickPayTest, RequiresSession)
{
    http::Request req;
    ASSERT_TRUE(http::parseRequest(
        http::buildRequest(http::Method::Post,
                           std::string(specweb::kQuickPayPath),
                           {{"payees", "1"}, {"amounts", "1"}}),
        0, gNull, req));
    const std::string page =
        specweb::serveQuickPay(req, svc_, sessions_, gNull);
    EXPECT_NE(page.find("page:error"), std::string::npos);
}

TEST_F(QuickPayTest, RejectsMalformedLists)
{
    // Mismatched lengths.
    http::Request req = makeRequest(7, "1,2", "100");
    EXPECT_NE(specweb::serveQuickPay(req, svc_, sessions_, gNull)
                  .find("page:error"),
              std::string::npos);
    // Oversized list.
    std::string many;
    for (int i = 0; i < 20; ++i)
        many += (i ? ",1" : "1");
    http::Request big = makeRequest(7, many, many);
    EXPECT_NE(specweb::serveQuickPay(big, svc_, sessions_, gNull)
                  .find("page:error"),
              std::string::npos);
}

TEST_F(QuickPayTest, VariableBackendTripsShowInInstructionCount)
{
    auto payees = db_.payees(9);
    ASSERT_GE(payees.size(), 2u);
    simt::CountingTracer one, two;
    {
        http::Request req =
            makeRequest(9, std::to_string(payees[0]->payeeId), "10");
        specweb::serveQuickPay(req, svc_, sessions_, one);
    }
    {
        http::Request req = makeRequest(
            9,
            std::to_string(payees[0]->payeeId) + "," +
                std::to_string(payees[1]->payeeId),
            "10,10");
        specweb::serveQuickPay(req, svc_, sessions_, two);
    }
    EXPECT_GT(two.instructions(), one.instructions());
}

// ---------------------------------------------------------------------
// Host server integration
// ---------------------------------------------------------------------

TEST(HostServerExtensions, ServesStaticImages)
{
    backend::BankDb db(20, 1);
    specweb::MapSessionProvider sessions;
    specweb::StaticContent content(4, 2);
    host::HostServer server(db, sessions, &content);
    const std::string raw = http::buildRequest(
        http::Method::Get, "/images/check_3_front.gif", {});
    const std::string resp = server.serve(raw, gNull);
    EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(resp.find("image/gif"), std::string::npos);
}

TEST(HostServerExtensions, ImagePathWithoutStoreIs404)
{
    backend::BankDb db(20, 1);
    specweb::MapSessionProvider sessions;
    host::HostServer server(db, sessions);
    const std::string resp = server.serve(
        http::buildRequest(http::Method::Get, "/images/logo.gif", {}),
        gNull);
    EXPECT_NE(resp.find("404"), std::string::npos);
}

TEST(HostServerExtensions, ServesQuickPay)
{
    backend::BankDb db(20, 1);
    specweb::MapSessionProvider sessions;
    host::HostServer server(db, sessions);
    const uint64_t sid = sessions.create(5, gNull);
    auto payees = db.payees(5);
    ASSERT_FALSE(payees.empty());
    const std::string raw = http::buildRequest(
        http::Method::Post, std::string(specweb::kQuickPayPath),
        {{"payees", std::to_string(payees[0]->payeeId)},
         {"amounts", "75"}},
        "session=" + std::to_string(sid));
    const std::string resp = server.serve(raw, gNull);
    EXPECT_NE(resp.find("Quick Pay Results"), std::string::npos);
}

// ---------------------------------------------------------------------
// Rhythm server integration
// ---------------------------------------------------------------------

struct ExtensionRig
{
    explicit ExtensionRig(uint32_t contexts = 4)
        : db(100, 7), device(queue, simt::DeviceConfig{}),
          service(db), server(queue, device, service, config(contexts)),
          content(8, 5)
    {
        server.setStaticContent(&content);
        server.setResponseCallback([this](uint64_t client,
                                          std::string_view response,
                                          des::Time) {
            responses.emplace_back(client, response);
        });
    }

    static core::RhythmConfig
    config(uint32_t contexts)
    {
        core::RhythmConfig cfg;
        cfg.cohortSize = 16;
        cfg.cohortContexts = contexts;
        cfg.cohortTimeout = des::kMillisecond;
        cfg.backendOnDevice = true;
        cfg.networkOverPcie = false;
        return cfg;
    }

    des::EventQueue queue;
    backend::BankDb db;
    simt::Device device;
    core::BankingService service;
    core::RhythmServer server;
    specweb::StaticContent content;
    std::vector<std::pair<uint64_t, std::string>> responses;
};

TEST(RhythmServerExtensions, ImageCohortBypassesProcessStage)
{
    ExtensionRig rig;
    for (int i = 0; i < 16; ++i) {
        const std::string path =
            "/images/check_" + std::to_string(1 + i % 8) + "_front.gif";
        rig.server.injectRequest(
            http::buildRequest(http::Method::Get, path, {}),
            100u + static_cast<uint64_t>(i));
    }
    rig.queue.run();
    ASSERT_EQ(rig.responses.size(), 16u);
    for (const auto &[client, resp] : rig.responses)
        EXPECT_NE(resp.find("image/gif"), std::string::npos);
    const auto &stats = rig.server.stats();
    EXPECT_EQ(stats.imageRequests, 16u);
    EXPECT_EQ(stats.imageCohorts, 1u);
    EXPECT_GT(stats.imageBytes, 16u * 8 * 1024);
    // No process cohort was launched for the images.
    EXPECT_EQ(stats.cohortsLaunched, 0u);
    EXPECT_TRUE(rig.server.drained());
}

TEST(RhythmServerExtensions, PartialImageCohortFlushesOnTimeout)
{
    ExtensionRig rig;
    rig.server.injectRequest(
        http::buildRequest(http::Method::Get, "/images/logo.gif", {}), 1);
    rig.server.flush(); // forces the reader batch through the parser
    rig.queue.run();
    ASSERT_EQ(rig.responses.size(), 1u);
    EXPECT_EQ(rig.server.stats().imageCohorts, 1u);
    EXPECT_TRUE(rig.server.drained());
}

TEST(RhythmServerExtensions, QuickPayRunsOnHostFallback)
{
    ExtensionRig rig;
    simt::NullTracer null;
    const uint64_t sid = rig.server.sessions().create(9, null);
    auto payees = rig.db.payees(9);
    ASSERT_FALSE(payees.empty());
    rig.server.injectRequest(
        http::buildRequest(
            http::Method::Post, std::string(specweb::kQuickPayPath),
            {{"payees", std::to_string(payees[0]->payeeId)},
             {"amounts", "20"}},
            "session=" + std::to_string(sid)),
        7);
    rig.server.flush();
    rig.queue.run();
    ASSERT_EQ(rig.responses.size(), 1u);
    EXPECT_NE(rig.responses[0].second.find("Quick Pay Results"),
              std::string::npos);
    EXPECT_EQ(rig.server.stats().hostFallbackRequests, 1u);
    EXPECT_EQ(rig.server.stats().cohortsLaunched, 0u);
    EXPECT_TRUE(rig.server.drained());
}

TEST(RhythmServerExtensions, MixedImagesPagesAndFallback)
{
    ExtensionRig rig;
    simt::NullTracer null;
    specweb::WorkloadGenerator gen(rig.db, 21);
    int expected = 0;
    for (int i = 0; i < 16; ++i) {
        const uint64_t user = 1 + static_cast<uint64_t>(i);
        const uint64_t sid = rig.server.sessions().create(user, null);
        auto page = gen.generate(specweb::RequestType::AccountSummary,
                                 user, sid);
        rig.server.injectRequest(page.raw, 1000u + i);
        ++expected;
        rig.server.injectRequest(
            http::buildRequest(http::Method::Get, "/images/logo.gif", {}),
            2000u + i);
        ++expected;
    }
    rig.queue.run();
    EXPECT_EQ(rig.responses.size(), static_cast<size_t>(expected));
    EXPECT_EQ(rig.server.stats().imageRequests, 16u);
    EXPECT_EQ(rig.server.stats().cohortsLaunched, 1u);
    EXPECT_TRUE(rig.server.drained());
}

// With more cohort types than contexts, dispatch routes past a blocked
// type in arrival order and keeps every type's own FIFO order; static
// content, host fallback and 404s never block. The completion order,
// each latency and the DES event-order hash are pinned to the values
// the backlog-rescan dispatcher produced, so any change to routing
// order shows here (response digests ignore order).
TEST(RhythmServerExtensions, DispatchOrderUnderContextPressureIsPinned)
{
    ExtensionRig rig(2);
    simt::NullTracer null;
    specweb::WorkloadGenerator gen(rig.db, 5);
    const specweb::RequestType kTypes[] = {
        specweb::RequestType::AccountSummary,
        specweb::RequestType::BillPay,
        specweb::RequestType::Profile,
        specweb::RequestType::CheckDetailHtml,
    };
    auto page = [&](uint64_t k) {
        const uint64_t user = 1 + k % 40;
        const uint64_t sid = rig.server.sessions().create(user, null);
        return gen.generate(kTypes[(k * 5 / 3) % 4], user, sid).raw;
    };
    // Pulled in this order; the server numbers them 1, 2, ...
    std::vector<std::string> script;
    for (uint64_t i = 0; i < 72; ++i) {
        if (i % 9 == 4) {
            script.push_back(http::buildRequest(
                http::Method::Get,
                "/images/check_" + std::to_string(1 + i % 8) + "_back.gif",
                {}));
        } else if (i % 13 == 6) {
            script.push_back(http::buildRequest(
                http::Method::Get, "/bank/nope" + std::to_string(i) + ".php",
                {}));
        } else if (i % 17 == 8) {
            const uint64_t user = 1 + i % 40;
            const uint64_t sid = rig.server.sessions().create(user, null);
            script.push_back(http::buildRequest(
                http::Method::Post, std::string(specweb::kQuickPayPath),
                {{"payees",
                  std::to_string(rig.db.payees(user)[0]->payeeId)},
                 {"amounts", "15"}},
                "session=" + std::to_string(sid)));
        } else {
            script.push_back(page(i));
        }
    }
    // Some responses inject a follow-up request from inside the
    // callback, re-entering the server mid-delivery.
    std::vector<std::pair<uint64_t, des::Time>> done;
    uint64_t injected = 0;
    rig.server.setResponseCallback(
        [&](uint64_t client, std::string_view, des::Time latency) {
            done.emplace_back(client, latency);
            if (client % 7 == 3 && injected < 10) {
                const uint64_t k = 100 + injected++;
                EXPECT_TRUE(rig.server.injectRequest(page(k), 1000 + k));
            }
        });
    size_t next = 0;
    rig.server.start([&]() -> std::optional<std::string> {
        if (next >= script.size())
            return std::nullopt;
        return script[next++];
    });
    rig.queue.run();
    EXPECT_TRUE(rig.server.drained());
    EXPECT_EQ(injected, 10u);
    ASSERT_EQ(done.size(), script.size() + injected);
    const auto &stats = rig.server.stats();
    EXPECT_GT(stats.imageRequests, 0u);
    EXPECT_GT(stats.hostFallbackRequests, 0u);
    EXPECT_GT(stats.errorResponses, 0u);
    const std::vector<std::pair<uint64_t, des::Time>> kExpected = {
        {7, 37709632}, {9, 41404182}, {20, 75502227}, {26, 79197777},
        {33, 75419264}, {46, 75419264}, {43, 79112914}, {60, 78782062},
        {5, 1038709632}, {14, 1038709632}, {23, 1038709632}, {32, 1038709632},
        {41, 1001000000}, {50, 963207405}, {59, 963207405}, {72, 1449928886},
        {68, 1950928886}, {2, 2669180189}, {4, 2669180189}, {16, 2669180189},
        {21, 2669180189}, {28, 2669180189}, {38, 2631470557},
        {40, 2631470557}, {45, 2631470557}, {52, 2593677962},
        {57, 2593677962}, {62, 2593677962}, {64, 2593677962}, {1, 3073228043},
        {6, 3073228043}, {11, 3073228043}, {13, 3073228043}, {18, 3073228043},
        {25, 3073228043}, {30, 3073228043}, {35, 3035518411},
        {37, 3035518411}, {42, 3035518411}, {47, 3035518411},
        {49, 2997725816}, {54, 2997725816}, {61, 2997725816}, {3, 4154487273},
        {8, 4154487273}, {10, 4154487273}, {15, 4154487273}, {22, 4154487273},
        {27, 4154487273}, {34, 4116777641}, {39, 4116777641},
        {44, 4116777641}, {51, 4078985046}, {56, 4078985046},
        {58, 4078985046}, {63, 4078985046}, {70, 4041358377},
        {66, 5736860221}, {71, 5736860221}, {1101, 3180808928},
        {12, 5857171209}, {17, 5857171209}, {19, 5857171209},
        {24, 5857171209}, {29, 5857171209}, {31, 5857171209},
        {36, 5819461577}, {48, 5819461577}, {53, 5781668982},
        {55, 5781668982}, {65, 5744042313}, {67, 5744042313},
        {1100, 4818461577}, {69, 7280047672}, {1104, 3238689295},
        {1102, 5309528837}, {1103, 5914341202}, {1105, 4429034118},
        {1106, 3761382469}, {1108, 3754200377}, {1107, 4855070091},
        {1109, 5169824691}};
    EXPECT_EQ(done, kExpected);
    EXPECT_EQ(rig.queue.orderHash(), 17096187413259257548ull);
}

} // namespace
} // namespace rhythm
