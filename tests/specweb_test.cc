/**
 * @file
 * End-to-end tests for the Banking workload: every request type is
 * generated, served through the host server, and validated; page sizes
 * and instruction counts are checked against their Table 2 calibration
 * targets; trace similarity across same-type requests is asserted (the
 * property Rhythm exploits).
 */

#include <gtest/gtest.h>

#include "backend/bankdb.hh"
#include "host/server.hh"
#include "simt/warp.hh"
#include "specweb/banking.hh"
#include "specweb/context.hh"
#include "specweb/html.hh"
#include "specweb/types.hh"
#include "specweb/workload.hh"

namespace rhythm::specweb {
namespace {

simt::NullTracer gNull;

class BankingFixture : public ::testing::Test
{
  protected:
    BankingFixture() : db_(200, 99), server_(db_, sessions_), gen_(db_, 5)
    {
    }

    /// Establishes a session for a user directly in the store.
    uint64_t
    sessionFor(uint64_t user)
    {
        return sessions_.create(user, gNull);
    }

    /// Generates and serves one request; returns the raw response.
    std::string
    serveType(RequestType type, uint64_t user, simt::TraceRecorder &rec)
    {
        const uint64_t sid =
            type == RequestType::Login ? 0 : sessionFor(user);
        GeneratedRequest req = gen_.generate(type, user, sid);
        return server_.serve(req.raw, rec);
    }

    backend::BankDb db_;
    MapSessionProvider sessions_;
    host::HostServer server_;
    WorkloadGenerator gen_;
};

TEST_F(BankingFixture, MetadataTableIsConsistent)
{
    double mix = 0.0;
    for (size_t i = 0; i < kNumRequestTypes; ++i) {
        const RequestTypeInfo &info = typeTable()[i];
        EXPECT_EQ(typeIndex(info.type), i);
        EXPECT_EQ(&typeInfo(info.type), &typeTable()[i]);
        mix += info.mixPercent;
        RequestType parsed;
        ASSERT_TRUE(typeFromPath(info.path, parsed)) << info.path;
        EXPECT_EQ(parsed, info.type);
        // Rhythm buffers are the next power of two above the SPECWeb size.
        EXPECT_GE(info.rhythmBufferKb, info.specwebResponseKb);
        EXPECT_EQ(info.rhythmBufferKb & (info.rhythmBufferKb - 1), 0u);
    }
    EXPECT_NEAR(mix, 100.0, 0.1);
    RequestType dummy;
    EXPECT_FALSE(typeFromPath("/bank/quick_pay.php", dummy));
}

// Every request type round-trips and passes the validator.
class AllTypes : public BankingFixture,
                 public ::testing::WithParamInterface<int>
{
};

TEST_P(AllTypes, ServesValidResponse)
{
    const RequestType type = static_cast<RequestType>(GetParam());
    const std::string response = serveType(type, 7, gNull);
    ValidationResult v = validateResponse(type, response);
    EXPECT_TRUE(v.ok) << typeInfo(type).name << ": " << v.reason;
}

TEST_P(AllTypes, ResponseSizeNearSpecwebTarget)
{
    const RequestType type = static_cast<RequestType>(GetParam());
    const std::string response = serveType(type, 11, gNull);
    const double target = typeInfo(type).specwebResponseKb * 1024.0;
    EXPECT_GT(response.size(), target * 0.75)
        << typeInfo(type).name << " size " << response.size();
    EXPECT_LT(response.size(), target * 1.25)
        << typeInfo(type).name << " size " << response.size();
    // And within the Rhythm power-of-two buffer.
    EXPECT_LE(response.size(), typeInfo(type).rhythmBufferKb * 1024u);
}

TEST_P(AllTypes, InstructionCountNearPaperTarget)
{
    const RequestType type = static_cast<RequestType>(GetParam());
    simt::CountingTracer ct;
    serveType(type, 13, ct);
    const double target = typeInfo(type).paperInstructions;
    EXPECT_GT(ct.instructions(), target * 0.7)
        << typeInfo(type).name << " insts " << ct.instructions();
    EXPECT_LT(ct.instructions(), target * 1.3)
        << typeInfo(type).name << " insts " << ct.instructions();
}

TEST_P(AllTypes, SameTypeRequestsShareControlFlow)
{
    // The merged trace of two same-type requests should be barely longer
    // than one alone (Figure 2's near-linear speedup property).
    const RequestType type = static_cast<RequestType>(GetParam());
    // Cohorts group requests of the same form; bill_pay_status_output has
    // two forms (execute payment vs list history), so pin one of them by
    // resampling until both requests carry the same parameter shape.
    auto generateSameForm = [&](uint64_t user) {
        for (;;) {
            const uint64_t sid =
                type == RequestType::Login ? 0 : sessionFor(user);
            GeneratedRequest req = gen_.generate(type, user, sid);
            if (type != RequestType::BillPayStatusOutput ||
                req.raw.find("payee=") == std::string::npos)
                return req;
        }
    };
    simt::ThreadTrace ta, tb;
    {
        GeneratedRequest req = generateSameForm(17);
        simt::RecordingTracer rec(ta);
        server_.serve(req.raw, rec);
    }
    {
        GeneratedRequest req = generateSameForm(23);
        simt::RecordingTracer rec(tb);
        server_.serve(req.raw, rec);
    }
    const std::vector<const simt::ThreadTrace *> lanes = {&ta, &tb};
    simt::WarpStats ws = simt::simulateWarp(
        std::span<const simt::ThreadTrace *const>(lanes.data(), 2));
    const double efficiency =
        static_cast<double>(ws.laneInstructions) /
        (2.0 * static_cast<double>(ws.issueSlots));
    EXPECT_GT(efficiency, 0.90) << typeInfo(type).name;
}

INSTANTIATE_TEST_SUITE_P(
    Types, AllTypes, ::testing::Range(0, static_cast<int>(kNumRequestTypes)),
    [](const ::testing::TestParamInfo<int> &info) {
        std::string name(
            typeInfo(static_cast<RequestType>(info.param)).name);
        for (char &c : name)
            if (c == ' ')
                c = '_';
        return name;
    });

TEST_F(BankingFixture, LoginCreatesUsableSession)
{
    GeneratedRequest login =
        gen_.generate(RequestType::Login, 42, 0);
    const std::string response = server_.serve(login.raw, gNull);
    const uint64_t sid = extractSessionId(response);
    ASSERT_NE(sid, 0u);
    // The session works for a follow-up page.
    GeneratedRequest summary =
        gen_.generate(RequestType::AccountSummary, 42, sid);
    const std::string page = server_.serve(summary.raw, gNull);
    EXPECT_TRUE(validateResponse(RequestType::AccountSummary, page).ok);
}

TEST_F(BankingFixture, LogoutDestroysSession)
{
    const uint64_t sid = sessionFor(5);
    GeneratedRequest logout = gen_.generate(RequestType::Logout, 5, sid);
    const std::string page = server_.serve(logout.raw, gNull);
    EXPECT_TRUE(validateResponse(RequestType::Logout, page).ok);
    // The session is gone: a summary with it now fails.
    GeneratedRequest summary =
        gen_.generate(RequestType::AccountSummary, 5, sid);
    const std::string err = server_.serve(summary.raw, gNull);
    EXPECT_NE(err.find("400"), std::string::npos);
    EXPECT_NE(err.find("page:error"), std::string::npos);
}

TEST_F(BankingFixture, InvalidSessionYieldsErrorPage)
{
    GeneratedRequest req =
        gen_.generate(RequestType::AccountSummary, 3, 999999999);
    const std::string page = server_.serve(req.raw, gNull);
    EXPECT_NE(page.find("HTTP/1.1 400"), std::string::npos);
    EXPECT_FALSE(validateResponse(RequestType::AccountSummary, page).ok);
}

TEST_F(BankingFixture, BadLoginRejected)
{
    const std::string raw = http::buildRequest(
        http::Method::Post, "/bank/login.php",
        {{"userid", "42"}, {"password", "wrong"}});
    const std::string page = server_.serve(raw, gNull);
    EXPECT_NE(page.find("HTTP/1.1 400"), std::string::npos);
    EXPECT_EQ(extractSessionId(page), 0u);
}

TEST_F(BankingFixture, UnknownPathIs404)
{
    const std::string raw = http::buildRequest(
        http::Method::Get, "/bank/no_such_page.php", {});
    const std::string page = server_.serve(raw, gNull);
    EXPECT_NE(page.find("404"), std::string::npos);
}

TEST_F(BankingFixture, MalformedRequestIs400)
{
    const std::string page = server_.serve("garbage\r\n\r\n", gNull);
    EXPECT_NE(page.find("400"), std::string::npos);
}

TEST_F(BankingFixture, PostTransferMovesMoney)
{
    const int64_t before =
        db_.account(backend::BankDb::checkingId(8))->balanceCents +
        db_.account(backend::BankDb::savingsId(8))->balanceCents;
    const uint64_t sid = sessionFor(8);
    const std::string raw = http::buildRequest(
        http::Method::Post, "/bank/post_transfer.php",
        {{"from", std::to_string(backend::BankDb::checkingId(8))},
         {"to", std::to_string(backend::BankDb::savingsId(8))},
         {"amount", "777"}},
        "session=" + std::to_string(sid));
    const std::string page = server_.serve(raw, gNull);
    EXPECT_TRUE(validateResponse(RequestType::PostTransfer, page).ok);
    const int64_t after =
        db_.account(backend::BankDb::checkingId(8))->balanceCents +
        db_.account(backend::BankDb::savingsId(8))->balanceCents;
    EXPECT_EQ(before, after); // conserved
}

TEST_F(BankingFixture, MixSamplingMatchesTable2)
{
    WorkloadGenerator gen(db_, 123);
    std::array<int, kNumRequestTypes> counts{};
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[typeIndex(gen.sampleType())];
    for (size_t i = 0; i < kNumRequestTypes; ++i) {
        const double expected = typeTable()[i].mixPercent / 100.0;
        const double actual = static_cast<double>(counts[i]) / n;
        EXPECT_NEAR(actual, expected, 0.01)
            << typeTable()[i].name;
    }
}

TEST_F(BankingFixture, GeneratorIsDeterministic)
{
    WorkloadGenerator a(db_, 77), b(db_, 77);
    for (int i = 0; i < 50; ++i) {
        GeneratedRequest ra = a.next(1);
        GeneratedRequest rb = b.next(1);
        EXPECT_EQ(ra.type, rb.type);
        EXPECT_EQ(ra.raw, rb.raw);
    }
}

TEST_F(BankingFixture, BrowsingTypesDrawTheMixWithoutLoginOrLogout)
{
    // The rejection loop consumes the same draws as sampleType(): a
    // browsing sample is the first non-login, non-logout type of the
    // plain stream.
    WorkloadGenerator browsing(db_, 41), plain(db_, 41);
    for (int i = 0; i < 2000; ++i) {
        RequestType expected;
        do {
            expected = plain.sampleType();
        } while (expected == RequestType::Login ||
                 expected == RequestType::Logout);
        EXPECT_EQ(browsing.sampleBrowsingType(), expected);
    }
}

TEST_F(BankingFixture, PoolRequestsCycleThePoolAndLoginsSampleAUser)
{
    const std::vector<std::pair<uint64_t, uint64_t>> pool = {
        {501, 7}, {502, 8}, {503, 9}};
    WorkloadGenerator gen(db_, 3), ref(db_, 3);
    for (uint64_t i = 0; i < 7; ++i) {
        const GeneratedRequest r =
            gen.fromPool(RequestType::Profile, pool, i);
        EXPECT_EQ(r.sessionId, pool[i % 3].first);
        EXPECT_EQ(r.userId, pool[i % 3].second);
        EXPECT_EQ(r.raw, ref.generate(RequestType::Profile,
                                      pool[i % 3].second,
                                      pool[i % 3].first)
                             .raw);
    }
    // A login ignores the pool (an empty one included): a fresh user,
    // no session.
    const GeneratedRequest login = gen.fromPool(RequestType::Login, {}, 4);
    EXPECT_EQ(login.sessionId, 0u);
    EXPECT_EQ(login.raw,
              ref.generate(RequestType::Login, ref.sampleUser(), 0).raw);
}

TEST_F(BankingFixture, ClosedLoopSessionLifecycle)
{
    // login → several pages → logout, all validated.
    GeneratedRequest login = gen_.generate(RequestType::Login, 30, 0);
    const uint64_t sid = extractSessionId(server_.serve(login.raw, gNull));
    ASSERT_NE(sid, 0u);
    for (RequestType t : {RequestType::AccountSummary, RequestType::BillPay,
                          RequestType::Transfer, RequestType::Profile}) {
        GeneratedRequest r = gen_.generate(t, 30, sid);
        EXPECT_TRUE(validateResponse(t, server_.serve(r.raw, gNull)).ok)
            << typeInfo(t).name;
    }
    GeneratedRequest out = gen_.generate(RequestType::Logout, 30, sid);
    EXPECT_TRUE(validateResponse(RequestType::Logout,
                                 server_.serve(out.raw, gNull))
                    .ok);
}

TEST(Html, FormatCents)
{
    EXPECT_EQ(html::formatCents(123456), "$1,234.56");
    EXPECT_EQ(html::formatCents(-7), "-$0.07");
    EXPECT_EQ(html::formatCents(0), "$0.00");
    EXPECT_EQ(html::formatCents(100), "$1.00");
}

TEST(Html, FormatDate)
{
    EXPECT_EQ(html::formatDate(0), "2000-01-01");
    EXPECT_EQ(html::formatDate(360), "2001-01-01");
    EXPECT_EQ(html::formatDate(35), "2000-02-06");
}

TEST(Html, ContentLengthBackPatch)
{
    simt::NullTracer null;
    StringResponseWriter w(null);
    const html::PageFrame frame = html::beginResponse(w);
    w.appendStatic(1, "0123456789");
    const size_t body = html::finishResponse(w, frame);
    EXPECT_EQ(body, 10u);
    EXPECT_NE(w.str().find("Content-Length: 10"), std::string::npos);
}

TEST(Context, MapSessionProviderLifecycle)
{
    simt::NullTracer null;
    MapSessionProvider sp;
    const uint64_t s1 = sp.create(10, null);
    const uint64_t s2 = sp.create(20, null);
    EXPECT_NE(s1, 0u);
    EXPECT_NE(s1, s2);
    EXPECT_EQ(sp.lookup(s1, null), 10u);
    EXPECT_EQ(sp.lookup(s2, null), 20u);
    EXPECT_EQ(sp.lookup(12345, null), 0u);
    EXPECT_EQ(sp.liveSessions(), 2u);
    EXPECT_TRUE(sp.destroy(s1, null));
    EXPECT_FALSE(sp.destroy(s1, null));
    EXPECT_EQ(sp.lookup(s1, null), 0u);
}

TEST(Context, StringWriterReserveAndPatch)
{
    simt::NullTracer null;
    StringResponseWriter w(null);
    w.appendStatic(1, "X: ");
    const size_t off = w.reserve(1, 5);
    w.appendStatic(1, "!");
    EXPECT_EQ(w.str(), "X:      !");
    w.patch(off, "42");
    EXPECT_EQ(w.str(), "X: 42   !");
}

} // namespace
} // namespace rhythm::specweb
