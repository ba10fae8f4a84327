/**
 * @file
 * Unit and property tests for the HTTP message types and parser.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "http/http.hh"
#include "http/parser.hh"
#include "simt/trace.hh"
#include "util/rng.hh"

namespace rhythm::http {
namespace {

simt::NullTracer gNull;

Request
mustParse(const std::string &raw)
{
    Request req;
    EXPECT_TRUE(parseRequest(raw, 0, gNull, req)) << raw;
    return req;
}

TEST(Parser, SimpleGet)
{
    Request req = mustParse(
        "GET /bank/account.php HTTP/1.1\r\nHost: bank.example.com\r\n\r\n");
    EXPECT_EQ(req.method, Method::Get);
    EXPECT_EQ(req.path, "/bank/account.php");
    EXPECT_TRUE(req.params.empty());
    EXPECT_TRUE(req.keepAlive);
    EXPECT_EQ(req.sessionId, 0u);
}

TEST(Parser, GetWithQueryString)
{
    Request req = mustParse(
        "GET /bank/tx.php?acct=101&max=20 HTTP/1.1\r\nHost: h\r\n\r\n");
    EXPECT_EQ(req.path, "/bank/tx.php");
    ASSERT_EQ(req.params.size(), 2u);
    EXPECT_EQ(req.param("acct"), "101");
    EXPECT_EQ(req.param("max"), "20");
    EXPECT_TRUE(req.hasParam("acct"));
    EXPECT_FALSE(req.hasParam("missing"));
    EXPECT_EQ(req.param("missing"), "");
}

TEST(Parser, PostFormBody)
{
    const std::string raw =
        "POST /bank/login.php HTTP/1.1\r\nHost: h\r\n"
        "Content-Type: application/x-www-form-urlencoded\r\n"
        "Content-Length: 25\r\n\r\nuserid=42&password=pwd42x";
    Request req = mustParse(raw);
    EXPECT_EQ(req.method, Method::Post);
    EXPECT_EQ(req.contentLength, 25u);
    EXPECT_EQ(req.param("userid"), "42");
    EXPECT_EQ(req.param("password"), "pwd42x");
}

TEST(Parser, SessionCookieExtracted)
{
    Request req = mustParse(
        "GET /bank/summary.php HTTP/1.1\r\nHost: h\r\n"
        "Cookie: lang=en; session=987654321\r\n\r\n");
    EXPECT_EQ(req.sessionId, 987654321u);
    EXPECT_EQ(req.cookie, "lang=en; session=987654321");
}

TEST(Parser, ConnectionClose)
{
    Request req = mustParse(
        "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
    EXPECT_FALSE(req.keepAlive);
}

TEST(Parser, Http10DefaultsToClose)
{
    Request req = mustParse("GET / HTTP/1.0\r\n\r\n");
    EXPECT_FALSE(req.keepAlive);
}

TEST(Parser, UrlDecoding)
{
    Request req = mustParse(
        "GET /p.php?name=John+Smith&sym=%26%3D HTTP/1.1\r\n\r\n");
    EXPECT_EQ(req.param("name"), "John Smith");
    EXPECT_EQ(req.param("sym"), "&=");
}

TEST(Parser, RejectsMalformed)
{
    Request req;
    EXPECT_FALSE(parseRequest("", 0, gNull, req));
    EXPECT_FALSE(parseRequest("GET\r\n\r\n", 0, gNull, req));
    EXPECT_FALSE(parseRequest("PUT / HTTP/1.1\r\n\r\n", 0, gNull, req));
    EXPECT_FALSE(parseRequest("GET / HTTP/2.0\r\n\r\n", 0, gNull, req));
    EXPECT_FALSE(parseRequest("GET / HTTP/1.1\r\nno-end", 0, gNull, req));
    EXPECT_FALSE(parseRequest(
        "POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort", 0, gNull,
        req));
    EXPECT_FALSE(parseRequest(
        "POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 0, gNull, req));
}

TEST(Parser, PostZeroLengthBodyParses)
{
    // "Content-Length: 0" is a legal POST with no body — the body scan
    // must be skipped entirely (no body block, no params from the
    // padding bytes that follow in a cohort slot).
    Request req = mustParse(
        "POST /bank/logout.php HTTP/1.1\r\nHost: h\r\n"
        "Content-Length: 0\r\n\r\n");
    EXPECT_EQ(req.method, Method::Post);
    EXPECT_EQ(req.contentLength, 0u);
    EXPECT_TRUE(req.params.empty());
}

TEST(Parser, PostBodyIgnoresTrailingSlotPadding)
{
    // Requests live in fixed-width cohort slots padded with whitespace
    // (Section 4.3.2); only Content-Length bytes belong to the body,
    // whatever follows in the slot must not leak into the params.
    const std::string padded =
        "POST /bank/login.php HTTP/1.1\r\nHost: h\r\n"
        "Content-Length: 8\r\n\r\n"
        "acct=101" +
        std::string(24, ' ');
    Request req = mustParse(padded);
    ASSERT_EQ(req.params.size(), 1u);
    EXPECT_EQ(req.param("acct"), "101");
}

TEST(Parser, ContentLengthWidthChangeAcrossPaddingBoundary)
{
    // Two same-shaped requests whose Content-Length differs in digit
    // width (9 vs 10): the body start shifts by one byte, so the
    // shorter header line carries one extra pad byte in a width-aligned
    // slot. Both must parse to their exact bodies.
    auto post = [](const std::string &body) {
        return "POST /bank/pay.php HTTP/1.1\r\nHost: h\r\n"
               "Content-Length: " +
               std::to_string(body.size()) + "\r\n\r\n" + body;
    };
    const std::string nine(9, 'a');       // "Content-Length: 9"
    const std::string ten = "k=" +        // "Content-Length: 10"
                            std::string(8, 'b');
    Request r9 = mustParse(post("k=" + nine.substr(2)));
    Request r10 = mustParse(post(ten));
    EXPECT_EQ(r9.contentLength, 9u);
    EXPECT_EQ(r10.contentLength, 10u);
    EXPECT_EQ(r9.param("k"), nine.substr(2));
    EXPECT_EQ(r10.param("k"), std::string(8, 'b'));

    // Width-aligned variant: pad both to one slot width; the value
    // with the wider length header has one pad byte fewer.
    const size_t slot = 96;
    std::string s9 = post("k=" + nine.substr(2));
    std::string s10 = post(ten);
    s9.append(slot - s9.size(), ' ');
    s10.append(slot - s10.size(), ' ');
    ASSERT_EQ(s9.size(), s10.size());
    EXPECT_EQ(mustParse(s9).param("k"), nine.substr(2));
    EXPECT_EQ(mustParse(s10).param("k"), std::string(8, 'b'));
}

TEST(Parser, UrlDecodeTruncatedEscapeStaysLiteral)
{
    // A '%' not followed by two hex digits cannot decode; the parser
    // keeps it literal rather than eating the tail. Also exercises the
    // no-escape fast path ("plain") against the decoding slow path.
    Request req = mustParse(
        "GET /p.php?plain=hello&cut=ab%2&pct=100%25 HTTP/1.1\r\n\r\n");
    EXPECT_EQ(req.param("plain"), "hello");
    EXPECT_EQ(req.param("cut"), "ab%2");
    EXPECT_EQ(req.param("pct"), "100%");
}

TEST(Parser, RecordsTraceBlocks)
{
    simt::ThreadTrace trace;
    simt::RecordingTracer rec(trace);
    Request req;
    ASSERT_TRUE(parseRequest(
        "GET /bank/summary.php?a=1 HTTP/1.1\r\nHost: h\r\n"
        "Cookie: session=5\r\n\r\n",
        0x10000, rec, req));
    EXPECT_GT(trace.blocks.size(), 3u);
    EXPECT_GT(trace.totalInstructions(), 100u);
    // All loads hit the request buffer region.
    for (const auto &op : trace.memOps) {
        EXPECT_GE(op.addr, 0x10000u);
        EXPECT_FALSE(op.isStore);
    }
    // Final block is the success terminator.
    EXPECT_EQ(trace.blocks.back().blockId, kBlockParseDone);
}

TEST(Parser, IdenticalRequestsYieldIdenticalBlockSequences)
{
    // The similarity property Rhythm exploits: two requests of the same
    // type (different values, same shape) produce the same control path.
    auto traceOf = [](const std::string &raw) {
        simt::ThreadTrace t;
        simt::RecordingTracer rec(t);
        Request req;
        EXPECT_TRUE(parseRequest(raw, 0, rec, req));
        return t;
    };
    auto a = traceOf(
        "GET /bank/tx.php?acct=101&max=20 HTTP/1.1\r\nHost: h\r\n"
        "Cookie: session=11\r\n\r\n");
    auto b = traceOf(
        "GET /bank/tx.php?acct=992&max=50 HTTP/1.1\r\nHost: h\r\n"
        "Cookie: session=99\r\n\r\n");
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (size_t i = 0; i < a.blocks.size(); ++i)
        EXPECT_EQ(a.blocks[i].blockId, b.blocks[i].blockId) << i;
}

TEST(RoundTrip, BuildThenParseGet)
{
    const std::string raw = buildRequest(
        Method::Get, "/bank/bill_pay.php",
        {{"payee", "17"}, {"amount", "2500"}}, "session=31");
    Request req = mustParse(raw);
    EXPECT_EQ(req.method, Method::Get);
    EXPECT_EQ(req.path, "/bank/bill_pay.php");
    EXPECT_EQ(req.param("payee"), "17");
    EXPECT_EQ(req.param("amount"), "2500");
    EXPECT_EQ(req.sessionId, 31u);
}

TEST(RoundTrip, BuildThenParsePost)
{
    const std::string raw = buildRequest(
        Method::Post, "/bank/login.php",
        {{"userid", "7"}, {"password", "pwd7"}});
    Request req = mustParse(raw);
    EXPECT_EQ(req.method, Method::Post);
    EXPECT_EQ(req.param("userid"), "7");
    EXPECT_EQ(req.param("password"), "pwd7");
}

class RoundTripProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RoundTripProperty, RandomParamsSurvive)
{
    Rng rng(GetParam());
    std::vector<std::pair<std::string, std::string>> params;
    const int n = static_cast<int>(rng.nextRange(0, 6));
    for (int i = 0; i < n; ++i) {
        params.emplace_back("k" + std::to_string(i),
                            std::to_string(rng.nextBounded(1000000)));
    }
    const Method method = rng.nextBool(0.5) ? Method::Get : Method::Post;
    const std::string cookie =
        rng.nextBool(0.5) ? "session=" + std::to_string(rng.nextBounded(1u << 30))
                          : "";
    const std::string raw =
        buildRequest(method, "/bank/x.php", params, cookie);
    Request req;
    ASSERT_TRUE(parseRequest(raw, 0, gNull, req));
    EXPECT_EQ(req.method, method);
    ASSERT_EQ(req.params.size(), params.size());
    for (const auto &[k, v] : params)
        EXPECT_EQ(req.param(k), v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripProperty,
                         ::testing::Range<uint64_t>(1, 25));

// ---- Fuzz-ish parser properties --------------------------------------
//
// The parser runs on every byte the simulated NIC delivers, so it must
// be total: any input — including corrupted SPECWeb Banking traffic —
// either parses or is rejected, never crashes or loiters. Seeded random
// mutations keep the corpus deterministic across runs and platforms.

/** A corpus of valid SPECWeb Banking requests (one per page shape). */
std::vector<std::string>
bankingCorpus(uint64_t seed)
{
    Rng rng(seed);
    const auto sid = [&rng]() {
        return "session=" + std::to_string(rng.nextBounded(1u << 30));
    };
    const auto num = [&rng](uint32_t bound) {
        return std::to_string(rng.nextBounded(bound));
    };
    return {
        buildRequest(Method::Post, "/bank/login.php",
                     {{"userid", num(5000)}, {"password", "pwd" + num(5000)}}),
        buildRequest(Method::Get, "/bank/account_summary.php", {}, sid()),
        buildRequest(Method::Get, "/bank/check_detail_html.php",
                     {{"check_no", num(90000)}}, sid()),
        buildRequest(Method::Get, "/bank/bill_pay.php",
                     {{"payee", num(40)}, {"amount", num(100000)}}, sid()),
        buildRequest(Method::Post, "/bank/post_transfer.php",
                     {{"from", num(4)}, {"to", num(4)},
                      {"amount", num(250000)}},
                     sid()),
        buildRequest(Method::Post, "/bank/post_payee.php",
                     {{"name", "Acme+Power"}, {"account", num(1000000)}},
                     sid()),
        buildRequest(Method::Get, "/bank/logout.php", {}, sid()),
    };
}

/** Applies one random byte-level mutation in place. */
void
mutate(std::string &raw, Rng &rng)
{
    if (raw.empty()) {
        raw.push_back(static_cast<char>(rng.nextBounded(256)));
        return;
    }
    const size_t pos = static_cast<size_t>(rng.nextBounded(
        static_cast<uint32_t>(raw.size())));
    switch (rng.nextBounded(5)) {
    case 0: // Substitute an arbitrary byte (including NUL and 0xFF).
        raw[pos] = static_cast<char>(rng.nextBounded(256));
        break;
    case 1: // Delete a byte (breaks lengths and CRLF pairs).
        raw.erase(pos, 1);
        break;
    case 2: // Insert a byte.
        raw.insert(pos, 1, static_cast<char>(rng.nextBounded(256)));
        break;
    case 3: // Truncate (simulates a torn read).
        raw.resize(pos);
        break;
    default: // Duplicate a span (repeated headers, doubled separators).
        raw.insert(pos, raw.substr(pos, rng.nextBounded(16) + 1));
        break;
    }
}

class ParserFuzzProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ParserFuzzProperty, MutatedBankingRequestsNeverCrashParser)
{
    Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 1);
    for (std::string raw : bankingCorpus(GetParam())) {
        const int mutations = static_cast<int>(rng.nextBounded(8)) + 1;
        for (int m = 0; m < mutations; ++m)
            mutate(raw, rng);
        Request req;
        const bool ok = parseRequest(raw, 0, gNull, req);
        // Whatever the verdict, parsing must be deterministic: the same
        // bytes give the same verdict and the same parsed fields.
        Request again;
        EXPECT_EQ(parseRequest(raw, 0, gNull, again), ok);
        if (ok) {
            EXPECT_EQ(again.method, req.method);
            EXPECT_EQ(again.path, req.path);
            EXPECT_EQ(again.params, req.params);
            EXPECT_EQ(again.sessionId, req.sessionId);
            // Accepted requests carry internally consistent lengths.
            EXPECT_LE(req.contentLength, raw.size());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzProperty,
                         ::testing::Range<uint64_t>(1, 101));

class ParserRoundTripProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ParserRoundTripProperty, ParseSerializeRoundTripIsStable)
{
    // For well-formed Banking traffic the parse → rebuild cycle is a
    // fixed point: rebuilding from the parsed fields reproduces the
    // original bytes, so a second parse sees an identical request.
    for (const std::string &raw : bankingCorpus(GetParam())) {
        Request req;
        ASSERT_TRUE(parseRequest(raw, 0, gNull, req)) << raw;
        const std::string rebuilt =
            buildRequest(req.method, req.path, req.params, req.cookie);
        Request reparsed;
        ASSERT_TRUE(parseRequest(rebuilt, 0, gNull, reparsed)) << rebuilt;
        EXPECT_EQ(reparsed.method, req.method);
        EXPECT_EQ(reparsed.path, req.path);
        EXPECT_EQ(reparsed.params, req.params);
        EXPECT_EQ(reparsed.cookie, req.cookie);
        EXPECT_EQ(reparsed.sessionId, req.sessionId);
        EXPECT_EQ(reparsed.keepAlive, req.keepAlive);
        // And the serialization itself is stable byte-for-byte.
        EXPECT_EQ(buildRequest(reparsed.method, reparsed.path,
                               reparsed.params, reparsed.cookie),
                  rebuilt);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRoundTripProperty,
                         ::testing::Range<uint64_t>(1, 26));

TEST(Framing, PaddedContentLengthHolds)
{
    // The device writer pads the reserved length with spaces.
    const std::string raw = "HTTP/1.1 200 OK\r\nServer: x\r\n"
                            "Content-Length: 5         \r\n\r\nhello";
    const Framing framing = checkFraming(raw);
    EXPECT_EQ(framing.error, "");
    EXPECT_EQ(framing.header,
              "HTTP/1.1 200 OK\r\nServer: x\r\nContent-Length: 5         ");
    EXPECT_EQ(framing.body, "hello");
}

TEST(Framing, EachBrokenFrameNamesItsReason)
{
    const std::pair<std::string, std::string> cases[] = {
        {"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n",
         "bad status line"},
        {"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n", "no header terminator"},
        {"HTTP/1.1 200 OK\r\nServer: x\r\n\r\nbody", "missing Content-Length"},
        // A Content-Length in the body is not a header.
        {"HTTP/1.1 200 OK\r\n\r\nContent-Length: 20\r\n",
         "missing Content-Length"},
        {"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
         "unparsable Content-Length"},
        {"HTTP/1.1 200 OK\r\nContent-Length: 4 4\r\n\r\nbody",
         "Content-Length not whitespace-terminated"},
        {"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nbody",
         "Content-Length mismatch: declared 3 actual 4"},
    };
    for (const auto &[raw, reason] : cases) {
        const Framing framing = checkFraming(raw);
        EXPECT_EQ(framing.error, reason) << raw;
        EXPECT_TRUE(framing.body.empty()) << raw;
    }
}

} // namespace
} // namespace rhythm::http
