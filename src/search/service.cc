#include "search/service.hh"

#include "specweb/html.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace rhythm::search {
namespace {

/** Handler basic-block base (per type: base + type*32 + local). */
constexpr uint32_t kSearchBlockBase = 7100;

enum LocalBlock : uint32_t {
    kLbValidate = 0,
    kLbCompose = 1,
    kLbConsume = 2,
    kLbRender = 3,
    kLbRow = 4,
};

constexpr uint32_t
blockBase(PageType type)
{
    return kSearchBlockBase + static_cast<uint32_t>(type) * 32;
}

constexpr PageTypeInfo kPages[] = {
    {"home", "/", 0, 8 * 1024, 12.0},
    {"results", "/search", 1, 16 * 1024, 62.0},
    {"document", "/doc", 1, 32 * 1024, 16.0},
    {"suggest", "/suggest", 1, 4 * 1024, 10.0},
};

static_assert(sizeof(kPages) / sizeof(kPages[0]) == kNumPageTypes);

constexpr std::string_view kSearchStyles =
    "<style>body{font-family:Arial,sans-serif;margin:0;color:#202124}"
    "#bar{background:#1a4fa0;color:#fff;padding:10px 20px;font-size:20px}"
    "#box{margin:16px 20px}input[type=text]{width:420px;padding:6px;"
    "border:1px solid #9ab}#res{margin:0 20px}.hit{margin:14px 0}"
    ".hit a{color:#1a0dab;font-size:16px;text-decoration:none}"
    ".hit .sn{color:#4d5156;font-size:13px}.hit .sc{color:#006621;"
    "font-size:12px}#foot{margin:18px 20px;color:#70757a;font-size:11px}"
    ".blurb{color:#444;font-size:12px;margin:8px 20px;max-width:640px}"
    "</style>";

constexpr std::string_view kBlurbs[] = {
    "<p class=\"blurb\">Rhythm Search indexes the public corpus "
    "continuously; results reflect documents crawled within the last "
    "crawl cycle. Ranking combines term frequency with inverse document "
    "frequency and is entirely query dependent: no personalization, no "
    "stored profile, and no session state is consulted when ranking, "
    "which is also what makes every results request follow the same "
    "control path on the serving hardware.</p>\n",
    "<p class=\"blurb\">Operators note: this deployment serves query "
    "cohorts on data-parallel hardware. Requests of the same page type "
    "are batched and executed in lockstep; the suggest endpoint is "
    "served from the vocabulary table and the document endpoint from "
    "the compressed store. Throughput figures for each endpoint are "
    "published on the status page together with the cohort size and "
    "formation timeout currently in effect.</p>\n",
    "<p class=\"blurb\">Advanced syntax: multiple terms are combined "
    "with OR semantics and ranked by combined score. Quoted phrases, "
    "negation and field restriction are not yet supported in this "
    "build. Queries are limited to eight terms; longer queries are "
    "truncated. The index stores the full body of every document, so "
    "any word that appears anywhere in a document can retrieve it.</p>\n",
    "<p class=\"blurb\">Privacy: queries are processed in memory and "
    "are not written to durable storage. Aggregate counters (queries "
    "per second, cache hit rate, p99 latency) are retained for capacity "
    "planning. Document snippets are computed at query time from the "
    "indexed text and never cached across requests, which keeps the "
    "response generation path identical for every request in a "
    "cohort.</p>\n",
};
constexpr size_t kNumBlurbs = sizeof(kBlurbs) / sizeof(kBlurbs[0]);

specweb::html::PageFrame
beginPage(specweb::HandlerContext &ctx, PageType type,
          std::string_view title)
{
    const uint32_t rb = blockBase(type) + kLbRender;
    const specweb::html::PageFrame frame =
        specweb::html::openPage(*ctx.out, rb, "RhythmSearch/1.0");
    ctx.out->appendStatic(rb, "<!DOCTYPE html><html><head><title>");
    ctx.out->appendDynamic(rb, title);
    ctx.out->appendStatic(rb, " - Rhythm Search</title>");
    ctx.out->appendStatic(rb, kSearchStyles);
    ctx.out->appendStatic(
        rb,
        "</head><body><div id=\"bar\">Rhythm Search</div>\n"
        "<div id=\"box\"><form action=\"/search\" method=\"get\">"
        "<input type=\"text\" name=\"q\" value=\"\">"
        " <input type=\"submit\" value=\"Search\"></form></div>\n");
    return frame;
}

void
endPage(specweb::HandlerContext &ctx, PageType type,
        const specweb::html::PageFrame &frame, int blurbs)
{
    const uint32_t rb = blockBase(type) + kLbRender;
    for (int i = 0; i < blurbs; ++i)
        ctx.out->appendStatic(rb,
                              kBlurbs[static_cast<size_t>(i) % kNumBlurbs]);
    ctx.out->appendStatic(rb, "<!-- search:ok -->\n");
    ctx.out->appendStatic(rb,
                          "<div id=\"foot\">Rhythm Search &mdash; cohort "
                          "scheduled, data parallel. &copy; 2014</div>"
                          "</body></html>\n");
    specweb::html::finishResponse(*ctx.out, frame);
}

void
emitSearchError(specweb::HandlerContext &ctx, std::string_view reason)
{
    specweb::html::errorPage(
        ctx, kSearchBlockBase + 500, 180,
        "<html><body><h2>Search error</h2><p>" + std::string(reason) +
            "</p><!-- search:error --></body></html>\n");
}

} // namespace

const PageTypeInfo *
pageTable()
{
    return kPages;
}

const PageTypeInfo &
pageInfo(PageType type)
{
    return kPages[static_cast<uint32_t>(type)];
}

void
SearchService::runStage(uint32_t type_id, int stage,
                        specweb::HandlerContext &ctx) const
{
    switch (static_cast<PageType>(type_id)) {
      case PageType::Home:
        homePage(ctx);
        return;
      case PageType::Results:
        resultsPage(stage, ctx);
        return;
      case PageType::Document:
        documentPage(stage, ctx);
        return;
      case PageType::Suggest:
        suggestPage(stage, ctx);
        return;
    }
    RHYTHM_PANIC("unknown search page type");
}

bool
SearchService::stageIsLaneParallel(uint32_t type_id, int stage) const
{
    // Audit (see DESIGN.md 6f): every handler stage is const and
    // touches only its lane's HandlerContext — it reads the request and
    // backend response and writes the lane's recorder, response
    // writer, backend request and failure flag. The index is touched
    // by executeBackend alone, which the pipeline runs in its serial
    // per-stage merge. So every stage is lane-parallel.
    (void)type_id;
    (void)stage;
    return true;
}

// ---------------------------------------------------------------------
// Backend protocol: QUERY|terms|k, DOC|id, SUGGEST|prefix|k
// ---------------------------------------------------------------------

std::string
SearchService::executeBackend(std::string_view request,
                              simt::TraceRecorder &rec)
{
    auto parts = split(request, '|');
    if (parts.empty())
        return "ERR|malformed";

    if (parts[0] == "QUERY" && parts.size() >= 3) {
        std::vector<uint32_t> terms;
        for (std::string_view token : split(parts[1], ' ')) {
            uint32_t id;
            if (!token.empty() && index_.wordId(token, id))
                terms.push_back(id);
        }
        uint64_t k = 10;
        parseU64(parts[2], k);
        auto hits = index_.query(terms, k, rec);
        std::string payload;
        for (const Hit &hit : hits) {
            const Document *doc = index_.corpus().document(hit.docId);
            payload += std::to_string(hit.docId);
            payload += ',';
            payload += std::to_string(
                static_cast<uint64_t>(hit.score * 100.0));
            payload += ',';
            payload += doc->title;
            payload += ';';
        }
        return "OK|" + payload;
    }

    if (parts[0] == "DOC" && parts.size() >= 2) {
        uint64_t id = 0;
        parseU64(parts[1], id);
        const Document *doc =
            index_.corpus().document(static_cast<uint32_t>(id));
        if (!doc)
            return "ERR|no such document";
        rec.block(7004, 80 + static_cast<uint32_t>(doc->words.size()));
        std::string text =
            index_.corpus().renderText(*doc, 0, doc->words.size());
        if (text.size() > 3500)
            text.resize(3500); // fit the 4 KiB response slot
        return "OK|" + doc->title + "|" +
               std::to_string(doc->words.size()) + "|" + text;
    }

    if (parts[0] == "SUGGEST" && parts.size() >= 3) {
        uint64_t k = 8;
        parseU64(parts[2], k);
        auto words = index_.suggest(parts[1], k, rec);
        std::string payload;
        for (uint32_t w : words) {
            payload += index_.corpus().word(w);
            payload += ';';
        }
        return "OK|" + payload;
    }
    return "ERR|unknown op";
}

// ---------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------

void
SearchService::homePage(specweb::HandlerContext &ctx) const
{
    const PageType type = PageType::Home;
    ctx.rec->block(blockBase(type) + kLbValidate, 900);
    const auto frame = beginPage(ctx, type, "Search");
    ctx.out->appendStatic(
        blockBase(type) + kLbRender,
        "<p class=\"blurb\"><b>Search the corpus.</b> Type one or more "
        "terms above. Results are ranked by relevance; click a result "
        "to open the cached document view.</p>\n");
    endPage(ctx, type, frame, 11);
}

void
SearchService::resultsPage(int stage, specweb::HandlerContext &ctx) const
{
    const PageType type = PageType::Results;
    if (stage == 0) {
        ctx.rec->block(blockBase(type) + kLbValidate, 1400);
        const std::string_view q = ctx.request->param("q");
        if (q.empty()) {
            emitSearchError(ctx, "empty query");
            return;
        }
        ctx.rec->block(blockBase(type) + kLbCompose,
                       40 + 6 * static_cast<uint32_t>(q.size()));
        ctx.backendRequest = "QUERY|" + std::string(q) + "|10";
        return;
    }

    ctx.rec->block(blockBase(type) + kLbConsume,
                   60 + static_cast<uint32_t>(
                            ctx.backendResponse.size()) /
                            4);
    if (!startsWith(ctx.backendResponse, "OK|")) {
        emitSearchError(ctx, "query failed");
        return;
    }
    const auto frame = beginPage(ctx, type, "Results");
    const uint32_t rb = blockBase(type) + kLbRender;
    const uint32_t row = blockBase(type) + kLbRow;
    ctx.out->appendStatic(rb, "<div id=\"res\"><h3>Results for \"");
    ctx.out->appendDynamic(rb, ctx.request->param("q"));
    ctx.out->appendStatic(rb, "\"</h3>\n");
    int rank = 0;
    for (std::string_view record :
         split(std::string_view(ctx.backendResponse).substr(3), ';')) {
        if (record.empty())
            continue;
        auto f = split(record, ',');
        if (f.size() < 3)
            continue;
        ++rank;
        ctx.out->appendStatic(row, "<div class=\"hit\"><a href=\"/doc?id=");
        ctx.out->appendDynamic(row, f[0]);
        ctx.out->appendStatic(row, "\">");
        ctx.out->appendDynamic(row, f[2]);
        ctx.out->appendStatic(row, "</a><div class=\"sc\">document ");
        ctx.out->appendDynamic(row, f[0]);
        ctx.out->appendStatic(row, " &middot; score ");
        ctx.out->appendDynamic(row, f[1]);
        ctx.out->appendStatic(
            row,
            "</div><div class=\"sn\">&hellip; indexed text snippet "
            "rendered from the document body at query time, terms "
            "highlighted in context &hellip;</div></div>\n");
    }
    if (rank == 0)
        ctx.out->appendStatic(rb,
                              "<p class=\"blurb\">No documents matched "
                              "your query. Fewer or more common terms "
                              "usually help.</p>\n");
    ctx.out->appendStatic(rb, "</div>\n");
    endPage(ctx, type, frame, 24);
}

void
SearchService::documentPage(int stage, specweb::HandlerContext &ctx) const
{
    const PageType type = PageType::Document;
    if (stage == 0) {
        ctx.rec->block(blockBase(type) + kLbValidate, 800);
        uint64_t id = 0;
        if (!parseU64(ctx.request->param("id"), id) || id == 0) {
            emitSearchError(ctx, "missing document id");
            return;
        }
        ctx.rec->block(blockBase(type) + kLbCompose, 60);
        ctx.backendRequest = "DOC|" + std::to_string(id);
        return;
    }

    ctx.rec->block(blockBase(type) + kLbConsume,
                   60 + static_cast<uint32_t>(
                            ctx.backendResponse.size()) /
                            4);
    if (!startsWith(ctx.backendResponse, "OK|")) {
        emitSearchError(ctx, "document not found");
        return;
    }
    auto parts = split(std::string_view(ctx.backendResponse).substr(3),
                       '|');
    const auto frame = beginPage(ctx, type, "Cached document");
    const uint32_t rb = blockBase(type) + kLbRender;
    ctx.out->appendStatic(rb, "<div id=\"res\"><h3>");
    ctx.out->appendDynamic(rb, parts.empty() ? "" : parts[0]);
    ctx.out->appendStatic(rb,
                          "</h3>\n<div class=\"sc\">cached copy &middot; ");
    ctx.out->appendDynamic(rb, parts.size() > 1 ? parts[1] : "0");
    ctx.out->appendStatic(rb, " words</div>\n<p class=\"sn\">");
    // The document body: the page's dominant dynamic content.
    ctx.out->appendDynamic(rb, parts.size() > 2 ? parts[2] : "");
    ctx.out->appendStatic(rb, "</p>\n</div>\n");
    endPage(ctx, type, frame, 46);
}

void
SearchService::suggestPage(int stage, specweb::HandlerContext &ctx) const
{
    const PageType type = PageType::Suggest;
    if (stage == 0) {
        ctx.rec->block(blockBase(type) + kLbValidate, 500);
        const std::string_view q = ctx.request->param("q");
        if (q.empty()) {
            emitSearchError(ctx, "empty prefix");
            return;
        }
        ctx.backendRequest = "SUGGEST|" + std::string(q) + "|8";
        return;
    }

    ctx.rec->block(blockBase(type) + kLbConsume, 80);
    if (!startsWith(ctx.backendResponse, "OK|")) {
        emitSearchError(ctx, "suggest failed");
        return;
    }
    const auto frame = beginPage(ctx, type, "Suggestions");
    const uint32_t rb = blockBase(type) + kLbRender;
    const uint32_t row = blockBase(type) + kLbRow;
    ctx.out->appendStatic(rb, "<div id=\"res\"><h3>Completions for \"");
    ctx.out->appendDynamic(rb, ctx.request->param("q"));
    ctx.out->appendStatic(rb, "\"</h3>\n<ul>\n");
    for (std::string_view word :
         split(std::string_view(ctx.backendResponse).substr(3), ';')) {
        if (word.empty())
            continue;
        ctx.out->appendStatic(row, "<li><a href=\"/search?q=");
        ctx.out->appendDynamic(row, word);
        ctx.out->appendStatic(row, "\">");
        ctx.out->appendDynamic(row, word);
        ctx.out->appendStatic(row, "</a></li>\n");
    }
    ctx.out->appendStatic(rb, "</ul>\n</div>\n");
    endPage(ctx, type, frame, 2);
}

// ---------------------------------------------------------------------
// Generator & validator
// ---------------------------------------------------------------------

QueryGenerator::QueryGenerator(const Corpus &corpus, uint64_t seed)
    : corpus_(corpus), rng_(seed),
      mix_(std::span(kPages), &PageTypeInfo::mixPercent)
{
}

PageType
QueryGenerator::sampleType()
{
    return static_cast<PageType>(mix_.draw(rng_));
}

GeneratedQuery
QueryGenerator::generate(PageType type)
{
    GeneratedQuery out;
    out.type = type;
    using Params = std::vector<std::pair<std::string, std::string>>;
    Params params;
    switch (type) {
      case PageType::Home:
        break;
      case PageType::Results: {
        const int terms = 1 + static_cast<int>(rng_.nextBounded(4));
        std::string q;
        for (int t = 0; t < terms; ++t) {
            if (t)
                q += '+';
            q += corpus_.word(corpus_.sampleWord(rng_));
        }
        params = {{"q", q}};
        break;
      }
      case PageType::Document:
        params = {{"id", std::to_string(
                             1 + rng_.nextBounded(corpus_.numDocs()))}};
        break;
      case PageType::Suggest: {
        const std::string &word = corpus_.word(corpus_.sampleWord(rng_));
        const size_t len = std::min<size_t>(word.size(),
                                            2 + rng_.nextBounded(3));
        params = {{"q", word.substr(0, len)}};
        break;
      }
    }
    out.raw = http::buildRequest(http::Method::Get, pageInfo(type).path,
                                 params);
    return out;
}

bool
validateSearchResponse(PageType type, std::string_view raw,
                       std::string *reason)
{
    constexpr std::string_view kMarkers[] = {
        "Search the corpus", "Results for", "cached copy",
        "Completions for"};
    return specweb::html::checkPage(raw, "<!-- search:ok -->",
                                    kMarkers[static_cast<uint32_t>(type)],
                                    reason);
}

} // namespace rhythm::search
