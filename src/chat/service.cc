#include "chat/service.hh"

#include "specweb/html.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace rhythm::chat {
namespace {

/** Handler basic-block base (per type: base + type*32 + local). */
constexpr uint32_t kChatBlockBase = 7400;

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
    return kChatBlockBase + static_cast<uint32_t>(type) * 32;
}

constexpr PageTypeInfo kPages[] = {
    {"room list", "/chat", 1, 8 * 1024, 5.0},
    {"history", "/chat/history", 1, 16 * 1024, 25.0},
    {"post", "/chat/post", 1, 4 * 1024, 15.0},
    {"poll", "/chat/poll", 1, 4 * 1024, 55.0},
};
static_assert(sizeof(kPages) / sizeof(kPages[0]) == kNumPageTypes);

specweb::html::PageFrame
beginPage(specweb::HandlerContext &ctx, PageType type,
          std::string_view title)
{
    const uint32_t rb = blockBase(type) + kLbRender;
    const specweb::html::PageFrame frame =
        specweb::html::openPage(*ctx.out, rb, "RhythmChat/1.0");
    ctx.out->appendStatic(
        rb,
        "<!DOCTYPE html><html><head><style>body{font-family:Helvetica,"
        "sans-serif;margin:0;color:#222}#top{background:#473080;"
        "color:#fff;padding:8px 16px;font-size:18px}#m{margin:12px 16px}"
        ".msg{padding:4px 0;border-bottom:1px solid #eee;font-size:13px}"
        ".who{color:#473080;font-weight:bold}.seq{color:#999;"
        "font-size:11px}</style><title>");
    ctx.out->appendDynamic(rb, title);
    ctx.out->appendStatic(rb,
                          " - Rhythm Chat</title></head><body>"
                          "<div id=\"top\">Rhythm Chat</div>"
                          "<div id=\"m\">\n");
    return frame;
}

void
endPage(specweb::HandlerContext &ctx, PageType type,
        const specweb::html::PageFrame &frame)
{
    ctx.out->appendStatic(blockBase(type) + kLbRender,
                          "<!-- chat:ok -->\n</div></body></html>\n");
    specweb::html::finishResponse(*ctx.out, frame);
}

void
emitChatError(specweb::HandlerContext &ctx, std::string_view reason)
{
    specweb::html::errorPage(ctx, kChatBlockBase + 500, 160,
                             "<html><body><p>chat error: " +
                                 std::string(reason) +
                                 "</p><!-- chat:error --></body></html>\n");
}

/** Renders "seq,user,text" records as message rows. */
void
renderMessages(specweb::HandlerContext &ctx, PageType type,
               std::string_view payload)
{
    const uint32_t row = blockBase(type) + kLbRow;
    for (std::string_view record : split(payload, ';')) {
        if (record.empty())
            continue;
        auto f = split(record, ',');
        if (f.size() < 3)
            continue;
        ctx.out->appendStatic(row, "<div class=\"msg\"><span class=\"seq\">#");
        ctx.out->appendDynamic(row, f[0]);
        ctx.out->appendStatic(row, "</span> <span class=\"who\">user ");
        ctx.out->appendDynamic(row, f[1]);
        ctx.out->appendStatic(row, "</span> ");
        ctx.out->appendDynamic(row, f[2]);
        ctx.out->appendStatic(row, "</div>\n");
    }
}

} // namespace

const PageTypeInfo *
pageTable()
{
    return kPages;
}

void
ChatService::runStage(uint32_t type_id, int stage,
                      specweb::HandlerContext &ctx) const
{
    switch (static_cast<PageType>(type_id)) {
      case PageType::RoomList:
        roomList(stage, ctx);
        return;
      case PageType::History:
        history(stage, ctx);
        return;
      case PageType::Post:
        post(stage, ctx);
        return;
      case PageType::Poll:
        poll(stage, ctx);
        return;
    }
    RHYTHM_PANIC("unknown chat page type");
}

bool
ChatService::stageIsLaneParallel(uint32_t type_id, int stage) const
{
    // Audit (see DESIGN.md 6f): every handler stage is const and
    // touches only its lane's HandlerContext — it reads the request and
    // backend response and writes the lane's recorder, response
    // writer, backend request and failure flag. The room store is touched
    // by executeBackend alone, which the pipeline runs in its serial
    // per-stage merge. So every stage is lane-parallel.
    (void)type_id;
    (void)stage;
    return true;
}

// ---------------------------------------------------------------------
// Backend: ROOMS, HIST|room|n, POST|room|user|text, POLL|room|since
// ---------------------------------------------------------------------

std::string
ChatService::executeBackend(std::string_view request,
                            simt::TraceRecorder &rec)
{
    auto parts = split(request, '|');
    if (parts.empty())
        return "ERR|malformed";
    rec.block(7390, 120);

    auto serializeMessages =
        [&](const std::vector<const Message *> &messages) {
            std::string payload;
            for (const Message *m : messages) {
                rec.block(7391,
                          20 + 3 * static_cast<uint32_t>(m->text.size()));
                payload += std::to_string(m->seq);
                payload += ',';
                payload += std::to_string(m->userId);
                payload += ',';
                payload += m->text;
                payload += ';';
            }
            return payload;
        };

    if (parts[0] == "ROOMS") {
        std::string payload;
        for (uint32_t r = 1; r <= store_.numRooms(); ++r) {
            rec.block(7392, 18);
            payload += std::to_string(r);
            payload += ',';
            payload += std::to_string(store_.latestSeq(r));
            payload += ';';
        }
        return "OK|" + payload;
    }
    if (parts[0] == "HIST" && parts.size() >= 3) {
        uint64_t room = 0, n = 30;
        parseU64(parts[1], room);
        parseU64(parts[2], n);
        if (!store_.validRoom(static_cast<uint32_t>(room)))
            return "ERR|no such room";
        return "OK|" + serializeMessages(store_.history(
                           static_cast<uint32_t>(room), n));
    }
    if (parts[0] == "POST" && parts.size() >= 4) {
        uint64_t room = 0, user = 0;
        parseU64(parts[1], room);
        parseU64(parts[2], user);
        const uint64_t seq = store_.post(static_cast<uint32_t>(room),
                                         user, std::string(parts[3]));
        if (seq == 0)
            return "ERR|post rejected";
        rec.block(7393, 260);
        return "OK|" + std::to_string(seq);
    }
    if (parts[0] == "POLL" && parts.size() >= 3) {
        uint64_t room = 0, since = 0;
        parseU64(parts[1], room);
        parseU64(parts[2], since);
        if (!store_.validRoom(static_cast<uint32_t>(room)))
            return "ERR|no such room";
        return "OK|" + serializeMessages(store_.since(
                           static_cast<uint32_t>(room), since));
    }
    return "ERR|unknown op";
}

// ---------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------

void
ChatService::roomList(int stage, specweb::HandlerContext &ctx) const
{
    const PageType type = PageType::RoomList;
    if (stage == 0) {
        ctx.rec->block(blockBase(type) + kLbValidate, 400);
        ctx.backendRequest = "ROOMS";
        return;
    }
    ctx.rec->block(blockBase(type) + kLbConsume, 120);
    if (!startsWith(ctx.backendResponse, "OK|")) {
        emitChatError(ctx, "room list failed");
        return;
    }
    const auto frame = beginPage(ctx, type, "Rooms");
    const uint32_t rb = blockBase(type) + kLbRender;
    const uint32_t row = blockBase(type) + kLbRow;
    ctx.out->appendStatic(rb, "<h3>Rooms</h3>\n<ul>\n");
    for (std::string_view record :
         split(std::string_view(ctx.backendResponse).substr(3), ';')) {
        if (record.empty())
            continue;
        auto f = split(record, ',');
        if (f.size() < 2)
            continue;
        ctx.out->appendStatic(row, "<li><a href=\"/chat/history?room=");
        ctx.out->appendDynamic(row, f[0]);
        ctx.out->appendStatic(row, "\">room ");
        ctx.out->appendDynamic(row, f[0]);
        ctx.out->appendStatic(row, "</a> &middot; ");
        ctx.out->appendDynamic(row, f[1]);
        ctx.out->appendStatic(row, " messages</li>\n");
    }
    ctx.out->appendStatic(rb, "</ul>\n");
    endPage(ctx, type, frame);
}

void
ChatService::history(int stage, specweb::HandlerContext &ctx) const
{
    const PageType type = PageType::History;
    if (stage == 0) {
        ctx.rec->block(blockBase(type) + kLbValidate, 500);
        uint64_t room = 0;
        if (!parseU64(ctx.request->param("room"), room) || room == 0) {
            emitChatError(ctx, "missing room");
            return;
        }
        ctx.backendRequest = "HIST|" + std::to_string(room) + "|30";
        return;
    }
    ctx.rec->block(blockBase(type) + kLbConsume,
                   60 + static_cast<uint32_t>(
                            ctx.backendResponse.size()) /
                            4);
    if (!startsWith(ctx.backendResponse, "OK|")) {
        emitChatError(ctx, "no such room");
        return;
    }
    const auto frame = beginPage(ctx, type, "History");
    ctx.out->appendStatic(blockBase(type) + kLbRender,
                          "<h3>Recent messages</h3>\n");
    renderMessages(ctx, type,
                   std::string_view(ctx.backendResponse).substr(3));
    endPage(ctx, type, frame);
}

void
ChatService::post(int stage, specweb::HandlerContext &ctx) const
{
    const PageType type = PageType::Post;
    if (stage == 0) {
        ctx.rec->block(blockBase(type) + kLbValidate, 600);
        uint64_t room = 0, user = 0;
        parseU64(ctx.request->param("room"), room);
        parseU64(ctx.request->param("user"), user);
        const std::string_view text = ctx.request->param("text");
        if (room == 0 || user == 0 || text.empty()) {
            emitChatError(ctx, "missing post fields");
            return;
        }
        ctx.rec->block(blockBase(type) + kLbCompose,
                       30 + 4 * static_cast<uint32_t>(text.size()));
        ctx.backendRequest = "POST|" + std::to_string(room) + "|" +
                             std::to_string(user) + "|" +
                             std::string(text);
        return;
    }
    ctx.rec->block(blockBase(type) + kLbConsume, 80);
    if (!startsWith(ctx.backendResponse, "OK|")) {
        emitChatError(ctx, "post rejected");
        return;
    }
    const auto frame = beginPage(ctx, type, "Posted");
    const uint32_t rb = blockBase(type) + kLbRender;
    ctx.out->appendStatic(rb, "<p>Message posted as #");
    ctx.out->appendDynamic(
        rb, std::string_view(ctx.backendResponse).substr(3));
    ctx.out->appendStatic(rb, ".</p>\n");
    endPage(ctx, type, frame);
}

void
ChatService::poll(int stage, specweb::HandlerContext &ctx) const
{
    const PageType type = PageType::Poll;
    if (stage == 0) {
        ctx.rec->block(blockBase(type) + kLbValidate, 350);
        uint64_t room = 0, since = 0;
        if (!parseU64(ctx.request->param("room"), room) || room == 0) {
            emitChatError(ctx, "missing room");
            return;
        }
        parseU64(ctx.request->param("since"), since);
        ctx.backendRequest = "POLL|" + std::to_string(room) + "|" +
                             std::to_string(since);
        return;
    }
    ctx.rec->block(blockBase(type) + kLbConsume, 60);
    if (!startsWith(ctx.backendResponse, "OK|")) {
        emitChatError(ctx, "poll failed");
        return;
    }
    const auto frame = beginPage(ctx, type, "Updates");
    const std::string_view payload =
        std::string_view(ctx.backendResponse).substr(3);
    if (payload.empty()) {
        ctx.out->appendStatic(blockBase(type) + kLbRender,
                              "<p>no new messages</p>\n");
    } else {
        renderMessages(ctx, type, payload);
    }
    endPage(ctx, type, frame);
}

// ---------------------------------------------------------------------
// Generator & validator
// ---------------------------------------------------------------------

ChatGenerator::ChatGenerator(const RoomStore &store, uint64_t seed)
    : store_(store), rng_(seed),
      mix_(std::span(kPages), &PageTypeInfo::mixPercent)
{
}

PageType
ChatGenerator::sampleType()
{
    return static_cast<PageType>(mix_.draw(rng_));
}

std::string
ChatGenerator::generate(PageType type)
{
    using Params = std::vector<std::pair<std::string, std::string>>;
    Params params;
    const uint32_t room =
        1 + static_cast<uint32_t>(rng_.nextBounded(store_.numRooms()));
    switch (type) {
      case PageType::RoomList:
        break;
      case PageType::History:
        params = {{"room", std::to_string(room)}};
        break;
      case PageType::Post: {
        Rng text_rng(rng_.next());
        std::string text = RoomStore::synthesizeText(text_rng);
        // URL-encode spaces the way buildRequest expects.
        for (char &c : text)
            if (c == ' ')
                c = '+';
        params = {{"room", std::to_string(room)},
                  {"user", std::to_string(1 + rng_.nextBounded(500))},
                  {"text", text}};
        break;
      }
      case PageType::Poll: {
        const uint64_t latest = store_.latestSeq(room);
        const uint64_t back = rng_.nextBounded(8);
        params = {{"room", std::to_string(room)},
                  {"since",
                   std::to_string(latest > back ? latest - back : 0)}};
        break;
      }
    }
    const PageTypeInfo &info = kPages[static_cast<uint32_t>(type)];
    return http::buildRequest(type == PageType::Post ? http::Method::Post
                                                     : http::Method::Get,
                              info.path, params);
}

std::string
ChatGenerator::next(PageType &type_out)
{
    type_out = sampleType();
    return generate(type_out);
}

bool
validateChatResponse(PageType type, std::string_view raw,
                     std::string *reason)
{
    constexpr std::string_view kMarkers[] = {
        "Rooms", "Recent messages", "Message posted", "Rhythm Chat"};
    return specweb::html::checkPage(raw, "<!-- chat:ok -->",
                                    kMarkers[static_cast<uint32_t>(type)],
                                    reason);
}

} // namespace rhythm::chat
