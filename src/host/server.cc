#include "host/server.hh"

#include "http/parser.hh"
#include "specweb/quickpay.hh"

namespace rhythm::host {

HostServer::HostServer(backend::BankDb &db,
                       specweb::SessionProvider &sessions,
                       const specweb::StaticContent *static_content)
    : backend_(db), sessions_(sessions), staticContent_(static_content)
{
}

std::string
HostServer::serve(std::string_view raw_request, simt::TraceRecorder &rec)
{
    http::Request request;
    if (!http::parseRequest(raw_request, 0, rec, request))
        return "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n";

    if (staticContent_ &&
        specweb::StaticContent::isStaticPath(request.path) &&
        staticContent_->lookup(request.path))
        return staticContent_->buildResponse(request.path);
    if (request.path == specweb::kQuickPayPath)
        return specweb::serveQuickPay(request, backend_, sessions_, rec);

    specweb::RequestType type;
    if (!specweb::typeFromPath(request.path, type))
        return "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";

    specweb::StringResponseWriter writer(rec);
    specweb::HandlerContext ctx;
    ctx.request = &request;
    ctx.rec = &rec;
    ctx.out = &writer;
    ctx.sessions = &sessions_;

    const int stages = specweb::BankingApp::numStages(type);
    for (int stage = 0; stage < stages && !ctx.failed; ++stage) {
        app_.runStage(type, stage, ctx);
        if (ctx.failed)
            break;
        if (stage < stages - 1) {
            // Backend as a direct function call (paper Section 5.3).
            ctx.backendResponse = backend_.execute(ctx.backendRequest, rec);
            ctx.backendRequest.clear();
        }
    }
    return writer.str();
}

} // namespace rhythm::host
