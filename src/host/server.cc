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
    return serveDetailed(raw_request, rec).response;
}

HostServer::Result
HostServer::serveDetailed(std::string_view raw_request,
                          simt::TraceRecorder &rec)
{
    Result result;

    http::Request request;
    if (!http::parseRequest(raw_request, 0, rec, request)) {
        result.failed = true;
        result.response =
            "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n";
        return result;
    }

    if (staticContent_ &&
        specweb::StaticContent::isStaticPath(request.path) &&
        staticContent_->lookup(request.path)) {
        result.recognized = true;
        result.response = staticContent_->buildResponse(request.path);
        return result;
    }
    if (request.path == specweb::kQuickPayPath) {
        result.recognized = true;
        result.response =
            specweb::serveQuickPay(request, backend_, sessions_, rec);
        result.failed =
            result.response.find("page:error") != std::string::npos;
        return result;
    }

    specweb::RequestType type;
    if (!specweb::typeFromPath(request.path, type)) {
        result.failed = true;
        result.response =
            "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        return result;
    }
    result.recognized = true;
    result.type = type;

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

    result.failed = ctx.failed;
    result.response = writer.str();
    return result;
}

} // namespace rhythm::host
