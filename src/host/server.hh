/**
 * @file
 * The standalone event-based host server: the paper's "C version" of the
 * Banking workload used for all CPU baselines (Core i5/i7, ARM A9).
 *
 * One request is processed at a time, straight through all of its
 * process stages with the backend as a direct function call (the paper's
 * maximum-throughput CPU configuration, Section 5.3). The same handler
 * code, session store semantics and wire formats as the Rhythm pipeline
 * are used; only the execution substrate differs.
 */

#ifndef RHYTHM_HOST_SERVER_HH
#define RHYTHM_HOST_SERVER_HH

#include <string>
#include <string_view>

#include "backend/service.hh"
#include "simt/trace.hh"
#include "specweb/banking.hh"
#include "specweb/context.hh"
#include "specweb/static_content.hh"

namespace rhythm::host {

/**
 * Serves Banking requests synchronously on the host.
 *
 * Not thread safe; platform models scale single-stream results to
 * multiple worker threads analytically (as the paper scales cores).
 */
class HostServer
{
  public:
    /**
     * @param db The bank database (not owned).
     * @param sessions Session store (not owned).
     * @param static_content Optional asset store (not owned); when
     *        absent, image paths 404.
     */
    HostServer(backend::BankDb &db, specweb::SessionProvider &sessions,
               const specweb::StaticContent *static_content = nullptr);

    /**
     * Serves one request end to end.
     *
     * @param raw_request Complete HTTP request message.
     * @param rec Trace recorder charged with all work (parser, handler
     *        stages, backend service).
     * @return Complete HTTP response message.
     */
    std::string serve(std::string_view raw_request,
                      simt::TraceRecorder &rec);

    /** Structured serve: also reports the resolved type and outcome. */
    struct Result
    {
        std::string response;
        specweb::RequestType type = specweb::RequestType::Login;
        bool recognized = false;
        bool failed = false;
    };

    /** Serves one request, returning structured metadata. */
    Result serveDetailed(std::string_view raw_request,
                         simt::TraceRecorder &rec);

    /** The backend service (exposed for harness accounting). */
    backend::BackendService &backendService() { return backend_; }

  private:
    backend::BackendService backend_;
    specweb::SessionProvider &sessions_;
    const specweb::StaticContent *staticContent_;
    specweb::BankingApp app_;
};

} // namespace rhythm::host

#endif // RHYTHM_HOST_SERVER_HH
