/**
 * @file
 * The backend service: executes wire-protocol requests against BankDb.
 *
 * This is the component the paper calls "Besim". Where it runs differs by
 * platform (the key Titan A / Titan B distinction):
 *  - CPU baselines call it directly ("backend as a function call", §5.3).
 *  - Titan A runs it on host threads, with request/response records
 *    crossing the PCIe link.
 *  - Titan B/C run it "on the device" (the SoC emulation), so no PCIe
 *    transfer and no backend-buffer transpose is needed.
 *
 * Execution is instrumented so the service's dynamic instructions are
 * part of each request's Table 2 cost on CPU platforms.
 */

#ifndef RHYTHM_BACKEND_SERVICE_HH
#define RHYTHM_BACKEND_SERVICE_HH

#include <string>
#include <string_view>

#include "backend/bankdb.hh"
#include "backend/protocol.hh"
#include "simt/trace.hh"

namespace rhythm::backend {

/** Basic-block identifier base for the backend service. */
inline constexpr uint32_t kBackendBlockBase = 3000;

/**
 * Executes backend requests against a BankDb.
 *
 * Not thread safe; the single-threaded event loop serializes access
 * (matching the paper's lock-free single-thread control design).
 */
class BackendService
{
  public:
    /** Binds the service to a database (not owned). */
    explicit BackendService(BankDb &db) : db_(db) {}

    /**
     * Executes one serialized request.
     * @param request Wire-format request (see protocol.hh).
     * @param rec Trace recorder for instruction accounting.
     * @return Wire-format response ("OK|..." or "ERR|...").
     */
    std::string execute(std::string_view request, simt::TraceRecorder &rec);

    /** Typed convenience overload. */
    std::string execute(const BackendRequest &request,
                        simt::TraceRecorder &rec);

    /** The database the service executes against. */
    BankDb &db() const { return db_; }

    /** Number of requests executed (for harness accounting). */
    uint64_t requestsServed() const { return requestsServed_; }

  private:
    BankDb &db_;
    uint64_t requestsServed_ = 0;
};

} // namespace rhythm::backend

#endif // RHYTHM_BACKEND_SERVICE_HH
