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

#include <functional>
#include <string>
#include <string_view>

#include "backend/bankdb.hh"
#include "backend/protocol.hh"
#include "des/time.hh"
#include "fault/plan.hh"
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

    /**
     * Installs a fault plan (not owned; nullptr disarms). When armed,
     * each execution first consults Site::BackendFail and answers
     * "ERR|unavailable" on a hit — the host-path injection point for
     * harnesses that call the backend directly (the CPU baseline). Do
     * NOT also install a plan on the RhythmServer feeding this service,
     * or each backend call is consulted twice.
     * @param clock Supplies the current simulated time for schedule
     *        windows (nullptr = always time 0).
     */
    void setFaultPlan(fault::FaultPlan *plan,
                      std::function<des::Time()> clock = nullptr);

    /** Requests answered "ERR|unavailable" by the installed plan. */
    uint64_t faultsInjected() const { return faultsInjected_; }

    /** The installed fault plan (nullptr when disarmed). The recovery
     *  layer disarms it around journal replay — replayed operations
     *  already passed injection once and must reproduce their recorded
     *  outcome, not roll new faults. */
    fault::FaultPlan *faultPlan() const { return faultPlan_; }

    /** The clock installed alongside the fault plan. */
    const std::function<des::Time()> &faultClock() const { return clock_; }

  private:
    BankDb &db_;
    uint64_t requestsServed_ = 0;
    fault::FaultPlan *faultPlan_ = nullptr;
    std::function<des::Time()> clock_;
    uint64_t faultsInjected_ = 0;
};

} // namespace rhythm::backend

#endif // RHYTHM_BACKEND_SERVICE_HH
