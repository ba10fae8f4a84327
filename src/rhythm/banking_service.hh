/**
 * @file
 * The SPECWeb Banking workload as a Rhythm Service: adapts BankingApp,
 * the Besim-style backend and the quick pay host fallback to the
 * pipeline's service interface. Cohort type ids are the RequestType
 * enum values.
 */

#ifndef RHYTHM_RHYTHM_BANKING_SERVICE_HH
#define RHYTHM_RHYTHM_BANKING_SERVICE_HH

#include <memory>

#include "backend/service.hh"
#include "rhythm/service.hh"
#include "specweb/banking.hh"

namespace rhythm::backend {
class RecoverableBackend;
}
namespace rhythm::des {
class EventQueue;
}
namespace rhythm::fault {
class FaultPlan;
}
namespace rhythm::simt {
class Device;
}

namespace rhythm::core {

class RhythmServer;
class SessionArray;

/** Banking on Rhythm. */
class BankingService : public Service
{
  public:
    /** Binds the service to a bank database (not owned). */
    explicit BankingService(backend::BankDb &db) : backend_(db) {}

    uint32_t
    numTypes() const override
    {
        return static_cast<uint32_t>(specweb::kNumRequestTypes);
    }

    bool resolveType(const http::Request &request,
                     uint32_t &type_id) const override;

    std::string_view
    typeName(uint32_t type_id) const override
    {
        return specweb::typeTable()[type_id].name;
    }

    int
    numStages(uint32_t type_id) const override
    {
        return specweb::typeTable()[type_id].backendRequests + 1;
    }

    uint32_t
    responseBufferBytes(uint32_t type_id) const override
    {
        return specweb::typeTable()[type_id].rhythmBufferKb * 1024;
    }

    void runStage(uint32_t type_id, int stage,
                  specweb::HandlerContext &ctx) const override;

    bool stageIsLaneParallel(uint32_t type_id, int stage) const override;

    std::string executeBackend(std::string_view request,
                               simt::TraceRecorder &rec) override;

    std::string executeBackend(std::string_view request, uint64_t token,
                               simt::TraceRecorder &rec) override;

    bool backendExactlyOnce() const override { return recovery_ != nullptr; }

    /**
     * Routes backend execution through a crash-recovery layer (not
     * owned; nullptr detaches). With a layer attached, mutating
     * operations are journaled and deduplicated by idempotency token —
     * backendExactlyOnce() turns true and the pipeline's watchdog may
     * hedge cohorts safely.
     */
    void setRecovery(backend::RecoverableBackend *recovery)
    {
        recovery_ = recovery;
    }

    uint32_t backendRequestSlotBytes() const override;
    uint32_t backendResponseSlotBytes() const override;

    std::optional<std::string>
    serveFallback(const http::Request &request,
                  specweb::SessionProvider &sessions,
                  simt::TraceRecorder &rec) override;

    /** The underlying backend service (harness accounting). */
    backend::BackendService &backendService() { return backend_; }

  private:
    specweb::BankingApp app_;
    backend::BackendService backend_;
    backend::RecoverableBackend *recovery_ = nullptr;
};

/**
 * Brings a SessionArray into @p recovery's crash domain: installs the
 * array's mutation hook (journaling every create/destroy) and the
 * snapshot/restore/replay closures recovery uses to rebuild session
 * state after a crash. Call after any pre-population (populate draws
 * from the array's RNG and must be inside the baseline checkpoint).
 */
void attachSessionRecovery(backend::RecoverableBackend &recovery,
                           SessionArray &sessions);

/**
 * Arms one server's run for faults and crash recovery (DESIGN.md 6b,
 * 6g): @p plan (not owned; nullptr = fault-free) goes to the server's
 * fault sites and the device's injector. With @p recovery, a journaled
 * backend with @p checkpoint_interval wraps the server's banking
 * service, takes its session array into the crash domain and draws its
 * crashes and torn records from the same plan. Call after session
 * population: the journal's baseline must hold the populated array.
 * @return The journaled backend (nullptr without @p recovery); it must
 *         outlive the run.
 */
std::unique_ptr<backend::RecoverableBackend>
armRun(RhythmServer &server, simt::Device &device, des::EventQueue &queue,
       fault::FaultPlan *plan, bool recovery, uint64_t checkpoint_interval);

} // namespace rhythm::core

#endif // RHYTHM_RHYTHM_BANKING_SERVICE_HH
