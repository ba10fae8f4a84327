#include "rhythm/banking_service.hh"

#include <memory>

#include "backend/protocol.hh"
#include "backend/recovery.hh"
#include "fault/device_injector.hh"
#include "rhythm/server.hh"
#include "rhythm/session_array.hh"
#include "specweb/quickpay.hh"
#include "util/logging.hh"

namespace rhythm::core {

bool
BankingService::resolveType(const http::Request &request,
                            uint32_t &type_id) const
{
    specweb::RequestType type;
    if (!specweb::typeFromPath(request.path, type))
        return false;
    type_id = static_cast<uint32_t>(specweb::typeIndex(type));
    return true;
}

void
BankingService::runStage(uint32_t type_id, int stage,
                         specweb::HandlerContext &ctx) const
{
    app_.runStage(static_cast<specweb::RequestType>(type_id), stage, ctx);
}

bool
BankingService::stageIsLaneParallel(uint32_t type_id, int stage) const
{
    // Audit (see DESIGN.md 6f): every banking stage either only reads
    // shared state (SessionArray::lookup, BankDb reads via composed
    // backend requests) or runs purely on per-lane data — except the
    // two below, which mutate the shared session store / consume its
    // RNG and must keep cohort lane order:
    //  - Login stage 1 calls SessionProvider::create (RNG + bucket
    //    insert). Stages 0 and 2 of Login never touch sessions.
    //  - Logout's single stage calls SessionProvider::destroy.
    const auto type = static_cast<specweb::RequestType>(type_id);
    if (type == specweb::RequestType::Login)
        return stage != 1;
    if (type == specweb::RequestType::Logout)
        return false;
    return true;
}

std::string
BankingService::executeBackend(std::string_view request,
                               simt::TraceRecorder &rec)
{
    return backend_.execute(request, rec);
}

std::string
BankingService::executeBackend(std::string_view request, uint64_t token,
                               simt::TraceRecorder &rec)
{
    if (recovery_)
        return recovery_->execute(request, token, rec);
    return backend_.execute(request, rec);
}

void
attachSessionRecovery(backend::RecoverableBackend &recovery,
                      SessionArray &sessions)
{
    sessions.setMutationHook(
        [&recovery](bool created, uint64_t sid, uint64_t user) {
            if (created)
                recovery.journalSessionCreate(sid, user);
            else
                recovery.journalSessionDestroy(sid);
        });

    backend::SessionHooks hooks;
    // The captured snapshot lives in the closures; checkpoint()
    // overwrites it (setSessionHooks takes the first), restore()
    // reinstates it.
    auto snap = std::make_shared<SessionArray::Snapshot>();
    hooks.checkpoint = [&sessions, snap]() { *snap = sessions.snapshot(); };
    hooks.restore = [&sessions, snap]() { sessions.restore(*snap); };
    // Replay re-executes create() against the restored array + RNG
    // state, which deterministically reproduces the original probe
    // sequence — and therefore the original session id, which the
    // recovery layer asserts against the journaled one.
    hooks.replayCreate = [&sessions](uint64_t user) -> uint64_t {
        simt::NullTracer null;
        return sessions.create(user, null);
    };
    hooks.replayDestroy = [&sessions](uint64_t sid) -> bool {
        simt::NullTracer null;
        return sessions.destroy(sid, null);
    };
    recovery.setSessionHooks(std::move(hooks));
}

std::unique_ptr<backend::RecoverableBackend>
armRun(RhythmServer &server, simt::Device &device, des::EventQueue &queue,
       fault::FaultPlan *plan, bool recovery, uint64_t checkpoint_interval)
{
    if (plan) {
        server.setFaultPlan(plan);
        fault::installDeviceFaults(device, *plan, queue);
    }
    if (!recovery)
        return nullptr;
    auto *banking = dynamic_cast<BankingService *>(&server.service());
    RHYTHM_ASSERT(banking, "crash recovery journals the banking backend");
    backend::RecoveryConfig rcfg;
    rcfg.checkpointInterval = checkpoint_interval;
    auto journal = std::make_unique<backend::RecoverableBackend>(
        banking->backendService(), banking->backendService().db(), rcfg);
    if (plan)
        journal->setFaultPlan(plan, [&queue]() { return queue.now(); });
    attachSessionRecovery(*journal, server.sessions());
    banking->setRecovery(journal.get());
    return journal;
}

uint32_t
BankingService::backendRequestSlotBytes() const
{
    return backend::kRequestSlotBytes;
}

uint32_t
BankingService::backendResponseSlotBytes() const
{
    return backend::kResponseSlotBytes;
}

std::optional<std::string>
BankingService::serveFallback(const http::Request &request,
                              specweb::SessionProvider &sessions,
                              simt::TraceRecorder &rec)
{
    if (request.path != specweb::kQuickPayPath)
        return std::nullopt;
    return specweb::serveQuickPay(request, backend_, sessions, rec);
}

} // namespace rhythm::core
