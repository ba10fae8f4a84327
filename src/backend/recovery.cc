#include "backend/recovery.hh"

#include <charconv>

#include "util/logging.hh"

namespace rhythm::backend {
namespace {

/** Separator between request and response in a 'B' record payload. */
constexpr char kReqRespSep = '\x1f';

uint64_t
parseU64(std::string_view text)
{
    uint64_t v = 0;
    std::from_chars(text.data(), text.data() + text.size(), v);
    return v;
}

} // namespace

bool
RecoverableBackend::isMutating(Op op)
{
    switch (op) {
      case Op::AddPayee:
      case Op::PayBill:
      case Op::UpdateProfile:
      case Op::OrderCheck:
      case Op::PlaceCheckOrder:
      case Op::Transfer:
      case Op::XferOut:
      case Op::XferIn:
        return true;
      default:
        return false;
    }
}

RecoverableBackend::RecoverableBackend(BackendService &service, BankDb &db,
                                       RecoveryConfig config)
    : service_(service), db_(db), config_(config)
{
    checkpoint();
    stats_.checkpoints = 0; // the baseline copy is not a checkpoint event
}

void
RecoverableBackend::setFaultPlan(fault::FaultPlan *plan,
                                 std::function<des::Time()> clock)
{
    faultPlan_ = plan;
    clock_ = std::move(clock);
}

void
RecoverableBackend::setSessionHooks(SessionHooks hooks)
{
    sessionHooks_ = std::move(hooks);
    // Re-baseline so the checkpoint covers the session array too.
    checkpoint();
    stats_.checkpoints = 0;
}

void
RecoverableBackend::appendRecord(char kind, uint64_t token,
                                 std::string payload)
{
    JournalRecord rec;
    rec.kind = kind;
    rec.token = token;
    rec.payload = std::move(payload);
    journal_.append(rec);
    ++stats_.journaledRecords;
}

void
RecoverableBackend::journalSessionCreate(uint64_t session_id,
                                         uint64_t user_id)
{
    if (replaying_)
        return;
    appendRecord('C', session_id, std::to_string(user_id));
    // The array calls its hook once the mutation is complete, so the
    // checkpoint's session snapshot already holds this record's effect.
    maybeCheckpoint();
}

void
RecoverableBackend::journalSessionDestroy(uint64_t session_id)
{
    if (replaying_)
        return;
    appendRecord('D', session_id, std::string());
    maybeCheckpoint();
}

std::string
RecoverableBackend::execute(std::string_view request, uint64_t token,
                            simt::TraceRecorder &rec)
{
    BackendRequest parsed;
    if (!BackendRequest::parse(request, parsed) || !isMutating(parsed.op))
        return service_.execute(request, rec);

    if (auto it = memo_.find(token); it != memo_.end()) {
        ++stats_.memoHits;
        return it->second;
    }

    // Draw the crash decision up front: the crash "happens" while this
    // operation is in flight, i.e. after apply+append but before the
    // response escapes the process (the worst case log-before-respond
    // has to cover).
    fault::Decision crash;
    if (faultPlan_)
        crash = faultPlan_->at(fault::Site::BackendCrash,
                               clock_ ? clock_() : 0);

    std::string response = service_.execute(request, rec);
    memo_[token] = response;
    {
        std::string payload;
        payload.reserve(request.size() + response.size() + 1);
        payload.append(request);
        payload.push_back(kReqRespSep);
        payload.append(response);
        appendRecord('B', token, std::move(payload));
    }

    if (crash.fire) {
        ++stats_.crashes;
        const bool torn =
            faultPlan_ &&
            faultPlan_->at(fault::Site::JournalTorn, clock_ ? clock_() : 0)
                .fire;
        crashAndRecover(torn);
        if (torn) {
            // This operation's record was the torn tail: its effect and
            // response are gone. The client retry (same token) finds no
            // memo entry and re-executes — applied exactly once overall.
            ++stats_.reexecutions;
            response = service_.execute(request, rec);
            memo_[token] = response;
            std::string payload;
            payload.reserve(request.size() + response.size() + 1);
            payload.append(request);
            payload.push_back(kReqRespSep);
            payload.append(response);
            appendRecord('B', token, std::move(payload));
        } else {
            response = memo_.at(token);
        }
    }
    maybeCheckpoint();
    return response;
}

void
RecoverableBackend::checkpoint()
{
    dbCheckpoint_ = std::make_unique<BankDb>(db_);
    memoCheckpoint_ = memo_;
    if (sessionHooks_.checkpoint)
        sessionHooks_.checkpoint();
    journal_.clear();
    ++stats_.checkpoints;
}

void
RecoverableBackend::maybeCheckpoint()
{
    if (config_.checkpointInterval > 0 &&
        journal_.records() >= config_.checkpointInterval)
        checkpoint();
}

void
RecoverableBackend::crashAndRecover(bool torn)
{
    if (torn)
        journal_.tearLastRecord();

    // Everything in memory dies with the process; only the checkpoint
    // and the journal image survive.
    const Journal::ScanResult scanned = Journal::scan(journal_.data());
    if (scanned.torn)
        ++stats_.tornRecords;
    db_ = *dbCheckpoint_;
    memo_ = memoCheckpoint_;
    if (sessionHooks_.restore)
        sessionHooks_.restore();

    // Replay re-executes on the bare service, which draws no faults
    // (the server's call_backend is the one backend-failure site), so
    // replayed operations reproduce their recorded outcome.
    replaying_ = true;
    simt::NullTracer null;
    for (const JournalRecord &rec : scanned.records) {
        ++stats_.replayedRecords;
        if (rec.kind == 'B') {
            const size_t sep = rec.payload.find(kReqRespSep);
            RHYTHM_ASSERT(sep != std::string::npos,
                          "malformed backend journal payload");
            const std::string_view request(rec.payload.data(), sep);
            const std::string_view recorded(rec.payload.data() + sep + 1,
                                            rec.payload.size() - sep - 1);
            const std::string replayed = service_.execute(request, null);
            if (replayed != recorded)
                ++stats_.replayMismatches;
            memo_[rec.token] = std::string(recorded);
        } else if (rec.kind == 'C') {
            const uint64_t replayed_sid =
                sessionHooks_.replayCreate
                    ? sessionHooks_.replayCreate(parseU64(rec.payload))
                    : 0;
            if (replayed_sid != rec.token)
                ++stats_.replayMismatches;
        } else {
            if (sessionHooks_.replayDestroy &&
                !sessionHooks_.replayDestroy(rec.token))
                ++stats_.replayMismatches;
        }
    }
    replaying_ = false;

    // The torn tail never made it to disk: drop it from the image so
    // post-recovery appends continue from the last good record.
    if (scanned.torn) {
        std::string survivors = journal_.data();
        survivors.resize(survivors.size() - scanned.tornBytes);
        journal_.setData(std::move(survivors), scanned.records.size());
    }
}

} // namespace rhythm::backend
