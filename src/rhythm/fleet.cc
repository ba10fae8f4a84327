#include "rhythm/fleet.hh"

#include <algorithm>

#include "backend/protocol.hh"
#include "obs/obs.hh"
#include "simt/trace.hh"
#include "util/logging.hh"

namespace rhythm::core {
namespace {

/**
 * Cross-shard idempotency tokens live far above the per-server token
 * space (launch-ordinal based, growing from 1), so coordinator legs
 * and regular cohort backend calls can never collide in a shard's
 * recovery memo. Token = base | (transfer id << 1) | phase.
 */
constexpr uint64_t kCrossTokenBase = 1ull << 62;

/** splitmix64 finalizer: the shard map must scatter consecutive user
 *  ids, which a plain modulo would stripe. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Rewrites the digits following "session=" in a raw request. */
bool
rewriteSessionCookie(std::string &raw, uint64_t old_sid, uint64_t new_sid)
{
    const std::string needle = "session=" + std::to_string(old_sid);
    const size_t pos = raw.find(needle);
    if (pos == std::string::npos)
        return false;
    // Reject partial-number matches ("session=12" inside "session=123").
    const size_t digits_end = pos + needle.size();
    if (digits_end < raw.size() && raw[digits_end] >= '0' &&
        raw[digits_end] <= '9')
        return false;
    raw.replace(pos + 8, needle.size() - 8, std::to_string(new_sid));
    return true;
}

} // namespace

Fleet::Fleet(des::EventQueue &queue,
             const simt::DeviceConfig &device_config,
             const RhythmConfig &server_config, const FleetConfig &config,
             uint64_t users, uint64_t db_seed)
    : queue_(queue), config_(config)
{
    RHYTHM_ASSERT(config_.devices >= 1, "fleet needs at least one device");
    pools_.resize(config_.devices);
    for (uint32_t i = 0; i < config_.devices; ++i) {
        auto shard = std::make_unique<Shard>();
        shard->stream = queue_.createStream();
        // Trace tracks follow stream ids (obs::Observability::mapTrack):
        // shard i's stream i + 1 renders as trace process "dev<i>".
        RHYTHM_ASSERT(shard->stream == i + 1,
                      "a fleet needs a queue of its own");
        obs::global().tracer().setProcessName(i + 1,
                                              "dev" + std::to_string(i));
        // Everything the shard schedules during construction and
        // startup must land on its stream; afterwards stream
        // inheritance keeps the causal chain there automatically.
        des::EventQueue::StreamScope scope(queue_, shard->stream);
        shard->db = std::make_unique<backend::BankDb>(users, db_seed);
        shard->device =
            std::make_unique<simt::Device>(queue_, device_config);
        shard->service = std::make_unique<BankingService>(*shard->db);
        shard->server = std::make_unique<RhythmServer>(
            queue_, *shard->device, *shard->service, server_config);
        const uint32_t index = i;
        shard->server->setResponseCallback(
            [this, index](uint64_t client_id, std::string_view response,
                          des::Time latency) {
                Shard &s = *shards_[index];
                if (s.outstanding > 0)
                    --s.outstanding;
                if (userCb_)
                    userCb_(client_id, response, latency);
            });
        shards_.push_back(std::move(shard));
    }
}

uint32_t
Fleet::aliveCount() const
{
    uint32_t n = 0;
    for (const auto &s : shards_)
        n += s->alive ? 1 : 0;
    return n;
}

uint32_t
Fleet::homeShard(uint64_t user_id) const
{
    return static_cast<uint32_t>(mix64(user_id ^ config_.shardMapSeed) %
                                 shards_.size());
}

uint32_t
Fleet::remapShard(uint64_t user_id) const
{
    std::vector<uint32_t> survivors;
    survivors.reserve(shards_.size());
    for (uint32_t i = 0; i < shards_.size(); ++i) {
        if (shards_[i]->alive)
            survivors.push_back(i);
    }
    RHYTHM_ASSERT(!survivors.empty(), "no surviving shards");
    // Mixed with a distinct constant so the remap is independent of
    // the home map (a dead shard's users spread over all survivors).
    const uint64_t h = mix64(user_id ^ config_.shardMapSeed ^
                             0x6465616476696365ull);
    return survivors[h % survivors.size()];
}

uint32_t
Fleet::leastOutstandingShard() const
{
    uint32_t best = shards_.size();
    for (uint32_t i = 0; i < shards_.size(); ++i) {
        if (!shards_[i]->alive)
            continue;
        if (best == shards_.size() ||
            shards_[i]->outstanding < shards_[best]->outstanding)
            best = i;
    }
    RHYTHM_ASSERT(best != shards_.size(), "no surviving shards");
    return best;
}

uint32_t
Fleet::routeShard(uint64_t user_id, uint32_t type_id) const
{
    const bool least =
        config_.balance == BalanceMode::LeastOutstanding ||
        std::find(config_.leastOutstandingTypes.begin(),
                  config_.leastOutstandingTypes.end(),
                  type_id) != config_.leastOutstandingTypes.end();
    if (least)
        return leastOutstandingShard();
    const uint32_t home = homeShard(user_id);
    if (shards_[home]->alive)
        return home;
    return remapShard(user_id);
}

void
Fleet::setFaultPlan(fault::FaultPlan *plan)
{
    RHYTHM_ASSERT(!armed_, "fault plan set after the fleet was armed");
    plan_ = plan;
}

void
Fleet::arm()
{
    if (armed_)
        return;
    armed_ = true;
    for (auto &s : shards_) {
        des::EventQueue::StreamScope scope(queue_, s->stream);
        s->recovery = armRun(*s->server, *s->device, queue_, plan_,
                             config_.recovery, config_.checkpointInterval);
    }
}

void
Fleet::setStaticContent(const specweb::StaticContent *content)
{
    for (auto &s : shards_)
        s->server->setStaticContent(content);
}

void
Fleet::setResponseCallback(RhythmServer::ResponseCallback cb)
{
    userCb_ = std::move(cb);
}

const std::vector<std::vector<std::pair<uint64_t, uint64_t>>> &
Fleet::populateSessions(uint64_t per_shard, uint64_t max_user_id)
{
    RHYTHM_ASSERT(!armed_, "sessions populated after the fleet was armed");
    for (uint32_t i = 0; i < shards_.size(); ++i) {
        if (config_.balance == BalanceMode::SessionHash) {
            pools_[i] = shards_[i]->server->sessions().populate(
                per_shard, max_user_id,
                [this, i](uint64_t user) { return homeShard(user) == i; });
        } else {
            // Identical pools everywhere: the arrays share one RNG
            // seed, so unfiltered population creates the same
            // (sid, user) pairs on every shard and any shard can
            // resolve any session.
            pools_[i] =
                shards_[i]->server->sessions().populate(per_shard,
                                                        max_user_id);
        }
    }
    arm();
    return pools_;
}

bool
Fleet::injectRequest(std::string raw, uint64_t client_id, uint64_t user_id,
                     uint32_t type_id)
{
    arm();
    uint32_t target = routeShard(user_id, type_id);
    if (!sessionRemap_.empty()) {
        // Re-sharded session? Follow the remap and rewrite the cookie
        // so the survivor's session array resolves it.
        const size_t pos = raw.find("session=");
        if (pos != std::string::npos) {
            uint64_t sid = 0;
            for (size_t i = pos + 8;
                 i < raw.size() && raw[i] >= '0' && raw[i] <= '9'; ++i)
                sid = sid * 10 + static_cast<uint64_t>(raw[i] - '0');
            auto it = sessionRemap_.find(sid);
            if (it != sessionRemap_.end()) {
                target = it->second.first;
                if (rewriteSessionCookie(raw, sid, it->second.second))
                    ++stats_.rewrittenCookies;
            }
        }
    }
    Shard &shard = *shards_[target];
    des::EventQueue::StreamScope scope(queue_, shard.stream);
    const bool ok = shard.server->injectRequest(std::move(raw), client_id);
    if (ok)
        ++shard.outstanding;
    return ok;
}

std::string
Fleet::execBackend(Shard &shard, const backend::BackendRequest &req,
                   uint64_t token)
{
    simt::NullTracer rec;
    const std::string wire = req.serialize();
    if (shard.recovery)
        return shard.recovery->execute(wire, token, rec);
    return shard.service->backendService().execute(wire, rec);
}

uint64_t
Fleet::beginCrossShardTransfer(uint64_t payer, uint64_t payee,
                               int64_t cents)
{
    arm();
    const uint64_t xfer_id = ++crossSeq_;
    ++stats_.crossStarted;
    const uint64_t token_out = kCrossTokenBase | (xfer_id << 1);
    const uint64_t token_in = token_out | 1;
    const uint32_t payer_shard = routeShard(payer, 0);
    queue_.scheduleAfterOn(
        shards_[payer_shard]->stream, 0,
        [this, payer, payee, cents, token_out, token_in, payer_shard] {
            backend::BackendRequest debit;
            debit.op = backend::Op::XferOut;
            debit.userId = payer;
            debit.args = {std::to_string(payee), std::to_string(cents)};
            const std::string resp =
                execBackend(*shards_[payer_shard], debit, token_out);
            if (!backend::response::isOk(resp)) {
                ++stats_.crossRejected;
                return;
            }
            const uint32_t payee_shard = routeShard(payee, 0);
            queue_.scheduleAfterOn(
                shards_[payee_shard]->stream, config_.crossShardHop,
                [this, payer, payee, cents, token_in, payee_shard] {
                    backend::BackendRequest credit;
                    credit.op = backend::Op::XferIn;
                    credit.userId = payee;
                    credit.args = {std::to_string(payer),
                                   std::to_string(cents)};
                    execBackend(*shards_[payee_shard], credit, token_in);
                    ++stats_.crossCompleted;
                });
        });
    return xfer_id;
}

void
Fleet::killDevice(uint32_t index)
{
    RHYTHM_ASSERT(index < shards_.size(), "no such device");
    Shard &dead = *shards_[index];
    RHYTHM_ASSERT(dead.alive, "device already dead");
    RHYTHM_ASSERT(aliveCount() > 1, "cannot kill the last device");
    arm();
    ++stats_.devicesKilled;
    dead.alive = false;
    if (dead.recovery) {
        // The serving process restarts: replay the journal over the
        // last checkpoint. Every committed (journaled) transaction
        // survives by construction — the chaos test asserts the digest.
        des::EventQueue::StreamScope scope(queue_, dead.stream);
        dead.recovery->crashAndRecover(false);
    }
    // Drain the dead shard's sessions to the survivors: re-create each
    // pooled session on the user's remap target and remember the old →
    // new session id mapping for the front-end cookie rewrite.
    simt::NullTracer rec;
    for (const auto &[sid, user] : pools_[index]) {
        const uint32_t target = remapShard(user);
        Shard &survivor = *shards_[target];
        des::EventQueue::StreamScope scope(queue_, survivor.stream);
        // create() journals itself through the survivor's session
        // mutation hook when recovery is attached.
        const uint64_t new_sid = survivor.server->sessions().create(user, rec);
        if (new_sid != 0) {
            sessionRemap_[sid] = {target, new_sid};
            pools_[target].emplace_back(new_sid, user);
            ++stats_.sessionsResharded;
        } else {
            ++stats_.reshardDrops;
        }
    }
    pools_[index].clear();
}

bool
Fleet::drainedAll() const
{
    for (const auto &s : shards_) {
        if (!s->server->drained())
            return false;
    }
    return true;
}

uint64_t
Fleet::totalAccepted() const
{
    uint64_t n = 0;
    for (const auto &s : shards_)
        n += s->server->stats().requestsAccepted;
    return n;
}

uint64_t
Fleet::totalResponses() const
{
    uint64_t n = 0;
    for (const auto &s : shards_)
        n += s->server->stats().responsesCompleted;
    return n;
}

uint64_t
Fleet::totalErrors() const
{
    uint64_t n = 0;
    for (const auto &s : shards_)
        n += s->server->stats().errorResponses;
    return n;
}

uint64_t
Fleet::totalShed() const
{
    uint64_t n = 0;
    for (const auto &s : shards_)
        n += s->server->stats().requestsShed;
    return n;
}

uint64_t
Fleet::totalReaderDrops() const
{
    uint64_t n = 0;
    for (const auto &s : shards_)
        n += s->server->stats().readerDrops;
    return n;
}

uint64_t
Fleet::totalCohorts() const
{
    uint64_t n = 0;
    for (const auto &s : shards_)
        n += s->server->stats().cohortsLaunched;
    return n;
}

std::vector<std::pair<uint64_t, uint64_t>>
interleavePools(
    const std::vector<std::vector<std::pair<uint64_t, uint64_t>>> &pools)
{
    std::vector<std::pair<uint64_t, uint64_t>> flat;
    size_t longest = 0;
    for (const auto &p : pools)
        longest = std::max(longest, p.size());
    for (size_t k = 0; k < longest; ++k)
        for (const auto &p : pools)
            if (k < p.size())
                flat.push_back(p[k]);
    return flat;
}

} // namespace rhythm::core
