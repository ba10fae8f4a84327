/**
 * @file
 * Multi-device sharded serving: an N-Titan fleet behind one front end.
 *
 * The paper evaluates one Titan; the ROADMAP north-star (millions of
 * users) needs scale-out. A Fleet instantiates N complete serving
 * shards — each with its own DES event stream, simt::Device (own PCIe
 * link and copy engines), BankDb, BankingService, RhythmServer and
 * optional RecoverableBackend — and a front-end load balancer that
 * routes each request to a shard (DESIGN.md Section 6k):
 *
 *  - SessionHash (default): users are session-sharded by a stable
 *    hash of (user id, shard map seed). Each shard's session array is
 *    populated only with its homed users, so every stateful banking
 *    request finds its session locally.
 *  - LeastOutstanding: requests go to the alive shard with the fewest
 *    outstanding requests. Sessions are populated identically on every
 *    shard (the arrays share one RNG seed, so the pools coincide),
 *    trading per-user state affinity for balance — the mode meant for
 *    stateless request types, selectable per type via
 *    FleetConfig::leastOutstandingTypes even under SessionHash.
 *
 * Determinism: each shard's causal chain stays on its own DES stream
 * (events scheduled from a shard's callbacks inherit the stream), and
 * the EventQueue merges stream fronts canonically — lowest timestamp,
 * then lowest stream id — so a fleet run is byte-identical across
 * --sim-threads and profile-cache settings, exactly like one device.
 *
 * Cross-shard transfers are two-phase: XferOut debits the payer on the
 * payer's home shard, then the coordinator schedules XferIn on the
 * payee's shard one hop later. Both legs carry idempotency tokens
 * through the recovery journal, so a coordinator retry after a crash
 * between the phases dedups instead of double-spending.
 *
 * Device failure: killDevice() crash-recovers the shard's backend
 * through its journal (committed transactions survive by
 * construction), marks the shard dead for routing, and re-creates its
 * sessions on the survivors; the front end rewrites re-sharded session
 * cookies on the way in.
 */

#ifndef RHYTHM_RHYTHM_FLEET_HH
#define RHYTHM_RHYTHM_FLEET_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backend/bankdb.hh"
#include "backend/recovery.hh"
#include "des/event_queue.hh"
#include "fault/plan.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/server.hh"
#include "simt/device.hh"

namespace rhythm::core {

/** Front-end balancing policy (see file header). */
enum class BalanceMode : uint8_t {
    SessionHash,      //!< Stable hash of the user id (default).
    LeastOutstanding, //!< Fewest outstanding requests wins.
};

/** Fleet-level configuration (per-shard config is RhythmConfig). */
struct FleetConfig
{
    /** Number of devices (shards); >= 1. */
    uint32_t devices = 1;
    /** Front-end balancing policy. */
    BalanceMode balance = BalanceMode::SessionHash;
    /** Seed of the user → shard map (and of the re-shard remap). */
    uint64_t shardMapSeed = 0x52687974686d5348ull;
    /**
     * Request-type ids routed least-outstanding even in SessionHash
     * mode — the per-type override for stateless types.
     */
    std::vector<uint32_t> leastOutstandingTypes;
    /** Give each shard a journaled RecoverableBackend. */
    bool recovery = false;
    /** Journaled records between checkpoints (recovery only). */
    uint64_t checkpointInterval = 4096;
    /** Modeled coordinator hop between cross-shard phases. */
    des::Time crossShardHop = 20 * des::kMicrosecond;
};

/**
 * N complete banking shards plus the front-end balancer and the
 * cross-shard coordinator. Single-threaded like everything else on the
 * DES thread.
 */
class Fleet
{
  public:
    /**
     * Builds the fleet: per shard a DES stream, a BankDb(users,
     * db_seed) (identical per-user state on every shard — routing
     * decides which copy is authoritative for a user), a Device, a
     * BankingService and a RhythmServer. @p queue must hold no stream
     * but stream 0, so shard i runs on stream i + 1, whose trace tracks
     * render as trace process "dev<i>". The shards
     * are armed (fault plan, journaled backend) later: by
     * populateSessions, or else by the first request, transfer or kill.
     */
    Fleet(des::EventQueue &queue, const simt::DeviceConfig &device_config,
          const RhythmConfig &server_config, const FleetConfig &config,
          uint64_t users, uint64_t db_seed);

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    uint32_t devices() const { return static_cast<uint32_t>(shards_.size()); }
    RhythmServer &server(uint32_t i) { return *shards_[i]->server; }
    simt::Device &device(uint32_t i) { return *shards_[i]->device; }
    backend::BankDb &db(uint32_t i) { return *shards_[i]->db; }
    /** Shard @p i's journal; nullptr without recovery or before the
     *  fleet is armed. */
    backend::RecoverableBackend *recovery(uint32_t i)
    {
        return shards_[i]->recovery.get();
    }
    des::StreamId stream(uint32_t i) const { return shards_[i]->stream; }
    bool alive(uint32_t i) const { return shards_[i]->alive; }
    uint32_t aliveCount() const;

    /** Stable home shard of a user (ignores liveness). */
    uint32_t homeShard(uint64_t user_id) const;

    /**
     * Shard a request for @p user_id of @p type_id is routed to:
     * least-outstanding when the mode or a per-type override says so,
     * otherwise the home shard, remapped deterministically to a
     * survivor when the home shard is dead.
     */
    uint32_t routeShard(uint64_t user_id, uint32_t type_id) const;

    /**
     * Sets the fault plan (not owned; nullptr = fault-free) every shard
     * is armed with: its server's sites, its device's injector and,
     * with recovery, its journal (core::armRun). Call before the fleet
     * is armed.
     */
    void setFaultPlan(fault::FaultPlan *plan);

    /** Registers the static-content store on every shard. */
    void setStaticContent(const specweb::StaticContent *content);

    /**
     * Registers the fan-in response callback (invoked for every
     * response from every shard). The fleet always interposes its own
     * per-shard callback to track outstanding counts.
     */
    void setResponseCallback(RhythmServer::ResponseCallback cb);

    /**
     * Populates every shard's session array: @p per_shard sessions
     * drawn from users <= @p max_user_id, filtered to each shard's
     * homed users under SessionHash (so the pools partition the user
     * space), identical on every shard under LeastOutstanding. Then
     * arms the shards, so each journal's baseline holds its populated
     * array: population and create() share the array's RNG, so
     * replaying journaled population creates could not reproduce their
     * session ids. Call once, before serving.
     * @return Per-shard (session id, user id) pools; also retained
     *         internally for the re-shard path.
     */
    const std::vector<std::vector<std::pair<uint64_t, uint64_t>>> &
    populateSessions(uint64_t per_shard, uint64_t max_user_id);

    /**
     * Routes and injects one raw request. Applies the re-shard session
     * rewrite ("session=<old>" → the survivor's session id) when the
     * session was re-created after a device kill. Same contract as
     * RhythmServer::injectRequest; false = the target shard's reader
     * is full.
     */
    bool injectRequest(std::string raw, uint64_t client_id,
                       uint64_t user_id, uint32_t type_id);

    /**
     * Starts a two-phase cross-shard transfer: XferOut debits @p payer
     * on its current shard now; on success XferIn credits @p payee on
     * its current shard one crossShardHop later. Both legs are
     * journaled with distinct idempotency tokens when recovery is on.
     * @return The transfer's coordinator id (for logging/tests).
     */
    uint64_t beginCrossShardTransfer(uint64_t payer, uint64_t payee,
                                     int64_t cents);

    /**
     * Kills a device mid-flight: the shard's backend crash-recovers
     * from its journal (every committed transaction survives), the
     * shard stops receiving new requests, and its session pool is
     * re-created on the surviving shards (front-end cookie rewrite
     * maps old session ids to the new ones). Requests already inside
     * the dead shard's pipeline drain normally — the model is a
     * serving process that must be restarted, not vanished silicon.
     * At least one shard must survive.
     */
    void killDevice(uint32_t index);

    /** True when every shard's pipeline is empty. */
    bool drainedAll() const;

    /** Fleet-level counters (per-shard counters: server(i).stats()). */
    struct Stats
    {
        uint64_t crossStarted = 0;   //!< Coordinator transfers begun.
        uint64_t crossCompleted = 0; //!< Both phases applied.
        uint64_t crossRejected = 0;  //!< Phase-1 debit rejected.
        uint64_t devicesKilled = 0;
        uint64_t sessionsResharded = 0; //!< Re-created on survivors.
        uint64_t reshardDrops = 0;   //!< No survivor bucket space.
        uint64_t rewrittenCookies = 0; //!< session= rewrites applied.
    };
    const Stats &stats() const { return stats_; }

    // ---- Aggregates across shards (bench reporting) ----------------
    uint64_t totalAccepted() const;
    uint64_t totalResponses() const;
    uint64_t totalErrors() const;
    uint64_t totalShed() const;
    uint64_t totalReaderDrops() const;
    uint64_t totalCohorts() const;

  private:
    struct Shard
    {
        des::StreamId stream = 0;
        std::unique_ptr<backend::BankDb> db;
        std::unique_ptr<simt::Device> device;
        std::unique_ptr<BankingService> service;
        std::unique_ptr<backend::RecoverableBackend> recovery;
        std::unique_ptr<RhythmServer> server;
        bool alive = true;
        uint64_t outstanding = 0; //!< Accepted minus responded.
    };

    /** Arms every shard once (see setFaultPlan). */
    void arm();
    /** Deterministic survivor for a user whose home shard died. */
    uint32_t remapShard(uint64_t user_id) const;
    /** Alive shard with the fewest outstanding requests. */
    uint32_t leastOutstandingShard() const;
    /** Executes one backend leg on a shard (journaled when possible). */
    std::string execBackend(Shard &shard, const backend::BackendRequest &req,
                            uint64_t token);

    des::EventQueue &queue_;
    FleetConfig config_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> pools_;
    /** Old session id → (survivor shard, new session id). */
    std::map<uint64_t, std::pair<uint32_t, uint64_t>> sessionRemap_;
    RhythmServer::ResponseCallback userCb_;
    fault::FaultPlan *plan_ = nullptr;
    bool armed_ = false;
    uint64_t crossSeq_ = 0;
    Stats stats_;
};

/**
 * Round-robin interleave of per-shard session pools (entry k of every
 * pool, then entry k + 1), so consecutive arrivals drawing from the
 * result spread over the whole fleet.
 */
std::vector<std::pair<uint64_t, uint64_t>> interleavePools(
    const std::vector<std::vector<std::pair<uint64_t, uint64_t>>> &pools);

} // namespace rhythm::core

#endif // RHYTHM_RHYTHM_FLEET_HH
