/**
 * @file
 * Determinism-equivalence harness for the parallel execution engine.
 *
 * Runs real workload configurations — sized-down versions of the fig8
 * (Titan variant evaluation), fig9 (PCIe-bound Titan A) and sec6.2
 * (Titan C scaling) experiments — at --sim-threads ∈ {1, 2, 4, 8} and
 * asserts that *everything observable* is identical to the serial run:
 * the flattened metrics registry (what `--json` serializes), the Chrome
 * trace export, the final DES clock, the event count and dispatch-order
 * hash, and the engine's per-SM counters. Exact equality of doubles is
 * intentional: all parallel accounting is integer-based and merged in
 * canonical order, so there is nothing to be approximately equal about.
 *
 * Under tsan (the CI sanitizer matrix runs this binary) the multi-thread
 * runs also prove the pool/engine/metrics layers are race-free.
 */

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "backend/bankdb.hh"
#include "chat/service.hh"
#include "chat/store.hh"
#include "des/event_queue.hh"
#include "fault/device_injector.hh"
#include "fault/plan.hh"
#include "net/arrival.hh"
#include "obs/obs.hh"
#include "platform/titan.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/fleet.hh"
#include "rhythm/server.hh"
#include "search/corpus.hh"
#include "search/index.hh"
#include "search/service.hh"
#include "simt/device.hh"
#include "simt/profile_cache.hh"
#include "specweb/workload.hh"
#include "util/hash.hh"
#include "util/thread_pool.hh"

namespace rhythm {
namespace {

/** Everything a run exposes; compared field-by-field across thread counts. */
struct Fingerprint
{
    des::Time clock = 0;
    uint64_t dispatched = 0;
    uint64_t orderHash = 0;
    uint64_t responses = 0;
    uint64_t errors = 0;
    uint64_t engineLaunches = 0;
    uint64_t engineWarps = 0;
    //! Injected kernel hangs hedged by the watchdog (fault runs only).
    uint64_t kernelHangs = 0;
    std::vector<simt::Engine::SmCounters> sms;
    std::vector<std::pair<std::string, double>> metrics;
    std::string trace;
    //! Order-insensitive response-byte digest (fusion runs only).
    uint64_t responseDigestSum = 0;
    //! Profile-cache accounting (zero when no cache was attached).
    simt::ProfileCache::Stats cacheStats;
};

void
expectIdentical(const Fingerprint &serial, const Fingerprint &parallel,
                unsigned threads)
{
    SCOPED_TRACE("sim-threads=" + std::to_string(threads));
    EXPECT_EQ(serial.clock, parallel.clock);
    EXPECT_EQ(serial.dispatched, parallel.dispatched);
    EXPECT_EQ(serial.orderHash, parallel.orderHash);
    EXPECT_EQ(serial.responses, parallel.responses);
    EXPECT_EQ(serial.errors, parallel.errors);
    EXPECT_EQ(serial.engineLaunches, parallel.engineLaunches);
    EXPECT_EQ(serial.engineWarps, parallel.engineWarps);
    EXPECT_EQ(serial.kernelHangs, parallel.kernelHangs);
    ASSERT_EQ(serial.sms.size(), parallel.sms.size());
    for (size_t s = 0; s < serial.sms.size(); ++s)
        EXPECT_TRUE(serial.sms[s] == parallel.sms[s]) << "SM " << s;
    ASSERT_EQ(serial.metrics.size(), parallel.metrics.size());
    for (size_t i = 0; i < serial.metrics.size(); ++i) {
        EXPECT_EQ(serial.metrics[i].first, parallel.metrics[i].first);
        EXPECT_EQ(serial.metrics[i].second, parallel.metrics[i].second)
            << "metric " << serial.metrics[i].first;
    }
    EXPECT_EQ(serial.trace, parallel.trace);
    EXPECT_EQ(serial.responseDigestSum, parallel.responseDigestSum);
}

/** Which authentication traffic the banking run carries. */
enum class AuthMode : uint8_t {
    None,       //!< Browsing steady state (Login/Logout excluded).
    LoginOnly,  //!< Every request is a Login (session-creating).
    LogoutOnly, //!< Every request is a Logout (session-consuming).
    Mixed,      //!< Browsing interleaved with Logins and Logouts.
};

/**
 * One rhythm_sim-shaped banking run (mixed browsing steady state) with
 * observability recording, so metrics and trace spans are captured.
 *
 * @param cache_entries When nonzero, a ProfileCache of that capacity is
 *        attached to the engine (the --profile-cache=on path). The
 *        fingerprint's metrics exclude the cache's own "profile_cache."
 *        meta-counters — those describe the cache, not the simulation,
 *        and are asserted separately via Fingerprint::cacheStats.
 * @param auth Session-churning traffic mix: Login creates sessions and
 *        Logout destroys them, so both mutate the shared session store
 *        through the serial-stage path — the interleave of those
 *        serial stages with the lane-parallel stages is exactly what
 *        must stay canonical across thread counts.
 */
Fingerprint
runBanking(unsigned threads, size_t cache_entries = 0,
           AuthMode auth = AuthMode::None)
{
    util::setSimThreads(threads);
    obs::global().reset();

    platform::TitanVariant variant = platform::titanB();
    core::RhythmConfig cfg = variant.server;
    cfg.cohortSize = 512;
    cfg.cohortContexts = 8;
    cfg.laneSample = 64;
    if (cache_entries > 0)
        cfg.traceTemplateCacheEntries =
            static_cast<uint32_t>(cache_entries);
    const uint64_t total = 4 * cfg.cohortSize;
    const uint64_t seed = 42;
    const uint64_t users = 400;
    if (auth != AuthMode::None) {
        // Session-tree sizing for auth churn (mirrors rhythm_sim's
        // --type=login/logout path).
        cfg.sessionNodesPerBucket = static_cast<uint32_t>(
            3 * total / std::min<uint64_t>(users, cfg.cohortSize) + 16);
    }

    des::EventQueue queue;
    obs::global().enable(queue);
    simt::ProfileCache cache(std::max<size_t>(cache_entries, 1));
    simt::Device device(queue, variant.device);
    if (cache_entries > 0)
        device.engine().setProfileCache(&cache);
    backend::BankDb db(users, seed);
    core::BankingService service(db);
    core::RhythmServer server(queue, device, service, cfg);
    specweb::WorkloadGenerator gen(db, seed * 31 + 7);

    // Logout consumes one session per request, so the logout-bearing
    // modes preload a full-size pool; Mixed draws logouts from the back
    // of the pool (each destroyed once) while browsing reuses the
    // front.
    auto sessions = server.sessions().populate(
        auth == AuthMode::LogoutOnly || auth == AuthMode::Mixed
            ? total
            : std::min<uint64_t>(total, 8192),
        users);
    uint64_t issued = 0;
    uint64_t logouts = 0;
    server.start([&]() -> std::optional<std::string> {
        if (issued >= total)
            return std::nullopt;
        const uint64_t n = issued++;
        if (auth == AuthMode::LoginOnly ||
            (auth == AuthMode::Mixed && n % 5 == 2)) {
            return gen.generate(specweb::RequestType::Login,
                                gen.sampleUser(), 0)
                .raw;
        }
        if (auth == AuthMode::LogoutOnly ||
            (auth == AuthMode::Mixed && n % 11 == 7)) {
            const auto &[sid, user] =
                auth == AuthMode::LogoutOnly
                    ? sessions[n]
                    : sessions[sessions.size() - 1 - logouts++];
            return gen.generate(specweb::RequestType::Logout, user, sid)
                .raw;
        }
        specweb::RequestType type;
        do {
            type = gen.sampleType();
        } while (type == specweb::RequestType::Login ||
                 type == specweb::RequestType::Logout);
        const auto &[sid, user] = sessions[n % sessions.size()];
        return gen.generate(type, user, sid).raw;
    });
    queue.run();

    Fingerprint fp;
    fp.clock = queue.now();
    fp.dispatched = queue.dispatched();
    fp.orderHash = queue.orderHash();
    fp.responses = server.stats().responsesCompleted;
    fp.errors = server.stats().errorResponses;
    fp.engineLaunches = device.engine().launches();
    fp.engineWarps = device.engine().warps();
    fp.sms = device.engine().smCounters();
    fp.metrics = obs::global().metrics().flatten(
        std::span<const std::string_view>(
            obs::kBaselineExcludedPrefixes));
    std::ostringstream trace;
    obs::global().tracer().writeChromeTrace(trace);
    fp.trace = trace.str();
    fp.cacheStats = cache.stats();

    obs::global().disable();
    obs::global().reset();
    util::setSimThreads(1);
    return fp;
}

/**
 * One fleet-mode banking run (DESIGN.md 6k): N shards on per-device
 * event streams, the session-hash front end, open-loop Poisson
 * arrivals and a cross-shard transfer every 64 arrivals, with each
 * shard's backend journaled. The canonical stream merge (lowest front
 * timestamp, then lowest stream id) makes the whole run — dispatch
 * order, responses, per-device metrics, trace — byte-identical across
 * thread counts and profile-cache settings, exactly like one device.
 * The fingerprint's metrics use the unfiltered flatten, so the
 * per-device "dev<i>." namespaces are compared too.
 */
Fingerprint
runFleet(unsigned threads, uint32_t devices, size_t cache_entries = 0)
{
    util::setSimThreads(threads);
    obs::global().reset();

    platform::TitanVariant variant = platform::titanB();
    core::RhythmConfig cfg = variant.server;
    cfg.cohortSize = 256;
    cfg.cohortContexts = 8;
    cfg.laneSample = 64;
    cfg.cohortTimeout = des::fromSeconds(0.5e-3);
    if (cache_entries > 0)
        cfg.traceTemplateCacheEntries =
            static_cast<uint32_t>(cache_entries);
    const uint64_t total = 3000;
    const uint64_t users = 400;
    const uint64_t seed = 42;

    des::EventQueue queue;
    obs::global().enable(queue);
    core::FleetConfig fc;
    fc.devices = devices;
    fc.recovery = true;
    core::Fleet fleet(queue, variant.device, cfg, fc, users, seed);
    std::vector<std::unique_ptr<simt::ProfileCache>> caches;
    for (uint32_t i = 0; i < devices && cache_entries > 0; ++i) {
        caches.push_back(
            std::make_unique<simt::ProfileCache>(cache_entries));
        fleet.device(i).engine().setProfileCache(caches.back().get());
    }
    backend::BankDb db(users, seed);
    specweb::WorkloadGenerator gen(db, seed * 31 + 7);
    uint64_t digest_sum = 0;
    fleet.setResponseCallback(
        [&](uint64_t cid, std::string_view resp, des::Time) {
            util::Fnv1a64 h;
            h.update(cid);
            h.update(resp.size());
            for (const char c : resp)
                h.update(static_cast<uint64_t>(
                    static_cast<unsigned char>(c)));
            digest_sum += h.digest();
        });

    const auto &pools = fleet.populateSessions(
        std::max<uint64_t>(2048 / devices, 1), users);
    std::vector<std::pair<uint64_t, uint64_t>> flat;
    size_t longest = 0;
    for (const auto &p : pools)
        longest = std::max(longest, p.size());
    for (size_t k = 0; k < longest; ++k)
        for (const auto &p : pools)
            if (k < p.size())
                flat.push_back(p[k]);

    net::ArrivalConfig acfg;
    acfg.kind = net::ArrivalKind::Poisson;
    acfg.rate = 400e3;
    acfg.seed = 7;
    net::ArrivalProcess arrivals(acfg);
    uint64_t issued = 0;
    std::function<void()> arrive = [&]() {
        if (issued >= total)
            return;
        specweb::RequestType type;
        do {
            type = gen.sampleType();
        } while (type == specweb::RequestType::Login ||
                 type == specweb::RequestType::Logout);
        const auto &[sid, user] = flat[issued % flat.size()];
        specweb::GeneratedRequest req = gen.generate(type, user, sid);
        ++issued;
        fleet.injectRequest(std::move(req.raw), issued, user,
                            static_cast<uint32_t>(type));
        if (issued % 64 == 0)
            fleet.beginCrossShardTransfer(gen.sampleUser(),
                                          gen.sampleUser(), 250);
        if (issued < total)
            queue.scheduleAfter(arrivals.nextGap(), arrive);
    };
    queue.scheduleAfter(arrivals.nextGap(), arrive);
    queue.run();

    Fingerprint fp;
    fp.clock = queue.now();
    fp.dispatched = queue.dispatched();
    fp.orderHash = queue.orderHash();
    fp.responses = fleet.totalResponses();
    fp.errors = fleet.totalErrors();
    for (uint32_t i = 0; i < devices; ++i) {
        const simt::Engine &engine = fleet.device(i).engine();
        fp.engineLaunches += engine.launches();
        fp.engineWarps += engine.warps();
        const auto &sms = engine.smCounters();
        fp.sms.insert(fp.sms.end(), sms.begin(), sms.end());
    }
    fp.metrics = obs::global().metrics().flatten();
    std::ostringstream trace;
    obs::global().tracer().writeChromeTrace(trace);
    fp.trace = trace.str();
    fp.responseDigestSum = digest_sum;

    obs::global().disable();
    obs::global().reset();
    util::setSimThreads(1);
    return fp;
}

/** Field-exact fingerprint of an isolated-type platform run. */
Fingerprint
runIsolated(platform::TitanVariant variant, specweb::RequestType type,
            unsigned threads)
{
    util::setSimThreads(threads);
    variant.server.laneSample = 64;
    platform::IsolatedRunOptions opts;
    opts.cohorts = 2;
    opts.users = 400;
    platform::TypeRunResult r =
        platform::runIsolatedType(variant, type, opts);
    util::setSimThreads(1);

    // Pack the result's fields into the metrics list; doubles computed
    // from identical integer inputs in identical (serial, post-barrier)
    // order must be bit-equal.
    Fingerprint fp;
    fp.responses = r.requests;
    fp.metrics = {
        {"elapsed", r.elapsedSeconds},
        {"throughput", r.throughput},
        {"avg_latency_ms", r.avgLatencyMs},
        {"p99_latency_ms", r.p99LatencyMs},
        {"device_utilization", r.deviceUtilization},
        {"memory_utilization", r.memoryUtilization},
        {"copy_utilization", r.copyUtilization},
        {"simd_efficiency", r.simdEfficiency},
        {"pcie_bytes_per_request",
         static_cast<double>(r.pcieBytesPerRequest)},
        {"dynamic_watts", r.dynamicWatts},
        {"reqs_per_joule_wall", r.reqsPerJouleWall},
    };
    return fp;
}

/** Field-exact fingerprint of a whole-variant (fig8-style) evaluation. */
Fingerprint
runVariant(platform::TitanVariant variant, unsigned threads)
{
    util::setSimThreads(threads);
    variant.server.laneSample = 32;
    platform::IsolatedRunOptions opts;
    opts.cohorts = 1;
    opts.users = 200;
    platform::TitanWorkloadResult r =
        platform::evaluateTitan(variant, opts);
    util::setSimThreads(1);

    Fingerprint fp;
    fp.metrics = {
        {"throughput", r.throughput},
        {"avg_latency_ms", r.avgLatencyMs},
        {"dynamic_watts", r.dynamicWatts},
        {"wall_watts", r.wallWatts},
        {"reqs_per_joule_wall", r.reqsPerJouleWall},
        {"reqs_per_joule_dynamic", r.reqsPerJouleDynamic},
    };
    for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
        const std::string p = "type" + std::to_string(i) + ".";
        fp.metrics.emplace_back(p + "throughput",
                                r.perType[i].throughput);
        fp.metrics.emplace_back(p + "p99_ms", r.perType[i].p99LatencyMs);
        fp.metrics.emplace_back(p + "simd_efficiency",
                                r.perType[i].simdEfficiency);
    }
    return fp;
}

/**
 * One adaptive-batching run under open-loop flash-crowd arrivals
 * (DESIGN.md Section 6i): slack-based early dispatch, priority
 * preemption and deadline-aware admission all active, per-type
 * deadlines on the interactive money-movement types. The adaptive
 * scheduler consults EWMAs fed from cohort completions, so this is the
 * sharpest probe that the parallel engine's completion order stays
 * canonical — a single reordered completion would skew the cost model
 * and change every subsequent dispatch decision.
 *
 * @param with_faults Arms a seeded crash/hang fault plan (kernel hangs
 *        hedged by the watchdog, client disconnects) on top: the
 *        adaptive policy's decisions must stay byte-identical across
 *        thread counts even while cohorts hang and hedge.
 */
Fingerprint
runAdaptiveFlash(unsigned threads, size_t cache_entries = 0,
                 bool with_faults = false)
{
    util::setSimThreads(threads);
    obs::global().reset();

    platform::TitanVariant variant = platform::titanB();
    core::RhythmConfig cfg = variant.server;
    cfg.cohortSize = 512;
    cfg.cohortContexts = 8;
    cfg.laneSample = 64;
    cfg.cohortTimeout = 4 * des::kMillisecond;
    cfg.adaptiveBatching = true;
    cfg.defaultDeadline = 8 * des::kMillisecond;
    if (cache_entries > 0)
        cfg.traceTemplateCacheEntries =
            static_cast<uint32_t>(cache_entries);
    if (with_faults)
        cfg.watchdogTimeout = 5 * des::kMillisecond;
    const uint64_t total = 4 * cfg.cohortSize;
    const uint64_t users = 400;

    des::EventQueue queue;
    obs::global().enable(queue);
    simt::ProfileCache cache(std::max<size_t>(cache_entries, 1));
    simt::Device device(queue, variant.device);
    if (cache_entries > 0)
        device.engine().setProfileCache(&cache);
    backend::BankDb db(users, 42);
    core::BankingService service(db);
    cfg.typeDeadlines.assign(service.numTypes(), 0);
    for (specweb::RequestType t : {specweb::RequestType::Transfer,
                                   specweb::RequestType::PostTransfer,
                                   specweb::RequestType::PostPayee})
        cfg.typeDeadlines[specweb::typeIndex(t)] =
            3 * des::kMillisecond;
    core::RhythmServer server(queue, device, service, cfg);

    std::optional<fault::FaultPlan> plan;
    if (with_faults) {
        fault::FaultConfig fcfg;
        fcfg.seed = 1234;
        // High rates on purpose: the flash run only launches a few
        // dozen cohorts, and the hedge path proves nothing unless a
        // hang actually fires.
        fcfg.at(fault::Site::KernelHang).probability = 0.5;
        fcfg.at(fault::Site::ClientDisconnect).probability = 0.05;
        plan.emplace(fcfg);
        server.setFaultPlan(&*plan);
        fault::installDeviceFaults(device, *plan, queue);
    }

    specweb::WorkloadGenerator gen(db, 42 * 31 + 7);
    auto sessions = server.sessions().populate(
        std::min<uint64_t>(total, 8192), users);

    net::ArrivalConfig acfg;
    acfg.kind = net::ArrivalKind::Flash;
    acfg.rate = 100e3;
    acfg.seed = 9;
    acfg.flashStartSec = 0.005;
    acfg.flashDurationSec = 0.01;
    acfg.flashMultiplier = 8.0;
    net::ArrivalProcess arrivals(acfg);
    uint64_t issued = 0;
    std::function<void()> arrive = [&]() {
        if (issued >= total)
            return;
        specweb::RequestType type;
        do {
            type = gen.sampleType();
        } while (type == specweb::RequestType::Login ||
                 type == specweb::RequestType::Logout);
        const auto &[sid, user] = sessions[issued % sessions.size()];
        server.injectRequest(gen.generate(type, user, sid).raw,
                             issued + 1);
        ++issued;
        if (issued < total)
            queue.scheduleAfter(arrivals.nextGap(), arrive);
    };
    queue.scheduleAfter(arrivals.nextGap(), arrive);
    queue.run();

    Fingerprint fp;
    fp.clock = queue.now();
    fp.dispatched = queue.dispatched();
    fp.orderHash = queue.orderHash();
    fp.responses = server.stats().responsesCompleted;
    fp.errors = server.stats().errorResponses;
    fp.engineLaunches = device.engine().launches();
    fp.engineWarps = device.engine().warps();
    fp.kernelHangs = server.stats().kernelHangs;
    fp.sms = device.engine().smCounters();
    fp.metrics = obs::global().metrics().flatten(
        std::span<const std::string_view>(
            obs::kBaselineExcludedPrefixes));
    std::ostringstream trace;
    obs::global().tracer().writeChromeTrace(trace);
    fp.trace = trace.str();
    fp.cacheStats = cache.stats();

    obs::global().disable();
    obs::global().reset();
    util::setSimThreads(1);
    return fp;
}

/** Per-response FNV-1a, combined with a wrapping sum (order-free). */
uint64_t
responseHash(uint64_t client_id, std::string_view response)
{
    util::Fnv1a64 h;
    h.update(client_id);
    h.update(response.size());
    uint64_t word = 0;
    int shift = 0;
    for (const char c : response) {
        word |= static_cast<uint64_t>(static_cast<unsigned char>(c))
                << shift;
        shift += 8;
        if (shift == 64) {
            h.update(word);
            word = 0;
            shift = 0;
        }
    }
    if (shift > 0)
        h.update(word);
    return h.digest();
}

/**
 * One cross-type cohort-fusion run under open-loop flash-crowd arrivals
 * (DESIGN.md Section 6j), in the completion-independent configuration
 * the fusion byte-equality contract requires: fixed batching, open-loop
 * arrivals and cohort contexts sized so dispatch never waits on a
 * completion. The burst overfills some cohorts and the formation
 * timeout flushes partial ones, so tail warps of several request types
 * coexist — exactly what the fusion packer repacks. The fingerprint
 * additionally carries an order-insensitive digest of every response
 * byte, so fusion on and off can be compared across arms (not just
 * across thread counts).
 *
 * @param burst Flash-crowd arrivals when true; steady Poisson when
 *        false. The flash burst exceeds the reader's drain rate, so
 *        admission (reader drops) becomes timing-dependent — fine for
 *        the across-threads matrix (each arm is compared with itself)
 *        but not for the fusion-on-vs-off byte comparison, which uses
 *        the steady shape where no admission decision ever consults
 *        pipeline state.
 * @param fusion_threshold The packer's minimum pair similarity; above
 *        1 no pair can ever fuse.
 */
Fingerprint
runFusionFlash(unsigned threads, bool fusion, size_t cache_entries = 0,
               bool burst = true, double fusion_threshold = 0.5)
{
    util::setSimThreads(threads);
    obs::global().reset();

    platform::TitanVariant variant = platform::titanB();
    core::RhythmConfig cfg = variant.server;
    cfg.cohortSize = 128;
    cfg.cohortContexts = 256; // ample: dispatch never blocks on release
    cfg.laneSample = 128;
    // The default formation timeout. Tighter timeouts make the cohort
    // chopping sensitive to parser-kernel completion times — the parser
    // shares the device with cohort kernels, so fusing cohorts shifts
    // parse completions — and the on/off byte comparison then compares
    // different cohort compositions. 2 ms leaves formation enough slack
    // that the chopping is identical (the CI digest gate's shape).
    cfg.cohortTimeout = 2 * des::kMillisecond;
    cfg.fusionEnabled = fusion;
    cfg.fusionSimilarityThreshold = fusion_threshold;
    if (cache_entries > 0)
        cfg.traceTemplateCacheEntries =
            static_cast<uint32_t>(cache_entries);
    const uint64_t total = 16 * cfg.cohortSize;
    const uint64_t users = 400;

    des::EventQueue queue;
    obs::global().enable(queue);
    simt::ProfileCache cache(std::max<size_t>(cache_entries, 1));
    simt::Device device(queue, variant.device);
    if (cache_entries > 0)
        device.engine().setProfileCache(&cache);
    backend::BankDb db(users, 42);
    core::BankingService service(db);
    core::RhythmServer server(queue, device, service, cfg);

    Fingerprint fp;
    server.setResponseCallback(
        [&fp](uint64_t client_id, std::string_view response, des::Time) {
            fp.responseDigestSum += responseHash(client_id, response);
        });

    specweb::WorkloadGenerator gen(db, 42 * 31 + 7);
    auto sessions = server.sessions().populate(
        std::min<uint64_t>(total, 8192), users);

    net::ArrivalConfig acfg;
    acfg.kind = burst ? net::ArrivalKind::Flash : net::ArrivalKind::Poisson;
    acfg.rate = 50e3;
    acfg.seed = 9;
    acfg.flashStartSec = 0.005;
    acfg.flashDurationSec = 0.01;
    acfg.flashMultiplier = 8.0;
    net::ArrivalProcess arrivals(acfg);
    uint64_t issued = 0;
    std::function<void()> arrive = [&]() {
        if (issued >= total)
            return;
        specweb::RequestType type;
        do {
            type = gen.sampleType();
        } while (type == specweb::RequestType::Login ||
                 type == specweb::RequestType::Logout);
        const auto &[sid, user] = sessions[issued % sessions.size()];
        server.injectRequest(gen.generate(type, user, sid).raw,
                             issued + 1);
        ++issued;
        if (issued < total)
            queue.scheduleAfter(arrivals.nextGap(), arrive);
    };
    queue.scheduleAfter(arrivals.nextGap(), arrive);
    queue.run();

    fp.clock = queue.now();
    fp.dispatched = queue.dispatched();
    fp.orderHash = queue.orderHash();
    fp.responses = server.stats().responsesCompleted;
    fp.errors = server.stats().errorResponses;
    fp.engineLaunches = device.engine().launches();
    fp.engineWarps = device.engine().warps();
    fp.sms = device.engine().smCounters();
    fp.metrics = obs::global().metrics().flatten(
        std::span<const std::string_view>(
            obs::kBaselineExcludedPrefixes));
    // The flatten excludes warp.fusion.* (baseline-gated), so fold the
    // fusion accounting in explicitly: it too must be thread-invariant.
    fp.metrics.emplace_back(
        "fusion.fused_launches",
        static_cast<double>(server.stats().fusedLaunches));
    fp.metrics.emplace_back(
        "fusion.fused_cohorts",
        static_cast<double>(server.stats().fusedCohorts));
    fp.metrics.emplace_back(
        "fusion.saved_warps",
        static_cast<double>(server.stats().fusionSavedWarps));
    std::ostringstream trace;
    obs::global().tracer().writeChromeTrace(trace);
    fp.trace = trace.str();
    fp.cacheStats = cache.stats();

    obs::global().disable();
    obs::global().reset();
    util::setSimThreads(1);
    return fp;
}

/** The non-banking workloads of rhythm_sim --workload. */
enum class Workload : uint8_t { Chat, Search };

/**
 * One rhythm_sim-shaped chat or search run: a closed-loop pull source
 * of mixed page types, with observability recording. Both services
 * audit every handler stage lane-parallel (DESIGN.md 6f), so their
 * stages fan out over the pool while the backend calls (chat posts
 * mutate the room store) run in the serial per-stage merge. The
 * fingerprint carries a digest of every response byte.
 */
Fingerprint
runService(Workload workload, unsigned threads, size_t cache_entries = 0)
{
    util::setSimThreads(threads);
    obs::global().reset();

    platform::TitanVariant variant = platform::titanB();
    core::RhythmConfig cfg = variant.server;
    cfg.cohortSize = 512;
    cfg.cohortContexts = 8;
    cfg.laneSample = 64;
    if (cache_entries > 0)
        cfg.traceTemplateCacheEntries =
            static_cast<uint32_t>(cache_entries);
    const uint64_t total = 4 * cfg.cohortSize;
    const uint64_t seed = 42;

    // The stores outlive the service that binds them.
    std::unique_ptr<chat::RoomStore> store;
    std::unique_ptr<search::Corpus> corpus;
    std::unique_ptr<search::InvertedIndex> index;
    std::unique_ptr<core::Service> service;
    std::function<std::string()> next;
    if (workload == Workload::Chat) {
        store = std::make_unique<chat::RoomStore>(64, 20, seed);
        auto gen =
            std::make_shared<chat::ChatGenerator>(*store, seed * 13 + 5);
        service = std::make_unique<chat::ChatService>(*store);
        next = [gen]() {
            chat::PageType type;
            return gen->next(type);
        };
    } else {
        corpus = std::make_unique<search::Corpus>(500, 4096, seed);
        index = std::make_unique<search::InvertedIndex>(*corpus);
        auto gen = std::make_shared<search::QueryGenerator>(
            *corpus, seed * 17 + 3);
        service = std::make_unique<search::SearchService>(*index);
        next = [gen]() { return gen->next().raw; };
    }

    des::EventQueue queue;
    obs::global().enable(queue);
    simt::ProfileCache cache(std::max<size_t>(cache_entries, 1));
    simt::Device device(queue, variant.device);
    if (cache_entries > 0)
        device.engine().setProfileCache(&cache);
    core::RhythmServer server(queue, device, *service, cfg);

    Fingerprint fp;
    server.setResponseCallback(
        [&fp](uint64_t client_id, std::string_view response, des::Time) {
            fp.responseDigestSum += responseHash(client_id, response);
        });
    uint64_t issued = 0;
    server.start([&]() -> std::optional<std::string> {
        if (issued >= total)
            return std::nullopt;
        ++issued;
        return next();
    });
    queue.run();

    fp.clock = queue.now();
    fp.dispatched = queue.dispatched();
    fp.orderHash = queue.orderHash();
    fp.responses = server.stats().responsesCompleted;
    fp.errors = server.stats().errorResponses;
    fp.engineLaunches = device.engine().launches();
    fp.engineWarps = device.engine().warps();
    fp.sms = device.engine().smCounters();
    fp.metrics = obs::global().metrics().flatten(
        std::span<const std::string_view>(
            obs::kBaselineExcludedPrefixes));
    std::ostringstream trace;
    obs::global().tracer().writeChromeTrace(trace);
    fp.trace = trace.str();
    fp.cacheStats = cache.stats();

    obs::global().disable();
    obs::global().reset();
    util::setSimThreads(1);
    return fp;
}

/** Looks up one flattened metric; -1 when absent. */
double
metricValue(const Fingerprint &fp, std::string_view name)
{
    for (const auto &[key, value] : fp.metrics)
        if (key == name)
            return value;
    return -1.0;
}

constexpr unsigned kThreadCounts[] = {2, 4, 8};

TEST(ParallelEquivalenceTest, BankingServerRunIsByteIdentical)
{
    const Fingerprint serial = runBanking(1);
    // Sanity: the run did real work through the engine.
    ASSERT_GT(serial.responses, 0u);
    ASSERT_GT(serial.engineWarps, 0u);
    ASSERT_FALSE(serial.metrics.empty());
    ASSERT_FALSE(serial.trace.empty());
    for (unsigned threads : kThreadCounts)
        expectIdentical(serial, runBanking(threads), threads);
}

void
expectSameCacheStats(const simt::ProfileCache::Stats &a,
                     const simt::ProfileCache::Stats &b, unsigned threads)
{
    SCOPED_TRACE("sim-threads=" + std::to_string(threads));
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.intraHits, b.intraHits);
    EXPECT_EQ(a.insertions, b.insertions);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.bytesSaved, b.bytesSaved);
}

TEST(ParallelEquivalenceTest, ProfileCacheOnMatchesCacheOffSerial)
{
    // The determinism contract of DESIGN.md Section 6e: attaching the
    // profile cache changes host wall-clock only. Clock, order hash,
    // metrics and Chrome trace must be byte-identical to the uncached
    // serial run.
    const Fingerprint off = runBanking(1);
    const Fingerprint on = runBanking(1, 4096);
    expectIdentical(off, on, 1);
    // The cache did real work (every simulated warp is inserted).
    EXPECT_GT(on.cacheStats.misses, 0u);
    EXPECT_GT(on.cacheStats.insertions, 0u);
    EXPECT_EQ(off.cacheStats.misses, 0u); // no cache attached
}

TEST(ParallelEquivalenceTest, ProfileCacheOnIsByteIdenticalAcrossThreads)
{
    const Fingerprint serial = runBanking(1, 4096);
    ASSERT_GT(serial.responses, 0u);
    for (unsigned threads : kThreadCounts) {
        const Fingerprint parallel = runBanking(threads, 4096);
        expectIdentical(serial, parallel, threads);
        // Lookups happen on the DES thread in canonical warp order, so
        // even the cache's own accounting is thread-count-invariant.
        expectSameCacheStats(serial.cacheStats, parallel.cacheStats,
                             threads);
    }
}

TEST(ParallelEquivalenceTest, TinyCacheForcingEvictionsStaysIdentical)
{
    // Capacity 1 forces an eviction on nearly every insertion; LRU
    // churn must not leak into simulated outputs at any thread count.
    const Fingerprint off = runBanking(1);
    const Fingerprint tiny = runBanking(1, 1);
    expectIdentical(off, tiny, 1);
    EXPECT_GT(tiny.cacheStats.evictions, 0u);
    for (unsigned threads : kThreadCounts) {
        const Fingerprint parallel = runBanking(threads, 1);
        expectIdentical(off, parallel, threads);
        expectSameCacheStats(tiny.cacheStats, parallel.cacheStats,
                             threads);
    }
}

TEST(ParallelEquivalenceTest, LoginRunIsByteIdentical)
{
    // Login creates a session per request: every cohort ends in the
    // session-store serial stage. The fork/join of lane-parallel stages
    // around that serial stage must leave all outputs canonical.
    const Fingerprint serial = runBanking(1, 0, AuthMode::LoginOnly);
    ASSERT_GT(serial.responses, 0u);
    ASSERT_EQ(serial.errors, 0u);
    for (unsigned threads : kThreadCounts)
        expectIdentical(serial,
                        runBanking(threads, 0, AuthMode::LoginOnly),
                        threads);
}

TEST(ParallelEquivalenceTest, LogoutRunIsByteIdentical)
{
    // Logout destroys a (distinct) session per request — the inverse
    // serial-stage mutation of the session store.
    const Fingerprint serial = runBanking(1, 0, AuthMode::LogoutOnly);
    ASSERT_GT(serial.responses, 0u);
    for (unsigned threads : kThreadCounts)
        expectIdentical(serial,
                        runBanking(threads, 0, AuthMode::LogoutOnly),
                        threads);
}

TEST(ParallelEquivalenceTest, MixedAuthBrowsingRunIsByteIdentical)
{
    // Browsing cohorts (pure lane-parallel stages) interleaved with
    // Login and Logout cohorts (serial session-store stages), with the
    // profile cache both off and on: the full stage-major / serial
    // stage mix of DESIGN.md Section 6f at every thread count.
    const Fingerprint serial = runBanking(1, 0, AuthMode::Mixed);
    ASSERT_GT(serial.responses, 0u);
    for (unsigned threads : kThreadCounts)
        expectIdentical(serial, runBanking(threads, 0, AuthMode::Mixed),
                        threads);

    const Fingerprint cached = runBanking(1, 4096, AuthMode::Mixed);
    expectIdentical(serial, cached, 1);
    EXPECT_GT(cached.cacheStats.insertions, 0u);
    for (unsigned threads : kThreadCounts) {
        const Fingerprint parallel =
            runBanking(threads, 4096, AuthMode::Mixed);
        expectIdentical(serial, parallel, threads);
        expectSameCacheStats(cached.cacheStats, parallel.cacheStats,
                             threads);
    }
}

TEST(ParallelEquivalenceTest, AdaptiveFlashRunIsByteIdentical)
{
    // Adaptive batching under an open-loop flash crowd: every
    // scheduling decision flows through completion-fed EWMAs, so this
    // run is maximally sensitive to any non-canonical completion
    // order in the parallel engine.
    const Fingerprint serial = runAdaptiveFlash(1);
    ASSERT_GT(serial.responses, 0u);
    // The adaptive machinery must actually have engaged, or the matrix
    // proves nothing.
    EXPECT_GT(metricValue(serial, "adaptive.early_dispatches"), 0.0);
    for (unsigned threads : kThreadCounts)
        expectIdentical(serial, runAdaptiveFlash(threads), threads);
}

TEST(ParallelEquivalenceTest, AdaptiveFlashWithCacheIsByteIdentical)
{
    // The profile cache must stay wall-clock-only under the adaptive
    // policy too: cache-on output identical to cache-off, at every
    // thread count, with thread-invariant cache accounting.
    const Fingerprint off = runAdaptiveFlash(1);
    const Fingerprint cached = runAdaptiveFlash(1, 4096);
    expectIdentical(off, cached, 1);
    EXPECT_GT(cached.cacheStats.insertions, 0u);
    for (unsigned threads : kThreadCounts) {
        const Fingerprint parallel = runAdaptiveFlash(threads, 4096);
        expectIdentical(off, parallel, threads);
        expectSameCacheStats(cached.cacheStats, parallel.cacheStats,
                             threads);
    }
}

TEST(ParallelEquivalenceTest, AdaptiveFlashUnderFaultsIsByteIdentical)
{
    // Crash/hang chaos on top of the adaptive flash run: hedged
    // cohorts complete through the watchdog path and disconnected
    // clients vanish mid-pipeline, yet the adaptive cost model — and
    // with it every dispatch decision — must stay byte-identical
    // across thread counts.
    const Fingerprint serial = runAdaptiveFlash(1, 0, true);
    ASSERT_GT(serial.responses, 0u);
    EXPECT_GT(serial.kernelHangs, 0u);
    for (unsigned threads : kThreadCounts)
        expectIdentical(serial, runAdaptiveFlash(threads, 0, true),
                        threads);
}

TEST(ParallelEquivalenceTest, FusionFlashRunIsByteIdentical)
{
    // Cross-type cohort fusion under the flash crowd: lane packing,
    // fused command building and the follower delivery loop all run on
    // top of the parallel engine, and every output — including the
    // fusion accounting itself — must stay canonical across threads.
    const Fingerprint serial = runFusionFlash(1, true);
    ASSERT_GT(serial.responses, 0u);
    // The packer must actually have fused, or the matrix proves nothing.
    ASSERT_GT(metricValue(serial, "fusion.fused_launches"), 0.0);
    ASSERT_GT(metricValue(serial, "fusion.saved_warps"), 0.0);
    for (unsigned threads : kThreadCounts)
        expectIdentical(serial, runFusionFlash(threads, true), threads);
}

TEST(ParallelEquivalenceTest, FusionOnMatchesFusionOffResponses)
{
    // The §6j determinism contract: in the completion-independent
    // configuration (steady open-loop arrivals, fixed batching, ample
    // contexts), fusing cohorts changes pipeline timing but not a
    // single response byte. Compared via the order-insensitive digest,
    // across arms and thread counts.
    const Fingerprint off = runFusionFlash(1, false, 0, false);
    const Fingerprint on = runFusionFlash(1, true, 0, false);
    ASSERT_GT(off.responses, 0u);
    EXPECT_EQ(on.responses, off.responses);
    EXPECT_EQ(on.errors, off.errors);
    EXPECT_EQ(on.responseDigestSum, off.responseDigestSum);
    // Fusion did real work while leaving the bytes alone.
    EXPECT_GT(metricValue(on, "fusion.fused_cohorts"), 0.0);
    EXPECT_EQ(metricValue(off, "fusion.fused_launches"), 0.0);
    for (unsigned threads : kThreadCounts) {
        SCOPED_TRACE("sim-threads=" + std::to_string(threads));
        EXPECT_EQ(runFusionFlash(threads, true, 0, false)
                      .responseDigestSum,
                  off.responseDigestSum);
    }
}

TEST(ParallelEquivalenceTest, FusionWithCacheIsByteIdentical)
{
    // Mixed-type warps reach the profile cache under tag-aware
    // fingerprints: the cache must stay wall-clock-only (identical
    // outputs to the uncached fusion run) with thread-invariant
    // accounting.
    const Fingerprint uncached = runFusionFlash(1, true);
    const Fingerprint cached = runFusionFlash(1, true, 4096);
    expectIdentical(uncached, cached, 1);
    EXPECT_GT(cached.cacheStats.insertions, 0u);
    for (unsigned threads : kThreadCounts) {
        const Fingerprint parallel = runFusionFlash(threads, true, 4096);
        expectIdentical(uncached, parallel, threads);
        expectSameCacheStats(cached.cacheStats, parallel.cacheStats,
                             threads);
    }
}

TEST(ParallelEquivalenceTest, UnfusableFusionOnMatchesFusionOff)
{
    // A plain launch is a fused group of one (DESIGN.md 6j). With a
    // similarity threshold above 1 no pair can fuse, so fusion on
    // begins every cohort of a scan instant before building any
    // group's command sequence, yet launches each cohort alone. That
    // must reproduce fusion off in the whole fingerprint: dispatch
    // order and order hash, responses, trace and every metric (the
    // flatten already excludes the warp.fusion.* counters).
    const Fingerprint off = runFusionFlash(1, false);
    ASSERT_GT(off.responses, 0u);
    for (unsigned threads : {1u, 8u}) {
        const Fingerprint on = runFusionFlash(threads, true, 0, true, 2.0);
        EXPECT_EQ(metricValue(on, "fusion.fused_launches"), 0.0);
        expectIdentical(off, on, threads);
    }
    // Sanity, run last because obs::reset() keeps metric registrations:
    // at the default threshold the same arrivals do fuse, so the run
    // has scan instants that launch several cohorts at once.
    EXPECT_GT(metricValue(runFusionFlash(1, true), "fusion.fused_launches"),
              0.0);
}

/** Byte-identity of one service's runs at 1, 2 and 8 threads, profile
 *  cache off and on. */
void
expectServiceRunsIdentical(Workload workload)
{
    const Fingerprint serial = runService(workload, 1);
    ASSERT_GT(serial.responses, 0u);
    ASSERT_FALSE(serial.trace.empty());
    for (size_t cache_entries : {size_t{0}, size_t{4096}}) {
        SCOPED_TRACE("profile-cache entries=" +
                     std::to_string(cache_entries));
        for (unsigned threads : {1u, 2u, 8u}) {
            if (cache_entries == 0 && threads == 1)
                continue;
            expectIdentical(serial,
                            runService(workload, threads, cache_entries),
                            threads);
        }
    }
}

TEST(ParallelEquivalenceTest, ChatRunIsByteIdentical)
{
    expectServiceRunsIdentical(Workload::Chat);
}

TEST(ParallelEquivalenceTest, SearchRunIsByteIdentical)
{
    expectServiceRunsIdentical(Workload::Search);
}

TEST(ParallelEquivalenceTest, Fig9SizedTitanARunIsIdentical)
{
    // Titan A is the PCIe-bound configuration of Figure 9.
    const auto variant = platform::titanA();
    const specweb::RequestType type = specweb::typeTable()[0].type;
    const Fingerprint serial = runIsolated(variant, type, 1);
    ASSERT_GT(serial.responses, 0u);
    for (unsigned threads : kThreadCounts)
        expectIdentical(serial, runIsolated(variant, type, threads),
                        threads);
}

TEST(ParallelEquivalenceTest, Sec62SizedTitanCRunIsIdentical)
{
    // Titan C is the section 6.2 scaling configuration.
    const auto variant = platform::titanC();
    const specweb::RequestType type = specweb::typeTable()[1].type;
    const Fingerprint serial = runIsolated(variant, type, 1);
    ASSERT_GT(serial.responses, 0u);
    for (unsigned threads : kThreadCounts)
        expectIdentical(serial, runIsolated(variant, type, threads),
                        threads);
}

TEST(ParallelEquivalenceTest, Fig8SizedVariantEvaluationIsIdentical)
{
    // The full per-type fan-out of the fig8 evaluation: nine isolated
    // simulations run concurrently on the pool, merged in type order.
    const auto variant = platform::titanB();
    const Fingerprint serial = runVariant(variant, 1);
    for (unsigned threads : kThreadCounts)
        expectIdentical(serial, runVariant(variant, threads), threads);
}

// ---- Multi-device fleet equivalence (DESIGN.md 6k) -------------------
// The per-device event streams merge canonically, so a sharded run is
// as deterministic as a single-device one: byte-identical responses,
// metrics (per-device namespaces included), trace, dispatch order and
// order hash across --sim-threads — and across profile-cache on/off.

TEST(ParallelEquivalenceTest, TwoDeviceFleetIsByteIdentical)
{
    const Fingerprint serial = runFleet(1, 2);
    EXPECT_GT(serial.responses, 0u);
    for (unsigned threads : {2u, 8u})
        expectIdentical(serial, runFleet(threads, 2), threads);
}

TEST(ParallelEquivalenceTest, FourDeviceFleetIsByteIdentical)
{
    const Fingerprint serial = runFleet(1, 4);
    EXPECT_GT(serial.responses, 0u);
    for (unsigned threads : {2u, 8u})
        expectIdentical(serial, runFleet(threads, 4), threads);
}

TEST(ParallelEquivalenceTest, FleetWithProfileCacheIsByteIdentical)
{
    // Per-device caches must not perturb anything simulated, serial or
    // parallel — and the cache-off and cache-on runs must deliver the
    // same response bytes.
    const Fingerprint off = runFleet(1, 2);
    const Fingerprint on = runFleet(1, 2, 512);
    EXPECT_EQ(off.responseDigestSum, on.responseDigestSum);
    EXPECT_EQ(off.orderHash, on.orderHash);
    expectIdentical(on, runFleet(8, 2, 512), 8);
}

} // namespace
} // namespace rhythm
