/**
 * @file
 * perfbench_runner: host cost of the Rhythm simulator on four banking
 * workloads, with per-layer attribution.
 *
 * One invocation runs one workload (Titan B preset) for a time budget.
 * Each iteration builds the simulation from scratch (the timed set-up),
 * generates the workload's inputs from the seed (untimed), then serves
 * them (the timed serving section). Iterations repeat until the budget
 * is spent so host times can be reported as medians. Every iteration's
 * simulated outputs must be identical: the simulator is deterministic.
 *
 * With --trace 1 the runner alternates untraced and traced iterations.
 * A traced iteration enables the program's own observability layer,
 * wraps the banking service in a timing decorator and times every call
 * the benchmark makes into the simulator. Layers the server calls
 * internally (parser, warp simulation, coalescer, engine, device) are
 * then replayed on inputs regenerated from the same seed and scaled by
 * the traced run's exact counts.
 *
 * The result is one JSON object on stdout. perfbench/run.py builds this
 * program, runs it and reduces the object to the benchmark's metrics.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/similarity.hh"
#include "backend/bankdb.hh"
#include "des/event_queue.hh"
#include "http/parser.hh"
#include "net/arrival.hh"
#include "obs/json.hh"
#include "obs/obs.hh"
#include "platform/titan.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/fleet.hh"
#include "rhythm/server.hh"
#include "simt/device.hh"
#include "simt/engine.hh"
#include "simt/profile_cache.hh"
#include "simt/warp.hh"
#include "specweb/static_content.hh"
#include "specweb/types.hh"
#include "specweb/workload.hh"
#include "util/hash.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace rhythm;
using Clock = std::chrono::steady_clock;

constexpr uint32_t kCohortSize = 4096;
constexpr size_t kCacheEntries = 4096;
/** Requests of the run kept for the parser replay. */
constexpr uint64_t kParseReplayRequests = 4096;
constexpr uint32_t kLaneSample = 128;
constexpr double kArrivalRate = 4e6;
constexpr double kCrossShardShare = 0.005;
constexpr uint64_t kCheckpointInterval = 4096;
/** Iterations stop starting after this much wall time (exit < 180 s). */
constexpr double kHardCapSeconds = 150.0;

/** One benchmark workload (see perfbench/README.md for the why). */
struct Workload
{
    const char *name;
    uint64_t users;
    /** Requests = cohorts x kCohortSize. */
    uint32_t cohorts;
    /** Cohorts at --size tiny (the self-test). */
    uint32_t tinyCohorts;
    /** Account summary over a cycling session pool (else the mix). */
    bool summaryOnly;
    /** > 1: an open-loop fleet with session-hash routing. */
    uint32_t devices;
    unsigned simThreads;
};

constexpr Workload kWorkloads[] = {
    {"mix_1dev", 2000, 16, 2, false, 1, 1},
    {"summary_repeat", 2000, 48, 3, true, 1, 1},
    {"fleet4_open", 2000, 12, 2, false, 4, 2},
    {"mix_bigdb", 100000, 2, 1, false, 1, 1},
};

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t
nanosSince(Clock::time_point start)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Host-time accumulators of the calls the benchmark makes (traced). */
struct Spans
{
    std::atomic<uint64_t> injectNs{0};
    std::atomic<uint64_t> handlerNs{0};
    std::atomic<uint64_t> handlerCalls{0};
    std::atomic<uint64_t> backendNs{0};
    std::atomic<uint64_t> backendCalls{0};
    std::atomic<uint64_t> respondNs{0};
};

/**
 * Times one call into a layer and adds it to an accumulator; a null
 * accumulator (untraced iterations) reads no clock.
 */
class SpanTimer
{
  public:
    explicit SpanTimer(std::atomic<uint64_t> *sink) : sink_(sink)
    {
        if (sink_)
            start_ = Clock::now();
    }
    ~SpanTimer()
    {
        if (sink_)
            sink_->fetch_add(nanosSince(start_), std::memory_order_relaxed);
    }
    SpanTimer(const SpanTimer &) = delete;
    SpanTimer &operator=(const SpanTimer &) = delete;

  private:
    std::atomic<uint64_t> *sink_;
    Clock::time_point start_;
};

/**
 * Forwarding core::Service that times the handler stages and backend
 * calls the server makes through the service interface.
 */
class TimedService final : public core::Service
{
  public:
    TimedService(core::Service &inner, Spans &spans)
        : inner_(inner), spans_(spans)
    {
    }

    uint32_t numTypes() const override { return inner_.numTypes(); }

    bool
    resolveType(const http::Request &request,
                uint32_t &type_id) const override
    {
        return inner_.resolveType(request, type_id);
    }

    std::string_view
    typeName(uint32_t type_id) const override
    {
        return inner_.typeName(type_id);
    }

    int numStages(uint32_t type_id) const override
    {
        return inner_.numStages(type_id);
    }

    uint32_t
    responseBufferBytes(uint32_t type_id) const override
    {
        return inner_.responseBufferBytes(type_id);
    }

    void
    runStage(uint32_t type_id, int stage,
             specweb::HandlerContext &ctx) const override
    {
        spans_.handlerCalls.fetch_add(1, std::memory_order_relaxed);
        SpanTimer t(&spans_.handlerNs);
        inner_.runStage(type_id, stage, ctx);
    }

    bool
    stageIsLaneParallel(uint32_t type_id, int stage) const override
    {
        return inner_.stageIsLaneParallel(type_id, stage);
    }

    std::string
    executeBackend(std::string_view request,
                   simt::TraceRecorder &rec) override
    {
        spans_.backendCalls.fetch_add(1, std::memory_order_relaxed);
        SpanTimer t(&spans_.backendNs);
        return inner_.executeBackend(request, rec);
    }

    std::string
    executeBackend(std::string_view request, uint64_t token,
                   simt::TraceRecorder &rec) override
    {
        spans_.backendCalls.fetch_add(1, std::memory_order_relaxed);
        SpanTimer t(&spans_.backendNs);
        return inner_.executeBackend(request, token, rec);
    }

    bool backendExactlyOnce() const override
    {
        return inner_.backendExactlyOnce();
    }

    uint32_t backendRequestSlotBytes() const override
    {
        return inner_.backendRequestSlotBytes();
    }

    uint32_t backendResponseSlotBytes() const override
    {
        return inner_.backendResponseSlotBytes();
    }

    std::optional<std::string>
    serveFallback(const http::Request &request,
                  specweb::SessionProvider &sessions,
                  simt::TraceRecorder &rec) override
    {
        return inner_.serveFallback(request, sessions, rec);
    }

  private:
    core::Service &inner_;
    Spans &spans_;
};

/** A cross-shard transfer started alongside one open-loop arrival. */
struct CrossTransfer
{
    uint64_t payer = 0;
    uint64_t payee = 0;
    int64_t cents = 0;
};

/** The generated inputs of one iteration, indexed by client id - 1. */
struct Inputs
{
    std::vector<std::string> raw;
    std::vector<specweb::RequestType> type;
    std::vector<uint64_t> user;
    /** Open loop: gap before each arrival. */
    std::vector<des::Time> gap;
    /** Open loop: the transfer started with each arrival (cents 0 = none). */
    std::vector<CrossTransfer> cross;
};

specweb::RequestType
sampleMixType(specweb::WorkloadGenerator &gen)
{
    // The browsing steady state: logins and logouts churn the session
    // pool, so they are left out as rhythm_sim's mixed mode does.
    specweb::RequestType type;
    do {
        type = gen.sampleType();
    } while (type == specweb::RequestType::Login ||
             type == specweb::RequestType::Logout);
    return type;
}

/**
 * Digest, latency samples and validation of every delivered response.
 * The digest is rhythm_sim's --digest-out scheme: per-response FNV-1a
 * over (client id, length, bytes) combined by a wrapping sum, so it is
 * independent of completion order.
 */
struct ResponseLog
{
    const Inputs *inputs = nullptr;
    uint64_t digest = 0;
    uint64_t count = 0;
    uint64_t validated = 0;
    uint64_t invalid = 0;
    Histogram latencyMs;

    void
    add(uint64_t client_id, std::string_view response, des::Time latency)
    {
        util::Fnv1a64 h;
        h.update(client_id);
        h.update(response.size());
        // Whole little-endian words, then the zero-padded tail: the same
        // words rhythm_sim assembles byte by byte.
        static_assert(std::endian::native == std::endian::little);
        size_t i = 0;
        for (; i + 8 <= response.size(); i += 8) {
            uint64_t word = 0;
            std::memcpy(&word, response.data() + i, 8);
            h.update(word);
        }
        if (i < response.size()) {
            uint64_t word = 0;
            std::memcpy(&word, response.data() + i, response.size() - i);
            h.update(word);
        }
        digest += h.digest();
        ++count;
        latencyMs.add(des::toMillis(latency));
        // Only executed lanes carry content; the others are empty.
        // Validating one client in eight keeps the check's host cost a
        // small share of the serving section.
        if (response.empty() || client_id % 8 != 0)
            return;
        ++validated;
        const uint64_t index = client_id - 1;
        if (index >= inputs->type.size() ||
            !specweb::validateResponse(inputs->type[index], response).ok)
            ++invalid;
    }
};

/** Simulated outputs of one iteration; identical across iterations. */
struct SimResult
{
    uint64_t digest = 0;
    uint64_t delivered = 0;
    uint64_t attempted = 0;
    uint64_t responses = 0;
    uint64_t errors = 0;
    uint64_t shed = 0;
    uint64_t refused = 0;
    uint64_t invalid = 0;
    uint64_t validated = 0;
    double simSeconds = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    uint64_t latencySamples = 0;
    double simdEfficiency = 0.0;
    uint64_t events = 0;
    uint64_t orderHash = 0;
    bool conserved = true;
    bool moneyConserved = true;

    bool operator==(const SimResult &) const = default;
};

/** Exact per-layer counts read from public stats after the run. */
struct LayerCounts
{
    uint64_t launches = 0;
    uint64_t warps = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t cohorts = 0;
    uint64_t cohortSlots = 0;
    uint64_t kernels = 0;
    uint64_t copies = 0;
    uint64_t copyBytes = 0;
    uint64_t backendRequests = 0;
    uint64_t crossCompleted = 0;
    /** Summed lane trace lengths over all warps (simulated or cached). */
    uint64_t laneBlockExecs = 0;
    uint64_t accepted = 0;
    uint64_t parserBatches = 0;
};

/** Everything one iteration measured. */
struct Iteration
{
    bool traced = false;
    double setupS = 0.0;
    double setupDbS = 0.0;
    double serveS = 0.0;
    double cpuS = 0.0;
    double desRunS = 0.0;
    double emitS = 0.0;
    SimResult sim;
    LayerCounts counts;
    uint64_t injectNs = 0;
    uint64_t handlerNs = 0;
    uint64_t handlerCalls = 0;
    uint64_t backendNs = 0;
    uint64_t backendCalls = 0;
    uint64_t respondNs = 0;
};

/** Options shared by every iteration of one invocation. */
struct RunOptions
{
    const Workload *workload = nullptr;
    uint64_t seed = 1;
    uint32_t cohorts = 0;
    std::string tracePath;
};

core::RhythmConfig
serverConfig(const Workload &w, const platform::TitanVariant &variant)
{
    core::RhythmConfig cfg = variant.server;
    cfg.laneSample = kLaneSample;
    cfg.traceTemplateCacheEntries = kCacheEntries;
    cfg.cohortSize = kCohortSize;
    // rhythm_sim's default for a mixed workload: about one context per
    // request type in flight.
    if (!w.summaryOnly)
        cfg.cohortContexts = 16;
    return cfg;
}

uint64_t
laneBlockExecs(const simt::Engine &engine)
{
    uint64_t total = 0;
    for (const simt::Engine::SmCounters &sm : engine.smCounters())
        total += sm.stats.laneBlockExecs;
    return total;
}

void
copySpans(const Spans &spans, Iteration &it)
{
    it.injectNs = spans.injectNs.load();
    it.handlerNs = spans.handlerNs.load();
    it.handlerCalls = spans.handlerCalls.load();
    it.backendNs = spans.backendNs.load();
    it.backendCalls = spans.backendCalls.load();
    it.respondNs = spans.respondNs.load();
}

/** Writes the program's Chrome trace; returns the seconds it took. */
double
emitChromeTrace(const std::string &path)
{
    const auto start = Clock::now();
    if (!path.empty()) {
        std::ofstream out(path);
        obs::global().tracer().writeChromeTrace(out);
        out << "\n";
        if (!out.good())
            std::cerr << "warning: cannot write trace file " << path << "\n";
    }
    return secondsSince(start);
}

void
finishTracing()
{
    obs::global().disable();
    obs::global().reset();
    obs::global().clearDeviceBindings();
}

void
fillFromLog(const ResponseLog &log, SimResult &sim)
{
    sim.digest = log.digest;
    sim.delivered = log.count;
    sim.invalid = log.invalid;
    sim.validated = log.validated;
    sim.p50Ms = log.latencyMs.median();
    sim.p99Ms = log.latencyMs.percentile(99);
    sim.latencySamples = log.latencyMs.count();
}

/** One single-device, closed-loop iteration (mix or account summary). */
Iteration
runSingle(const RunOptions &opt, bool traced,
          std::vector<std::string> *sample_raws)
{
    const Workload &w = *opt.workload;
    Iteration it;
    it.traced = traced;
    platform::TitanVariant variant = platform::titanB();
    const core::RhythmConfig cfg = serverConfig(w, variant);
    const uint64_t total = static_cast<uint64_t>(opt.cohorts) * cfg.cohortSize;

    // ---- Set-up (timed) ----------------------------------------------
    const auto setup_start = Clock::now();
    backend::BankDb db(w.users, opt.seed);
    it.setupDbS = secondsSince(setup_start);
    des::EventQueue queue;
    if (traced)
        obs::global().enable(queue);
    simt::ProfileCache cache(kCacheEntries);
    simt::Device device(queue, variant.device);
    device.engine().setProfileCache(&cache);
    core::BankingService banking(db);
    Spans spans;
    std::optional<TimedService> timed;
    if (traced)
        timed.emplace(banking, spans);
    core::Service &service =
        traced ? static_cast<core::Service &>(*timed) : banking;
    core::RhythmServer server(queue, device, service, cfg);
    specweb::StaticContent content(32, opt.seed);
    if (!w.summaryOnly)
        server.setStaticContent(&content);
    const auto sessions = server.sessions().populate(
        std::min<uint64_t>(total, 8192), w.users);
    it.setupS = secondsSince(setup_start);

    // ---- Inputs (untimed): generated from the seed -------------------
    Inputs in;
    {
        specweb::WorkloadGenerator gen(
            db, w.summaryOnly ? opt.seed * 977 + 13 : opt.seed * 31 + 7);
        in.raw.reserve(total);
        in.type.reserve(total);
        for (uint64_t i = 0; i < total; ++i) {
            const specweb::RequestType type =
                w.summaryOnly ? specweb::RequestType::AccountSummary
                              : sampleMixType(gen);
            const auto &[sid, user] = sessions[i % sessions.size()];
            in.raw.push_back(gen.generate(type, user, sid).raw);
            in.type.push_back(type);
        }
    }
    if (sample_raws)
        sample_raws->assign(in.raw.begin(),
                            in.raw.begin() +
                                static_cast<long>(std::min<uint64_t>(
                                    total, kParseReplayRequests)));

    ResponseLog log;
    log.inputs = &in;
    std::atomic<uint64_t> *respond_ns = traced ? &spans.respondNs : nullptr;
    server.setResponseCallback([&](uint64_t client_id,
                                   std::string_view response,
                                   des::Time latency) {
        SpanTimer t(respond_ns);
        log.add(client_id, response, latency);
    });

    // ---- Serving (timed) ---------------------------------------------
    uint64_t issued = 0;
    std::atomic<uint64_t> *inject_ns = traced ? &spans.injectNs : nullptr;
    const double cpu_start = processCpuSeconds();
    const auto serve_start = Clock::now();
    server.start([&]() -> std::optional<std::string> {
        SpanTimer t(inject_ns);
        if (issued >= total)
            return std::nullopt;
        return std::move(in.raw[issued++]);
    });
    const auto run_start = Clock::now();
    queue.run();
    it.desRunS = secondsSince(run_start);
    it.serveS = secondsSince(serve_start);
    it.cpuS = processCpuSeconds() - cpu_start;

    if (traced) {
        it.emitS = emitChromeTrace(opt.tracePath);
        finishTracing();
        copySpans(spans, it);
    }

    // ---- Outputs -----------------------------------------------------
    const core::RhythmStats &st = server.stats();
    SimResult &sim = it.sim;
    fillFromLog(log, sim);
    sim.attempted = total;
    sim.responses = st.responsesCompleted;
    sim.errors = st.errorResponses;
    sim.shed = st.requestsShed;
    sim.simSeconds = des::toSeconds(queue.now());
    sim.simdEfficiency =
        st.processIssueSlots > 0
            ? st.processLaneInstructions / (st.processIssueSlots * 32.0)
            : 0.0;
    sim.events = queue.dispatched();
    sim.orderHash = queue.orderHash();
    sim.conserved = st.requestsAccepted ==
                        st.responsesCompleted + st.errorResponses +
                            st.requestsShed &&
                    st.requestsAccepted == total && server.drained() &&
                    log.count == st.responsesCompleted + st.errorResponses;

    LayerCounts &c = it.counts;
    const simt::Device::Stats ds = device.stats();
    c.launches = device.engine().launches();
    c.warps = device.engine().warps();
    c.cacheHits = cache.stats().hits + cache.stats().intraHits;
    c.cacheMisses = cache.stats().misses;
    c.cohorts = st.cohortsLaunched;
    c.cohortSlots = st.cohortsLaunched * cfg.cohortSize;
    c.kernels = ds.kernelsLaunched;
    c.copies = ds.copiesToDevice + ds.copiesToHost;
    c.copyBytes = ds.bytesToDevice + ds.bytesToHost;
    c.backendRequests = st.backendRequests;
    c.laneBlockExecs = laneBlockExecs(device.engine());
    c.accepted = st.requestsAccepted;
    c.parserBatches = st.parserBatches;
    return it;
}

/** Money held by the authoritative shard copies, plus bills paid out. */
int64_t
fleetMoney(core::Fleet &fleet, uint64_t users)
{
    int64_t total = 0;
    for (uint64_t u = 1; u <= users; ++u) {
        backend::BankDb &db = fleet.db(fleet.homeShard(u));
        for (const backend::Account *a : db.accounts(u))
            total += a->balanceCents;
        for (const backend::BillPayment *p :
             db.billPayments(u, 0, UINT32_MAX))
            total += p->amountCents;
    }
    return total;
}

/** One open-loop 4-device fleet iteration. */
Iteration
runFleet(const RunOptions &opt, bool traced,
         std::vector<std::string> *sample_raws)
{
    const Workload &w = *opt.workload;
    Iteration it;
    it.traced = traced;
    platform::TitanVariant variant = platform::titanB();
    const core::RhythmConfig cfg = serverConfig(w, variant);
    const uint64_t total = static_cast<uint64_t>(opt.cohorts) * cfg.cohortSize;

    // The front end's copy of the database only feeds the input
    // generator; its build is identical to each shard's, so it times
    // the database share of the fleet's set-up.
    const auto db_start = Clock::now();
    backend::BankDb front_db(w.users, opt.seed);
    it.setupDbS = secondsSince(db_start) * w.devices;

    // ---- Set-up (timed) ----------------------------------------------
    const auto setup_start = Clock::now();
    des::EventQueue queue;
    if (traced)
        obs::global().enable(queue);
    core::FleetConfig fc;
    fc.devices = w.devices;
    fc.recovery = true;
    fc.checkpointInterval = kCheckpointInterval;
    core::Fleet fleet(queue, variant.device, cfg, fc, w.users, opt.seed);
    specweb::StaticContent content(32, opt.seed);
    fleet.setStaticContent(&content);
    std::vector<std::unique_ptr<simt::ProfileCache>> caches;
    for (uint32_t i = 0; i < fleet.devices(); ++i) {
        caches.push_back(std::make_unique<simt::ProfileCache>(kCacheEntries));
        fleet.device(i).engine().setProfileCache(caches.back().get());
    }
    const uint64_t per_shard = std::max<uint64_t>(
        std::min<uint64_t>(total, 8192) / fc.devices, 1);
    const auto &pools = fleet.populateSessions(per_shard, w.users);
    it.setupS = secondsSince(setup_start);

    // ---- Inputs (untimed) --------------------------------------------
    // Round-robin interleave of the per-shard pools so consecutive
    // arrivals spread over the fleet, as rhythm_sim does.
    std::vector<std::pair<uint64_t, uint64_t>> flat;
    size_t longest = 0;
    for (const auto &p : pools)
        longest = std::max(longest, p.size());
    for (size_t k = 0; k < longest; ++k)
        for (const auto &p : pools)
            if (k < p.size())
                flat.push_back(p[k]);
    Inputs in;
    {
        specweb::WorkloadGenerator gen(front_db, opt.seed * 31 + 7);
        net::ArrivalConfig acfg;
        acfg.kind = net::ArrivalKind::Poisson;
        acfg.rate = kArrivalRate;
        acfg.seed = opt.seed;
        net::ArrivalProcess arrivals(acfg);
        const uint64_t cross_every = static_cast<uint64_t>(
            1.0 / kCrossShardShare + 0.5);
        for (uint64_t i = 0; i < total; ++i) {
            in.gap.push_back(arrivals.nextGap());
            const specweb::RequestType type = sampleMixType(gen);
            const auto &[sid, user] = flat[i % flat.size()];
            in.raw.push_back(gen.generate(type, user, sid).raw);
            in.type.push_back(type);
            in.user.push_back(user);
            CrossTransfer x;
            if ((i + 1) % cross_every == 0) {
                x.payer = gen.sampleUser();
                x.payee = gen.sampleUser();
                x.cents = 100 + static_cast<int64_t>((i + 1) % 32) * 25;
            }
            in.cross.push_back(x);
        }
    }
    if (sample_raws)
        sample_raws->assign(in.raw.begin(),
                            in.raw.begin() +
                                static_cast<long>(std::min<uint64_t>(
                                    total, kParseReplayRequests)));
    const int64_t money_before = fleetMoney(fleet, w.users);

    ResponseLog log;
    log.inputs = &in;
    Spans spans;
    std::atomic<uint64_t> *respond_ns = traced ? &spans.respondNs : nullptr;
    fleet.setResponseCallback([&](uint64_t client_id,
                                  std::string_view response,
                                  des::Time latency) {
        SpanTimer t(respond_ns);
        log.add(client_id, response, latency);
    });

    // ---- Serving (timed) ---------------------------------------------
    uint64_t issued = 0;
    uint64_t refused = 0;
    std::atomic<uint64_t> *inject_ns = traced ? &spans.injectNs : nullptr;
    std::function<void()> arrive = [&]() {
        {
            SpanTimer t(inject_ns);
            const uint64_t i = issued++;
            if (!fleet.injectRequest(std::move(in.raw[i]), i + 1,
                                     in.user[i],
                                     static_cast<uint32_t>(in.type[i])))
                ++refused;
            const CrossTransfer &x = in.cross[i];
            if (x.cents)
                fleet.beginCrossShardTransfer(x.payer, x.payee, x.cents);
        }
        if (issued < total)
            queue.scheduleAfter(in.gap[issued], arrive);
    };
    const double cpu_start = processCpuSeconds();
    const auto serve_start = Clock::now();
    queue.scheduleAfter(in.gap[0], arrive);
    queue.run();
    it.desRunS = secondsSince(serve_start);
    it.serveS = it.desRunS;
    it.cpuS = processCpuSeconds() - cpu_start;

    if (traced) {
        it.emitS = emitChromeTrace(opt.tracePath);
        finishTracing();
        copySpans(spans, it);
    }

    // ---- Outputs -----------------------------------------------------
    SimResult &sim = it.sim;
    fillFromLog(log, sim);
    sim.attempted = total;
    sim.responses = fleet.totalResponses();
    sim.errors = fleet.totalErrors();
    sim.shed = fleet.totalShed();
    sim.refused = refused;
    sim.simSeconds = des::toSeconds(queue.now());
    double lane_insts = 0.0;
    double issue_slots = 0.0;
    LayerCounts &c = it.counts;
    for (uint32_t i = 0; i < fleet.devices(); ++i) {
        const core::RhythmStats &st = fleet.server(i).stats();
        lane_insts += st.processLaneInstructions;
        issue_slots += st.processIssueSlots;
        sim.conserved = sim.conserved &&
                        st.requestsAccepted == st.responsesCompleted +
                                                   st.errorResponses +
                                                   st.requestsShed;
        const simt::Device &dev = fleet.device(i);
        const simt::Device::Stats ds = dev.stats();
        c.launches += dev.engine().launches();
        c.warps += dev.engine().warps();
        c.cacheHits += caches[i]->stats().hits + caches[i]->stats().intraHits;
        c.cacheMisses += caches[i]->stats().misses;
        c.cohorts += st.cohortsLaunched;
        c.cohortSlots += st.cohortsLaunched * cfg.cohortSize;
        c.kernels += ds.kernelsLaunched;
        c.copies += ds.copiesToDevice + ds.copiesToHost;
        c.copyBytes += ds.bytesToDevice + ds.bytesToHost;
        c.backendRequests += st.backendRequests;
        c.laneBlockExecs += laneBlockExecs(dev.engine());
        c.accepted += st.requestsAccepted;
        c.parserBatches += st.parserBatches;
    }
    sim.simdEfficiency =
        issue_slots > 0 ? lane_insts / (issue_slots * 32.0) : 0.0;
    sim.events = queue.dispatched();
    sim.orderHash = queue.orderHash();
    sim.conserved = sim.conserved && fleet.drainedAll() &&
                    fleet.totalAccepted() + refused == total &&
                    log.count == sim.responses + sim.errors;
    const core::Fleet::Stats &fs = fleet.stats();
    c.crossCompleted = fs.crossCompleted;
    // Every transfer has settled (none in flight), and money moved only
    // between authoritative copies or out through bill payments.
    sim.moneyConserved =
        fs.crossStarted == fs.crossCompleted + fs.crossRejected &&
        fleetMoney(fleet, w.users) == money_before;
    return it;
}

Iteration
runIteration(const RunOptions &opt, bool traced,
             std::vector<std::string> *sample_raws = nullptr)
{
    return opt.workload->devices > 1 ? runFleet(opt, traced, sample_raws)
                                     : runSingle(opt, traced, sample_raws);
}

// ---- Layer replay (traced runs) ----------------------------------------

/** Runs @p body until @p budget_s elapsed (at least once); s per call. */
template <class Body>
double
secondsPerCall(Body &&body, double budget_s)
{
    uint64_t calls = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
        body();
        ++calls;
        elapsed = secondsSince(start);
    } while (elapsed < budget_s);
    return elapsed / static_cast<double>(calls);
}

/** Replayed host costs, scaled to the traced iteration's counts. */
struct Replay
{
    double parseS = 0.0;
    double warpS = 0.0;
    double coalesceS = 0.0;
    double engineS = 0.0;
    double deviceS = 0.0;
};

/** Same-type warps captured from the host server for one request type. */
struct TypeWarps
{
    static constexpr size_t kWidth = 32; //!< simt::WarpModel's default.

    double weight = 0.0;
    std::vector<simt::ThreadTrace> traces;
    std::vector<const simt::ThreadTrace *> lanes;

    size_t warps() const { return lanes.size() / kWidth; }
    std::span<const simt::ThreadTrace *const> warp(size_t k) const
    {
        return {lanes.data() + k * kWidth, kWidth};
    }
};

std::vector<TypeWarps>
captureWarps(const Workload &w, uint64_t seed)
{
    std::vector<TypeWarps> out;
    for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
        const specweb::RequestTypeInfo &info = specweb::typeTable()[i];
        const bool wanted =
            w.summaryOnly
                ? info.type == specweb::RequestType::AccountSummary
                : info.type != specweb::RequestType::Login &&
                      info.type != specweb::RequestType::Logout;
        if (!wanted)
            continue;
        TypeWarps tw;
        tw.weight = w.summaryOnly ? 1.0 : info.mixPercent;
        tw.traces = analysis::captureRequestTraces(
            info.type, static_cast<int>(kLaneSample), 500, seed);
        for (const simt::ThreadTrace &t : tw.traces)
            tw.lanes.push_back(&t);
        out.push_back(std::move(tw));
    }
    return out;
}

/** Mix-weighted mean of a per-type cost. */
template <class Cost>
double
weighted(const std::vector<TypeWarps> &types, Cost &&cost)
{
    double sum = 0.0;
    double weights = 0.0;
    for (const TypeWarps &tw : types) {
        sum += tw.weight * cost(tw);
        weights += tw.weight;
    }
    return weights > 0 ? sum / weights : 0.0;
}

Replay
replayLayers(const Workload &w, uint64_t seed, const Iteration &traced,
             const std::vector<std::string> &raws, double budget_s)
{
    Replay r;
    const LayerCounts &c = traced.counts;
    const double slice = budget_s / 5.0;
    const simt::WarpModel model;
    const platform::TitanVariant variant = platform::titanB();

    // Parser: every accepted request is parsed; the sampled lanes of
    // each batch record a trace, the rest parse without recording.
    {
        http::Request request;
        simt::NullTracer null;
        simt::ThreadTrace trace;
        const auto vaddr = [](size_t i) {
            return 0x10000000ull + static_cast<uint64_t>(i) * 1024;
        };
        const double null_s =
            secondsPerCall(
                [&] {
                    for (size_t i = 0; i < raws.size(); ++i)
                        http::parseRequest(raws[i], vaddr(i), null, request);
                },
                slice / 2) /
            static_cast<double>(raws.size());
        const double record_s =
            secondsPerCall(
                [&] {
                    for (size_t i = 0; i < raws.size(); ++i) {
                        simt::RecordingTracer rec(trace);
                        http::parseRequest(raws[i], vaddr(i), rec, request);
                    }
                },
                slice / 2) /
            static_cast<double>(raws.size());
        const uint64_t recorded =
            std::min<uint64_t>(c.accepted, c.parserBatches * kLaneSample);
        r.parseS = record_s * static_cast<double>(recorded) +
                   null_s * static_cast<double>(c.accepted - recorded);
    }

    // Warp simulation and the coalescer, in the workload's type mix.
    // Captured traces are whole requests while the server simulates
    // stage traces, so cost is scaled per lane block execution (summed
    // lane trace length): the live run's total, times the share of its
    // warps the profile cache let through to simulation.
    const std::vector<TypeWarps> types = captureWarps(w, seed);
    const double type_slice = slice / static_cast<double>(types.size()) / 2;
    const auto per_warp = [&](const TypeWarps &tw, auto simulate) {
        return secondsPerCall(
                   [&] {
                       for (size_t k = 0; k < tw.warps(); ++k)
                           simulate(tw.warp(k), model);
                   },
                   type_slice) /
               static_cast<double>(tw.warps());
    };
    const double blocks_per_warp = weighted(types, [&](const TypeWarps &tw) {
        simt::WarpStats stats;
        for (size_t k = 0; k < tw.warps(); ++k)
            stats.merge(simt::mergeBlockSchedule(tw.warp(k), model));
        return static_cast<double>(stats.laneBlockExecs) /
               static_cast<double>(tw.warps());
    });
    const double warp_cost = weighted(types, [&](const TypeWarps &tw) {
        return per_warp(tw, simt::simulateWarp);
    });
    const double schedule_cost = weighted(types, [&](const TypeWarps &tw) {
        return per_warp(tw, simt::mergeBlockSchedule);
    });
    const double simulated_blocks =
        c.warps ? static_cast<double>(c.laneBlockExecs) *
                      static_cast<double>(c.cacheMisses) /
                      static_cast<double>(c.warps)
                : 0.0;
    const double warps_equivalent =
        blocks_per_warp > 0 ? simulated_blocks / blocks_per_warp : 0.0;
    r.warpS = warp_cost * warps_equivalent;
    r.coalesceS =
        std::max(0.0, warp_cost - schedule_cost) * warps_equivalent;

    // Engine::profile with a cache attached: a miss fingerprints and
    // simulates (so it includes simt.warp_s), a hit fingerprints and
    // looks up.
    {
        simt::Engine engine(variant.device.numSms);
        simt::ProfileCache cache(kCacheEntries);
        engine.setProfileCache(&cache);
        const double miss_cost = weighted(types, [&](const TypeWarps &tw) {
            return secondsPerCall(
                       [&] {
                           cache.clear();
                           engine.profile(tw.lanes, model, "replay");
                       },
                       type_slice) /
                   static_cast<double>(tw.warps());
        });
        const double hit_cost = weighted(types, [&](const TypeWarps &tw) {
            engine.profile(tw.lanes, model, "replay");
            return secondsPerCall(
                       [&] { engine.profile(tw.lanes, model, "replay"); },
                       type_slice) /
                   static_cast<double>(tw.warps());
        });
        r.engineS = miss_cost * warps_equivalent +
                    hit_cost * static_cast<double>(c.cacheHits);
    }

    // Device command model: copies and kernel launches on 8 streams.
    {
        constexpr int kCommands = 3000;
        simt::KernelCost cost;
        cost.deviceSeconds = 20e-6;
        cost.maxShare = 0.25;
        cost.warps = 128;
        const double per_command =
            secondsPerCall(
                [&] {
                    des::EventQueue queue;
                    simt::Device device(queue, variant.device);
                    int streams[8];
                    for (int &s : streams)
                        s = device.createStream();
                    for (int i = 0; i < kCommands; ++i) {
                        const int s = streams[i % 8];
                        switch (i % 3) {
                        case 0:
                            device.copyToDevice(s, 64 * 1024, [] {});
                            break;
                        case 1:
                            device.launchKernel(s, cost, [] {});
                            break;
                        default:
                            device.copyToHost(s, 64 * 1024, [] {});
                            break;
                        }
                    }
                    queue.run();
                },
                slice) /
            kCommands;
        r.deviceS = per_command * static_cast<double>(c.kernels + c.copies);
    }
    return r;
}

// ---- Output ----------------------------------------------------------

/** Writes one `"key": value` member. */
template <class T>
void
field(obs::JsonWriter &j, std::string_view key, const T &value)
{
    j.key(key);
    j.value(value);
}

std::string
hex64(uint64_t v)
{
    char hex[24];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(v));
    return hex;
}

void
writeSim(obs::JsonWriter &j, const SimResult &s)
{
    j.key("sim");
    j.beginObject();
    field(j, "digest", hex64(s.digest));
    field(j, "delivered", s.delivered);
    field(j, "attempted", s.attempted);
    field(j, "responses", s.responses);
    field(j, "errors", s.errors);
    field(j, "shed", s.shed);
    field(j, "refused", s.refused);
    field(j, "validated", s.validated);
    field(j, "invalid", s.invalid);
    field(j, "sim_seconds", s.simSeconds);
    field(j, "p50_ms", s.p50Ms);
    field(j, "p99_ms", s.p99Ms);
    field(j, "latency_samples", s.latencySamples);
    field(j, "simd_efficiency", s.simdEfficiency);
    field(j, "events", s.events);
    field(j, "order_hash", hex64(s.orderHash));
    field(j, "conserved", s.conserved);
    field(j, "money_conserved", s.moneyConserved);
    j.endObject();
}

void
writeIterations(obs::JsonWriter &j, const std::vector<Iteration> &its,
                bool traced)
{
    j.key(traced ? "traced_iterations" : "iterations");
    j.beginArray();
    for (const Iteration &it : its) {
        if (it.traced != traced)
            continue;
        j.beginObject();
        field(j, "setup_s", it.setupS);
        field(j, "setup_db_s", it.setupDbS);
        field(j, "serve_s", it.serveS);
        field(j, "cpu_s", it.cpuS);
        field(j, "des_run_s", it.desRunS);
        if (traced) {
            field(j, "emit_s", it.emitS);
            field(j, "inject_s", it.injectNs * 1e-9);
            field(j, "handler_s", it.handlerNs * 1e-9);
            field(j, "handler_calls", it.handlerCalls);
            field(j, "backend_s", it.backendNs * 1e-9);
            field(j, "backend_calls", it.backendCalls);
            field(j, "respond_s", it.respondNs * 1e-9);
        }
        j.endObject();
    }
    j.endArray();
}

void
writeCounts(obs::JsonWriter &j, const LayerCounts &c)
{
    j.key("counts");
    j.beginObject();
    field(j, "launches", c.launches);
    field(j, "warps", c.warps);
    field(j, "cache_hits", c.cacheHits);
    field(j, "cache_misses", c.cacheMisses);
    field(j, "cohorts", c.cohorts);
    field(j, "cohort_slots", c.cohortSlots);
    field(j, "kernels", c.kernels);
    field(j, "copies", c.copies);
    field(j, "copy_bytes", c.copyBytes);
    field(j, "backend_requests", c.backendRequests);
    field(j, "cross_completed", c.crossCompleted);
    field(j, "accepted", c.accepted);
    field(j, "parser_batches", c.parserBatches);
    j.endObject();
}

int
usage(const std::string &error)
{
    std::cerr << "error: " << error << "\n"
              << "usage: perfbench_runner --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
                 "       [--size full|tiny] [--sim-threads N] "
                 "[--trace-out PATH]\n"
                 "workloads: mix_1dev summary_repeat fleet4_open "
                 "mix_bigdb\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    unsigned sim_threads = 0;
    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + std::string(arg));
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload")
            workload_name = value;
        else if (arg == "--seed")
            seed = std::strtoull(value.c_str(), &end, 10);
        else if (arg == "--seconds")
            seconds = std::strtod(value.c_str(), &end);
        else if (arg == "--trace")
            trace = value == "1";
        else if (arg == "--size")
            tiny = value == "tiny";
        else if (arg == "--sim-threads")
            sim_threads =
                static_cast<unsigned>(std::strtoul(value.c_str(), &end, 10));
        else if (arg == "--trace-out")
            trace_path = value;
        else
            return usage("unknown flag " + std::string(arg));
        if (end && *end != '\0')
            return usage("bad number for " + std::string(arg));
    }
    const Workload *workload = nullptr;
    for (const Workload &w : kWorkloads)
        if (workload_name == w.name)
            workload = &w;
    if (!workload)
        return usage("unknown workload '" + workload_name + "'");
    if (seconds < 0)
        return usage("--seconds must be >= 0");

#ifndef __OPTIMIZE__
    // Host times of an unoptimized build say nothing about the
    // simulator; only the tiny self-test may run on one.
    if (!tiny) {
        std::cerr << "error: refusing to report host metrics from a "
                     "non-optimized build\n";
        return 3;
    }
    const bool optimized = false;
#else
    const bool optimized = true;
#endif

    const unsigned threads = sim_threads ? sim_threads : workload->simThreads;
    util::setSimThreads(threads);

    RunOptions opt;
    opt.workload = workload;
    opt.seed = seed;
    opt.cohorts = tiny ? workload->tinyCohorts : workload->cohorts;
    opt.tracePath = trace_path;

    // Untraced runs repeat plain iterations; traced runs alternate an
    // untraced and a traced iteration (the pair gives the tracing
    // overhead) for half the budget and replay layers in the rest.
    std::vector<Iteration> iterations;
    std::vector<std::string> sample_raws;
    const auto start = Clock::now();
    // A first, unreported iteration lets the worker pool start and the
    // allocator reach its steady state; its outputs are still checked.
    const SimResult warmup = runIteration(opt, false).sim;
    const double serve_budget = trace ? seconds / 2 : seconds;
    do {
        iterations.push_back(runIteration(opt, false));
        if (trace)
            iterations.push_back(runIteration(
                opt, true, sample_raws.empty() ? &sample_raws : nullptr));
    } while (secondsSince(start) < std::min(serve_budget, kHardCapSeconds));

    bool deterministic = true;
    for (const Iteration &it : iterations)
        deterministic = deterministic && it.sim == warmup;

    std::optional<Replay> replay;
    const Iteration *last_traced = nullptr;
    for (const Iteration &it : iterations)
        if (it.traced)
            last_traced = &it;
    if (last_traced)
        replay = replayLayers(
            *workload, seed, *last_traced, sample_raws,
            std::max(0.25, std::min(5.0, seconds - secondsSince(start))));

    std::vector<double> emit_s;
    for (const Iteration &it : iterations)
        if (it.traced)
            emit_s.push_back(it.emitS);
    const auto render_start = Clock::now();
    std::ostringstream text;
    {
        obs::JsonWriter j(text, 0);
        j.beginObject();
        field(j, "workload", workload->name);
        field(j, "seed", seed);
        field(j, "size", tiny ? "tiny" : "full");
        field(j, "requests",
              static_cast<uint64_t>(opt.cohorts) * kCohortSize);
        field(j, "users", workload->users);
        field(j, "devices", static_cast<uint64_t>(workload->devices));
        field(j, "sim_threads", static_cast<uint64_t>(threads));
        field(j, "nproc",
              static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
        field(j, "compiler", __VERSION__);
        field(j, "build_type", PERFBENCH_BUILD_TYPE);
        field(j, "optimized", optimized);
        field(j, "peak_rss_mb", peakRssMb());
        field(j, "deterministic", deterministic);
        writeSim(j, iterations.front().sim);
        writeIterations(j, iterations, false);
        if (last_traced) {
            writeIterations(j, iterations, true);
            writeCounts(j, last_traced->counts);
            j.key("replay");
            j.beginObject();
            field(j, "parse_s", replay->parseS);
            field(j, "warp_s", replay->warpS);
            field(j, "coalesce_s", replay->coalesceS);
            field(j, "engine_s", replay->engineS);
            field(j, "device_s", replay->deviceS);
            j.endObject();
            field(j, "trace_emit_s", median(emit_s));
        }
        field(j, "render_s", secondsSince(render_start));
        j.endObject();
    }
    std::cout << text.str() << "\n";
    return 0;
}
