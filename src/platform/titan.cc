#include "platform/titan.hh"

#include <algorithm>

#include "backend/protocol.hh"
#include "obs/obs.hh"
#include "platform/simulation.hh"
#include "rhythm/banking_service.hh"
#include "specweb/workload.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace rhythm::platform {
namespace {

core::RhythmConfig
baseServerConfig()
{
    core::RhythmConfig cfg;
    cfg.cohortSize = 4096;
    cfg.cohortContexts = 8;
    cfg.cohortTimeout = 2 * des::kMillisecond;
    cfg.transposeBuffers = true;
    cfg.padResponses = true;
    return cfg;
}

} // namespace

double
TitanPowerModel::dynamicWatts(const RunUtilization &u) const
{
    const double activity = computeWeight * u.device +
                            (1.0 - computeWeight) * std::min(1.0, u.memory);
    return devicePeakWatts *
               (deviceActiveFloor + (1.0 - deviceActiveFloor) * activity) +
           pcieWatts * std::min(1.0, u.copy) +
           hostBackendWatts * std::min(1.0, u.hostBackend);
}

TitanVariant
titanA()
{
    TitanVariant v;
    v.name = "Titan A";
    v.server = baseServerConfig();
    v.server.backendOnDevice = false;
    v.server.networkOverPcie = true;
    return v;
}

TitanVariant
titanB()
{
    TitanVariant v;
    v.name = "Titan B";
    v.server = baseServerConfig();
    v.server.backendOnDevice = true;
    v.server.networkOverPcie = false;
    return v;
}

TitanVariant
titanC()
{
    TitanVariant v = titanB();
    v.name = "Titan C";
    v.server.offloadResponseTranspose = true;
    return v;
}

TypeRunResult
runIsolated(const TitanVariant &variant, core::Service &service,
            const IsolatedRunOptions &options,
            const std::function<RequestSource(core::RhythmServer &)> &prepare)
{
    Simulation sim(variant.device, variant.server, service,
                   options.profileCacheEntries);
    RequestSource source = prepare(sim.server());
    sim.arm(options.faults, options.recovery, options.checkpointInterval);
    sim.pull(static_cast<uint64_t>(options.cohorts) *
                 variant.server.cohortSize,
             std::move(source));
    sim.run();
    RHYTHM_ASSERT(sim.server().drained(), "pipeline failed to drain");
    return sim.measure(variant.power);
}

TypeRunResult
runIsolatedType(const TitanVariant &variant, specweb::RequestType type,
                const IsolatedRunOptions &options)
{
    const uint64_t total_requests =
        static_cast<uint64_t>(options.cohorts) *
        variant.server.cohortSize;

    TitanVariant sized = variant;
    // Login creates, and logout consumes, one session per request. Every
    // user's sessions hash to a single bucket, so the bucket depth must
    // cover sessions-per-user (with margin for hash skew), not just the
    // average bucket load.
    if (type == specweb::RequestType::Login ||
        type == specweb::RequestType::Logout) {
        const uint64_t reachable_buckets =
            std::min<uint64_t>(options.users, sized.server.cohortSize);
        sized.server.sessionNodesPerBucket = static_cast<uint32_t>(
            3 * total_requests / std::max<uint64_t>(1, reachable_buckets) +
            16);
    }

    backend::BankDb db(options.users, options.seed);
    core::BankingService service(db);
    specweb::WorkloadGenerator gen(db, options.seed * 977 + 13);
    std::vector<std::pair<uint64_t, uint64_t>> sessions;
    TypeRunResult result = runIsolated(
        sized, service, options, [&](core::RhythmServer &server) {
            // Pre-populate sessions (the paper's isolation methodology):
            // logout consumes a fresh session per request, the rest
            // reuse a pool.
            if (type == specweb::RequestType::Logout) {
                sessions = server.sessions().populate(total_requests,
                                                      options.users);
                RHYTHM_ASSERT(sessions.size() == total_requests,
                              "session array too small for logout run");
            } else if (type != specweb::RequestType::Login) {
                sessions = server.sessions().populate(
                    std::min<uint64_t>(total_requests, 8192),
                    options.users);
            }
            return [&](uint64_t i) {
                return gen.fromPool(type, sessions, i).raw;
            };
        });
    result.type = type;
    return result;
}

TitanWorkloadResult
evaluateTitan(const TitanVariant &variant,
              const IsolatedRunOptions &options)
{
    TitanWorkloadResult result;
    result.name = variant.name;
    result.idleWatts = variant.power.idleWatts;

    WeightedHarmonicMean throughput_whm, wall_whm, dynamic_whm;
    double latency_sum = 0.0;
    double dynamic_sum = 0.0;
    double mix_sum = 0.0;

    // The per-type isolated runs are fully self-contained simulations
    // (own event queue, device, database, server), so they execute
    // concurrently on the sim pool, each writing only its index's slot;
    // the aggregation below happens here, in type order. The global
    // tracer is DES-thread-only, so nothing may be recording.
    RHYTHM_ASSERT(!obs::global().enabled(),
                  "evaluateTitan runs in parallel and cannot be traced");
    std::vector<TypeRunResult> runs(specweb::kNumRequestTypes);
    util::simPool().parallelFor(
        specweb::kNumRequestTypes, [&variant, &options, &runs](size_t i) {
            runs[i] = runIsolatedType(
                variant, specweb::typeTable()[i].type, options);
        });

    for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
        const specweb::RequestTypeInfo &info = specweb::typeTable()[i];
        TypeRunResult &run = runs[i];
        const double weight = info.mixPercent;
        throughput_whm.add(weight, run.throughput);
        wall_whm.add(weight, run.reqsPerJouleWall);
        dynamic_whm.add(weight, run.reqsPerJouleDynamic);
        latency_sum += weight * run.avgLatencyMs;
        dynamic_sum += weight * run.dynamicWatts;
        mix_sum += weight;
        result.perType[i] = run;
    }

    result.throughput = throughput_whm.value();
    result.avgLatencyMs = latency_sum / mix_sum;
    result.dynamicWatts = dynamic_sum / mix_sum;
    result.wallWatts = result.idleWatts + result.dynamicWatts;
    result.reqsPerJouleWall = wall_whm.value();
    result.reqsPerJouleDynamic = dynamic_whm.value();
    return result;
}

double
pcieThroughputBound(const TitanVariant &variant, specweb::RequestType type)
{
    if (!variant.server.networkOverPcie)
        return 1.0 / 0.0;
    const specweb::RequestTypeInfo &info = specweb::typeInfo(type);
    const double backend_stages = info.backendRequests;
    // The two DMA directions run concurrently; the bound is set by the
    // busier one (device→host carries the response buffers).
    const double h2d_bytes =
        variant.server.requestSlotBytes +
        backend_stages * backend::kResponseSlotBytes;
    const double d2h_bytes = backend_stages * backend::kRequestSlotBytes +
                             info.rhythmBufferKb * 1024.0;
    const double per_request = std::max(h2d_bytes, d2h_bytes);
    return variant.device.pcieBandwidthGBs * 1e9 / per_request;
}

} // namespace rhythm::platform
