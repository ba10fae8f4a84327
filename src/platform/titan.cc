#include "platform/titan.hh"

#include <algorithm>
#include <memory>
#include <optional>

#include "backend/protocol.hh"
#include "backend/recovery.hh"
#include "obs/obs.hh"
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

RunUtilization
measureUtilization(const core::RhythmServer &server,
                   const simt::Device &device, double elapsed)
{
    RunUtilization u;
    u.device = device.kernelUtilization();
    if (elapsed <= 0.0)
        return u;
    const simt::Device::Stats dstats = device.stats();
    const simt::DeviceConfig &dcfg = device.config();
    const core::RhythmConfig &cfg = server.config();
    u.memory = static_cast<double>(dstats.kernelMemoryBytes) /
               (dcfg.memBandwidthGBs * dcfg.memoryEfficiency * 1e9 *
                elapsed);
    u.copy = std::max(dstats.h2dBusySeconds, dstats.d2hBusySeconds) /
             elapsed;
    if (!cfg.backendOnDevice)
        u.hostBackend =
            static_cast<double>(server.stats().backendRequests) /
            cfg.hostBackendReqsPerSec / elapsed;
    return u;
}

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
    const uint64_t total_requests =
        static_cast<uint64_t>(options.cohorts) *
        variant.server.cohortSize;

    core::RhythmConfig cfg = variant.server;
    if (options.profileCacheEntries > 0)
        cfg.traceTemplateCacheEntries = options.profileCacheEntries;

    des::EventQueue queue;
    simt::ProfileCache profile_cache(
        std::max<size_t>(options.profileCacheEntries, 1));
    simt::Device device(queue, variant.device);
    if (options.profileCacheEntries > 0)
        device.engine().setProfileCache(&profile_cache);
    core::RhythmServer server(queue, device, service, cfg);

    const RequestSource source = prepare(server);
    std::optional<fault::FaultPlan> plan;
    if (!options.faults.allQuiet())
        plan.emplace(options.faults);
    const auto journal =
        core::armRun(server, device, queue, plan ? &*plan : nullptr,
                     options.recovery, options.checkpointInterval);

    uint64_t issued = 0;
    server.start([&]() -> std::optional<std::string> {
        if (issued >= total_requests)
            return std::nullopt;
        return source(issued++);
    });
    queue.run();
    RHYTHM_ASSERT(server.drained(), "pipeline failed to drain");

    const core::RhythmStats &stats = server.stats();
    const simt::Device::Stats dstats = device.stats();
    const double elapsed = des::toSeconds(queue.now());

    TypeRunResult result;
    result.requests = stats.responsesCompleted;
    result.elapsedSeconds = elapsed;
    result.throughput =
        elapsed > 0.0 ? static_cast<double>(result.requests) / elapsed
                      : 0.0;
    result.avgLatencyMs = stats.latencyMs.mean();
    result.p99LatencyMs = stats.latencyMs.percentile(99.0);
    const RunUtilization util = measureUtilization(server, device, elapsed);
    result.deviceUtilization = util.device;
    result.memoryUtilization = util.memory;
    result.copyUtilization = util.copy;
    result.hostBackendUtilization = util.hostBackend;
    result.simdEfficiency = stats.processSimdEfficiency(
        device.config().warpModel.warpWidth);
    result.paddedLanes = stats.paddedLanes;
    result.pcieBytesPerRequest =
        result.requests
            ? (dstats.bytesToDevice + dstats.bytesToHost) /
                  result.requests
            : 0;
    result.responseBytesPerRequest =
        result.requests ? static_cast<double>(stats.responseBytes) /
                              static_cast<double>(result.requests)
                        : 0.0;
    if (elapsed > 0.0) {
        result.h2dUtilization = dstats.h2dBusySeconds / elapsed;
        result.d2hUtilization = dstats.d2hBusySeconds / elapsed;
    }
    if (result.requests) {
        result.h2dBytesPerRequest = dstats.bytesToDevice / result.requests;
        result.d2hBytesPerRequest = dstats.bytesToHost / result.requests;
        result.pcieWireBytesPerRequest =
            dstats.pcieWireBytes / result.requests;
    }
    if (dstats.copyBusySeconds > 0.0)
        result.overlapFraction =
            dstats.overlapSeconds / dstats.copyBusySeconds;

    const TitanPowerModel &pm = variant.power;
    result.dynamicWatts = pm.dynamicWatts(util);
    if (result.dynamicWatts > 0.0) {
        result.reqsPerJouleDynamic =
            result.throughput / result.dynamicWatts;
        result.reqsPerJouleWall =
            result.throughput / (pm.idleWatts + result.dynamicWatts);
    }
    return result;
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
    // concurrently on the sim pool, each writing only its index's slot.
    // The tracer of the *global* obs context is DES-thread-only, so
    // when observability is recording the runs stay serial — the merged
    // result below is identical either way because the aggregation
    // always happens here, in type order.
    std::vector<TypeRunResult> runs(specweb::kNumRequestTypes);
    auto run_one = [&variant, &options, &runs](size_t i) {
        runs[i] = runIsolatedType(variant, specweb::typeTable()[i].type,
                                  options);
    };
    if (obs::global().enabled()) {
        for (size_t i = 0; i < specweb::kNumRequestTypes; ++i)
            run_one(i);
    } else {
        util::simPool().parallelFor(specweb::kNumRequestTypes, run_one);
    }

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
