#include "platform/simulation.hh"

#include <algorithm>

#include "rhythm/banking_service.hh"

namespace rhythm::platform {

Simulation::Simulation(const simt::DeviceConfig &device,
                       const core::RhythmConfig &server,
                       core::Service &service,
                       uint32_t profile_cache_entries)
    : cache_(profile_cache_entries > 0
                 ? std::make_unique<simt::ProfileCache>(profile_cache_entries)
                 : nullptr),
      device_(queue_, device),
      server_(queue_, device_, service, [&] {
          core::RhythmConfig cfg = server;
          if (cache_)
              cfg.traceTemplateCacheEntries = profile_cache_entries;
          return cfg;
      }())
{
    device_.engine().setProfileCache(cache_.get());
}

void
Simulation::arm(const fault::FaultConfig &faults, bool recovery,
                uint64_t checkpoint_interval)
{
    if (!faults.allQuiet())
        plan_ = std::make_unique<fault::FaultPlan>(faults);
    journal_ = core::armRun(server_, device_, queue_, plan_.get(), recovery,
                            checkpoint_interval);
}

void
Simulation::pull(uint64_t count, RequestSource source)
{
    server_.start([source = std::move(source), count,
                   issued = uint64_t{0}]() mutable
                  -> std::optional<std::string> {
        if (issued >= count)
            return std::nullopt;
        return source(issued++);
    });
}

void
Simulation::arrive(const net::ArrivalConfig &arrivals, uint64_t count,
                   RequestSource source)
{
    arrivals_.emplace(arrivals).drive(
        queue_, count, [this, source = std::move(source)](uint64_t i) {
            server_.injectRequest(source(i), i + 1);
        });
}

void
Simulation::run(uint64_t max_events)
{
    while (queue_.pending() &&
           (max_events == 0 || queue_.dispatched() < max_events))
        queue_.step();
}

TypeRunResult
Simulation::measure(const TitanPowerModel &power) const
{
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const core::RhythmStats &stats = server_.stats();
    const core::RhythmConfig &cfg = server_.config();
    const simt::Device::Stats d = device_.stats();
    const simt::DeviceConfig &dcfg = device_.config();
    const double elapsed = des::toSeconds(queue_.now());
    const uint64_t n = stats.responsesCompleted;
    const auto per_request = [n](uint64_t x) { return n ? x / n : 0; };

    TypeRunResult r;
    r.requests = n;
    r.elapsedSeconds = elapsed;
    r.throughput = ratio(static_cast<double>(n), elapsed);
    r.avgLatencyMs = stats.latencyMs.mean();
    r.p99LatencyMs = stats.latencyMs.percentile(99.0);
    r.deviceUtilization = device_.kernelUtilization();
    r.memoryUtilization = ratio(static_cast<double>(d.kernelMemoryBytes),
                                dcfg.memBandwidthGBs *
                                    dcfg.memoryEfficiency * 1e9 * elapsed);
    r.copyUtilization =
        ratio(std::max(d.h2dBusySeconds, d.d2hBusySeconds), elapsed);
    if (!cfg.backendOnDevice)
        r.hostBackendUtilization =
            ratio(static_cast<double>(stats.backendRequests) /
                      cfg.hostBackendReqsPerSec,
                  elapsed);
    r.simdEfficiency =
        stats.processSimdEfficiency(dcfg.warpModel.warpWidth);
    r.paddedLanes = stats.paddedLanes;
    r.pcieBytesPerRequest = per_request(d.bytesToDevice + d.bytesToHost);
    r.responseBytesPerRequest =
        ratio(static_cast<double>(stats.responseBytes), n);
    r.h2dUtilization = ratio(d.h2dBusySeconds, elapsed);
    r.d2hUtilization = ratio(d.d2hBusySeconds, elapsed);
    r.h2dBytesPerRequest = per_request(d.bytesToDevice);
    r.d2hBytesPerRequest = per_request(d.bytesToHost);
    r.pcieWireBytesPerRequest = per_request(d.pcieWireBytes);
    r.overlapFraction = ratio(d.overlapSeconds, d.copyBusySeconds);
    r.dynamicWatts = power.dynamicWatts(
        {r.deviceUtilization, r.memoryUtilization, r.copyUtilization,
         r.hostBackendUtilization});
    r.reqsPerJouleDynamic = ratio(r.throughput, r.dynamicWatts);
    if (r.dynamicWatts > 0.0)
        r.reqsPerJouleWall =
            r.throughput / (power.idleWatts + r.dynamicWatts);
    return r;
}

} // namespace rhythm::platform
