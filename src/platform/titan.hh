/**
 * @file
 * Titan platform variants and the evaluation driver (paper Sections 5.3
 * and 6).
 *
 * Titan A/B/C are the paper's progressively idealized GPU server
 * platforms. Each variant pairs a device configuration with a Rhythm
 * server configuration and a power model. The driver runs each request
 * type in isolation (the paper's methodology) on the simulated device
 * and aggregates workload metrics with the Table 2 mix using weighted
 * harmonic means.
 */

#ifndef RHYTHM_PLATFORM_TITAN_HH
#define RHYTHM_PLATFORM_TITAN_HH

#include <array>
#include <functional>
#include <string>

#include "fault/plan.hh"
#include "rhythm/server.hh"
#include "simt/device.hh"
#include "simt/kernel.hh"
#include "specweb/types.hh"

namespace rhythm::platform {

/** The utilizations of one run that its power draw depends on. */
struct RunUtilization
{
    double device = 0.0;      //!< kernel engine
    double memory = 0.0;      //!< DRAM bandwidth (not clamped)
    double copy = 0.0;        //!< busiest PCIe direction
    double hostBackend = 0.0; //!< host backend (0 when on the device)
};

/** Power model of a Titan-based server node. */
struct TitanPowerModel
{
    /** Measured system idle power (paper Table 3: 74 W). */
    double idleWatts = 74.0;
    /** Device dynamic power at full utilization. */
    double devicePeakWatts = 225.0;
    /**
     * Fraction of peak the device draws merely by being active (clocks
     * up, polling in-flight stages — the paper notes polling burns
     * power on stalled pipelines, Section 4.1). The rest scales with
     * utilization.
     */
    double deviceActiveFloor = 0.45;
    /** Weight of compute vs DRAM activity in the variable part. */
    double computeWeight = 0.75;
    /** Host-side dynamic power while serving the backend (Titan A). */
    double hostBackendWatts = 55.0;
    /** PCIe/DMA dynamic power at full copy-engine utilization. */
    double pcieWatts = 18.0;

    /**
     * Dynamic power of a run: the device's active floor plus its
     * compute/DRAM activity, the PCIe engines and the host backend,
     * each utilization clamped at 1.
     */
    double dynamicWatts(const RunUtilization &u) const;
};

/** One Titan platform variant. */
struct TitanVariant
{
    std::string name;
    core::RhythmConfig server;
    simt::DeviceConfig device;
    TitanPowerModel power;
};

/** Titan A: discrete GPU, remote (host) backend, PCIe-bound. */
TitanVariant titanA();
/** Titan B: integrated NIC + device backend (SoC emulation). */
TitanVariant titanB();
/** Titan C: Titan B + response-transpose offload. */
TitanVariant titanC();

/** Result of one isolated request-type run. */
struct TypeRunResult
{
    specweb::RequestType type = specweb::RequestType::Login;
    uint64_t requests = 0;
    double elapsedSeconds = 0.0;
    double throughput = 0.0;   //!< requests/second
    double avgLatencyMs = 0.0;
    double p99LatencyMs = 0.0;
    double deviceUtilization = 0.0;
    double memoryUtilization = 0.0; //!< DRAM bandwidth utilization
    double copyUtilization = 0.0;   //!< busiest PCIe direction
    double hostBackendUtilization = 0.0;
    double simdEfficiency = 0.0;
    /** Idle tail lanes across all process-stage launches (the padding
     *  cohort fusion exists to reclaim; DESIGN.md 6j). */
    uint64_t paddedLanes = 0;
    double dynamicWatts = 0.0;
    double reqsPerJouleDynamic = 0.0;
    double reqsPerJouleWall = 0.0;
    uint64_t pcieBytesPerRequest = 0;
    double responseBytesPerRequest = 0.0;
    // ---- PCIe breakdown (Fig. 9 diagnostics; DESIGN.md 6h) ----------
    /** Fraction of the run with a host→device transfer in flight,
     *  DMA setup included. */
    double h2dUtilization = 0.0;
    /** Same for device→host. */
    double d2hUtilization = 0.0;
    uint64_t h2dBytesPerRequest = 0;
    uint64_t d2hBytesPerRequest = 0;
    /** CRC-framed wire bytes per request (0 with the CRC model off). */
    uint64_t pcieWireBytesPerRequest = 0;
    /** Fraction of copy-busy time hidden under kernel execution. */
    double overlapFraction = 0.0;
};

/**
 * Run-level parameters of an isolated run. Server and device knobs,
 * lane sampling included, are the variant's RhythmConfig and
 * DeviceConfig; the run uses them as given, apart from sizing the
 * session array for login/logout and the trace-template cache that
 * profileCacheEntries turns on.
 */
struct IsolatedRunOptions
{
    /** Cohorts to push through (requests = cohorts × cohortSize). */
    uint32_t cohorts = 24;
    /** Bank database size. */
    uint64_t users = 5000;
    uint64_t seed = 42;
    /**
     * Warp profile-cache capacity in entries (0 = off). When set, the
     * run attaches a simt::ProfileCache to the device engine and turns
     * on the parser trace-template cache with the same bound; results
     * are byte-identical either way (the engine's memoization
     * contract), only host wall-clock changes.
     */
    uint32_t profileCacheEntries = 0;

    // ---- Run-level fault machinery (off by default, keeping the
    // ---- healthy paper-exact run). Server and device knobs — retries,
    // ---- watchdog, frame CRC, overlap — live in the variant's configs.

    /**
     * Fault schedule. When non-quiet, the run arms a fresh
     * FaultPlan(faults) on both the server sites and the device
     * injector, so every isolated type run draws an identical
     * schedule.
     */
    fault::FaultConfig faults;
    /**
     * Attaches a write-ahead-journaled RecoverableBackend (with
     * session recovery) so backend mutations apply exactly once across
     * injected crashes and watchdog hedges.
     */
    bool recovery = false;
    /** Journaled mutations per recovery checkpoint. */
    uint64_t checkpointInterval = 4096;
};

/** Request i (i = 0, 1, ...) of an isolated run's closed-loop stream. */
using RequestSource = std::function<std::string(uint64_t i)>;

/**
 * The service-independent body of an isolated run: builds a Simulation
 * of @p variant serving @p service, lets @p prepare populate the
 * server's state and return the request source, arms the run's faults
 * and crash recovery, pulls cohorts × cohortSize requests, runs to
 * drain and measures the run (TypeRunResult::type is left to the
 * caller).
 */
TypeRunResult
runIsolated(const TitanVariant &variant, core::Service &service,
            const IsolatedRunOptions &options,
            const std::function<RequestSource(core::RhythmServer &)> &prepare);

/**
 * Runs one banking request type in isolation on a variant over a
 * pre-populated session pool and reports its metrics (the per-type
 * points behind Table 3, Figure 9 and Figure 10).
 */
TypeRunResult runIsolatedType(const TitanVariant &variant,
                              specweb::RequestType type,
                              const IsolatedRunOptions &options);

/** Workload-level aggregation of per-type results (one Table 3 row). */
struct TitanWorkloadResult
{
    std::string name;
    double throughput = 0.0; //!< mix-weighted harmonic mean
    double avgLatencyMs = 0.0;
    double idleWatts = 0.0;
    double wallWatts = 0.0;
    double dynamicWatts = 0.0;
    double reqsPerJouleWall = 0.0;
    double reqsPerJouleDynamic = 0.0;
    std::array<TypeRunResult, specweb::kNumRequestTypes> perType{};
};

/**
 * Runs all 14 request types in isolation and combines them with the
 * Table 2 request mix (weighted harmonic means, Section 5.3.1).
 */
TitanWorkloadResult evaluateTitan(const TitanVariant &variant,
                                  const IsolatedRunOptions &options);

/**
 * Analytic PCIe throughput bound for one request type on a variant
 * (Figure 9): link bandwidth divided by bytes moved per request.
 * @return Bound in requests/second (infinity when nothing crosses PCIe).
 */
double pcieThroughputBound(const TitanVariant &variant,
                           specweb::RequestType type);

} // namespace rhythm::platform

#endif // RHYTHM_PLATFORM_TITAN_HH
