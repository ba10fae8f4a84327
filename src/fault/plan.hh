/**
 * @file
 * Deterministic fault injection for the Rhythm pipeline.
 *
 * A FaultPlan is a seeded oracle that injectors consult at well-defined
 * sites: backend request failure/slowdown (host and on-device paths),
 * PCIe transfer corruption and bandwidth degradation, device stream
 * stalls, and mid-pipeline client disconnects. Because the whole system
 * is a discrete-event simulation, consultations happen in a fixed order
 * for a fixed seed, so every failure scenario is exactly reproducible —
 * the property a real GPU testbed cannot give you.
 *
 * Determinism contract:
 *  - each site owns an independent RNG stream (derived from the plan
 *    seed and the site index), so adding a consultation at one site
 *    never perturbs the decisions of another;
 *  - every consultation draws the same number of variates whether or
 *    not the fault fires, so decision streams stay aligned across
 *    configuration sweeps of other sites.
 *
 * All probabilities default to zero: a default FaultConfig injects
 * nothing and a null plan pointer is always a valid "faults off" state.
 */

#ifndef RHYTHM_FAULT_PLAN_HH
#define RHYTHM_FAULT_PLAN_HH

#include <array>
#include <cstdint>
#include <set>

#include "des/time.hh"
#include "util/rng.hh"

namespace rhythm::fault {

/** Injection sites a FaultPlan can be consulted at. */
enum class Site : uint32_t {
    /** A backend request fails (service unavailable). Consulted once
     *  per executed backend call, including retries. */
    BackendFail = 0,
    /** The backend service browns out: one cohort backend round trip
     *  takes extra time. Consulted once per cohort backend stage. */
    BackendSlow,
    /** A PCIe transfer is corrupted in flight. The link layer detects
     *  it (LCRC) and replays the transfer, so the observable effect is
     *  a doubled transfer time. Consulted once per copy. */
    PcieCorrupt,
    /** PCIe bandwidth degradation (link retraining, lane drop): the
     *  transfer runs slower by `factor`. Consulted once per copy. */
    PcieDegrade,
    /** A device stream stalls before its next command starts. */
    StreamStall,
    /** The client disconnects mid-pipeline; the response cannot be
     *  delivered. Consulted once per accepted request. */
    ClientDisconnect,
    /** The backend process crashes and restarts, losing all in-memory
     *  state; the recovery layer restores the last checkpoint and
     *  replays its journal. Consulted once per journaled mutating
     *  backend operation. */
    BackendCrash,
    /** The crash tears the final journal record (a partial write hit
     *  the disk): replay must detect and drop it. Consulted once per
     *  fired BackendCrash, as a sub-decision. */
    JournalTorn,
    /** A cohort's kernel wedges (infinite-loop-equivalent straggler):
     *  the stream makes no progress until the hang resolves; the
     *  watchdog hedges the cohort instead of waiting. Consulted once
     *  per cohort launch when a plan is armed. */
    KernelHang,
};

/** Number of distinct injection sites. */
inline constexpr size_t kNumSites = 9;

/** Per-site probability/duration schedule. */
struct SiteSchedule
{
    /** Probability a consultation fires, in [0, 1]. */
    double probability = 0.0;
    /** Mean of the exponential extra delay for delay-type sites. */
    des::Time meanDelay = 0;
    /** Slowdown multiplier for rate-degradation sites (>= 1). */
    double factor = 1.0;
    /** Faults only fire inside [activeFrom, activeUntil). */
    des::Time activeFrom = 0;
    des::Time activeUntil = ~des::Time{0};
};

/** Full plan configuration: a seed plus one schedule per site. */
struct FaultConfig
{
    /** Seed for the per-site RNG streams. */
    uint64_t seed = 1;
    /** Schedules indexed by static_cast<size_t>(Site). */
    std::array<SiteSchedule, kNumSites> sites;

    /** Mutable schedule accessor. */
    SiteSchedule &at(Site site)
    {
        return sites[static_cast<size_t>(site)];
    }
    /** Schedule accessor. */
    const SiteSchedule &at(Site site) const
    {
        return sites[static_cast<size_t>(site)];
    }
    /** True when no site can ever fire. */
    bool allQuiet() const;
};

/** Outcome of one consultation. */
struct Decision
{
    /** The fault fires. */
    bool fire = false;
    /** Extra delay to apply (delay-type sites; 0 otherwise). */
    des::Time delay = 0;
    /** Rate multiplier to apply (degradation sites; 1.0 otherwise). */
    double factor = 1.0;
};

/**
 * The seeded fault oracle.
 *
 * Thread-compatibility matches the rest of the library: single-threaded
 * use from the owning event loop only.
 */
class FaultPlan
{
  public:
    explicit FaultPlan(const FaultConfig &config);

    /**
     * Consults the plan at a site.
     * @param site Injection site.
     * @param now Current simulated time (schedules are windowed).
     */
    Decision at(Site site, des::Time now);

    /**
     * Schedules a targeted fault: the @p ordinal-th consultation of
     * @p site (0-based) fires regardless of probability. Used by tests
     * to poison exactly one lane/transfer deterministically.
     */
    void scheduleFault(Site site, uint64_t ordinal);

    /** Consultations so far at a site. */
    uint64_t consultations(Site site) const;

    /** Faults fired so far at a site. */
    uint64_t injected(Site site) const;

    /** Faults fired so far across all sites. */
    uint64_t totalInjected() const;

    /** The configuration the plan was built from. */
    const FaultConfig &config() const { return config_; }

  private:
    struct SiteState
    {
        Rng rng{1};
        uint64_t consultations = 0;
        uint64_t injected = 0;
        std::set<uint64_t> scheduled;
    };

    FaultConfig config_;
    std::array<SiteState, kNumSites> state_;
};

} // namespace rhythm::fault

#endif // RHYTHM_FAULT_PLAN_HH
