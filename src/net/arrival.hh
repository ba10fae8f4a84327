/**
 * @file
 * Open-loop traffic generation: seeded arrival processes and replayable
 * mixed-type schedules (DESIGN.md Section 6i).
 *
 * A production server does not see the paper's idealized pre-generated
 * request stream; it sees an open-loop arrival process whose rate moves
 * under it — diurnal load curves and flash crowds. This module supplies
 * those processes for the adaptive-batching experiments:
 *
 *  - Poisson: homogeneous arrivals at a fixed mean rate.
 *  - Diurnal: a raised-cosine rate curve between a trough and the
 *    configured peak over one period (a compressed "day").
 *  - Flash: a steady base rate with a multiplicative spike during a
 *    configured window (the flash crowd).
 *
 * Non-homogeneous processes are sampled by Lewis-Shedler thinning
 * against the envelope's peak rate. All randomness flows through
 * util/rng streams seeded from ArrivalConfig::seed, so the same config
 * always produces the identical event stream — the property tests and
 * the determinism-equivalence gates depend on it. Inter-arrival gaps
 * are clamped strictly positive (>= 1 ps once quantized to des::Time).
 */

#ifndef RHYTHM_NET_ARRIVAL_HH
#define RHYTHM_NET_ARRIVAL_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "des/event_queue.hh"
#include "des/time.hh"
#include "util/rng.hh"

namespace rhythm::net {

/** Arrival process families. Closed is the legacy pull-source mode. */
enum class ArrivalKind : uint8_t { Closed, Poisson, Diurnal, Flash };

/** Printable name ("closed", "poisson", ...). */
std::string_view arrivalKindName(ArrivalKind kind);

/** Parses an arrival kind name; nullopt on unknown input. */
std::optional<ArrivalKind> parseArrivalKind(std::string_view name);

/** Configuration of one arrival process. */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /** Mean arrivals per second: the Poisson rate, the diurnal peak
     *  and the flash base rate. */
    double rate = 200e3;
    /** Seed of the arrival-time stream (the type stream of a schedule
     *  derives its own independent seed from this one). */
    uint64_t seed = 1;

    // ---- Diurnal shape ---------------------------------------------
    /** One simulated "day" (rate trough → peak → trough). */
    double diurnalPeriodSec = 0.2;
    /** Trough rate as a fraction of the peak `rate`, in (0, 1]. */
    double diurnalTroughFraction = 0.25;

    // ---- Flash-crowd shape -----------------------------------------
    /** Spike window start (seconds). */
    double flashStartSec = 0.05;
    /** Spike window duration (seconds). */
    double flashDurationSec = 0.05;
    /** Rate multiplier inside the window (>= 1). */
    double flashMultiplier = 8.0;
};

/**
 * One seeded arrival process. Yields a strictly increasing sequence of
 * absolute arrival times; deterministic from ArrivalConfig::seed.
 */
class ArrivalProcess
{
  public:
    explicit ArrivalProcess(const ArrivalConfig &config);

    // drive()'s pending events hold this process's address.
    ArrivalProcess(const ArrivalProcess &) = delete;
    ArrivalProcess &operator=(const ArrivalProcess &) = delete;

    /** The configuration. */
    const ArrivalConfig &config() const { return config_; }

    /** Instantaneous envelope rate at absolute time @p t (seconds). */
    double rateAt(double t) const;

    /** Maximum of the envelope (the thinning bound). */
    double peakRate() const;

    /**
     * Advances to the next arrival and returns its absolute time in
     * seconds. Strictly increasing: every gap is at least 1 ps.
     */
    double nextArrivalSeconds();

    /**
     * Advances to the next arrival and returns the gap from the
     * previous one as simulated time, quantized to des::Time and
     * clamped to >= 1 (never zero or negative) — the form the DES
     * scheduleAfter driving loop consumes.
     */
    des::Time nextGap();

    /**
     * Drives @p count open-loop injections on @p queue: the first
     * arrival comes one gap after the call, and each arrival calls
     * @p inject with its request index i = 0, 1, ... and then
     * schedules the next while requests remain. The events are
     * scheduled on the caller's stream; the process must outlive the
     * run.
     */
    void drive(des::EventQueue &queue, uint64_t count,
               std::function<void(uint64_t)> inject);

  private:
    /** One arrival of drive(). */
    void arrive();

    ArrivalConfig config_;
    Rng rng_;
    double lastSeconds_ = 0.0;
    des::Time lastTick_ = 0;
    des::EventQueue *queue_ = nullptr;
    uint64_t count_ = 0;
    uint64_t next_ = 0;
    std::function<void(uint64_t)> inject_;
};

/** One entry of a replayable mixed-type schedule. */
struct ScheduleEntry
{
    /** Absolute arrival time. */
    des::Time at = 0;
    /** Index into the type-weight vector the schedule was built from. */
    uint32_t type = 0;
};

/**
 * Builds a replayable mixed-type schedule: @p count arrivals with
 * times drawn from an ArrivalProcess over @p config and types drawn
 * from the cumulative distribution of @p typeWeights on an independent
 * stream derived from the same seed. Deterministic: the same
 * (config, weights, count) always yields the identical schedule, so a
 * run can be replayed exactly. Weights must be non-negative with a
 * positive sum.
 */
std::vector<ScheduleEntry>
buildSchedule(const ArrivalConfig &config,
              std::span<const double> typeWeights, uint64_t count);

} // namespace rhythm::net

#endif // RHYTHM_NET_ARRIVAL_HH
