/**
 * @file
 * The flash-crowd rig of the open-loop A/B benches
 * (ext_adaptive_batching, DESIGN.md §6i; ext_warp_fusion, §6j).
 *
 * Titan B serves the Banking browsing mix (the fig9 request mix, logins
 * and logouts isolated out as in rhythm_sim's mixed mode) over an
 * 8,192-session pool, with seeded open-loop arrivals from src/net at a
 * low steady rate or with a flash crowd riding on it. Interactive
 * money-movement types (transfer, post transfer, post payee) get a
 * tight deadline, everything else the default. Both arms of a point
 * construct the same generator and arrival seeds, so they see
 * byte-identical request and arrival-time streams; only the bench's
 * cohort geometry, policy bit and knobs differ.
 */

#ifndef RHYTHM_BENCH_FLASH_RIG_HH
#define RHYTHM_BENCH_FLASH_RIG_HH

#include "backend/bankdb.hh"
#include "bench/common.hh"
#include "specweb/workload.hh"

namespace rhythm::bench {

/** Deadline of the interactive money-movement types. */
inline constexpr double kFlashInteractiveDeadlineMs = 3.0;
/** Deadline of every other type. */
inline constexpr double kFlashDefaultDeadlineMs = 8.0;

/** The arrivals of the low and flash operating points. */
struct FlashArrivals
{
    /** Steady Poisson well under capacity. */
    net::ArrivalConfig low;
    /** The low rate with a flash crowd at 50 ms for 100 ms. */
    net::ArrivalConfig flash;

    /**
     * Reads the arrival flags: the base rate is @p default_rate unless
     * --arrival-rate is given; the seed and the flash multiplier are
     * the flags'.
     */
    FlashArrivals(const Flags &flags, double default_rate)
    {
        const ArrivalFlags arrival(flags);
        low.kind = net::ArrivalKind::Poisson;
        low.rate =
            flags.has("arrival-rate") ? arrival.config.rate : default_rate;
        low.seed = arrival.config.seed;
        flash = low;
        flash.kind = net::ArrivalKind::Flash;
        flash.flashStartSec = 0.05;
        flash.flashDurationSec = 0.1;
        flash.flashMultiplier = arrival.config.flashMultiplier;
    }

    /**
     * Records the keys check_bench.py requires of the sweep (it must
     * be reproducible from the document alone).
     */
    void recordConfig(Reporter &rep) const
    {
        rep.config("arrival_rate", low.rate);
        rep.config("arrival_seed", static_cast<double>(low.seed));
        rep.config("flash_mult", flash.flashMultiplier);
    }
};

/** One operating point of a sweep: its key, arrivals and length. */
struct FlashPoint
{
    const char *key;
    const net::ArrivalConfig *arrivals;
    uint64_t requests;
};

/** What every arm of a flash A/B bench measures. */
struct FlashArm
{
    double goodput = 0.0;    //!< on-time responses per second
    double throughput = 0.0; //!< completed responses per second
    double p99Ms = 0.0;
    /** Open-loop arrivals a full reader dropped (never answered). */
    uint64_t drops = 0;
};

/**
 * Runs one arm of a point: @p requests arrivals on @p arrivals, the
 * fault flags applied and armed. @p configure sets the arm's cohort
 * size, contexts, formation timeout, lane sample, policy and knobs on
 * the shared server config; @p inspect(stats, config) reads the arm's
 * own counters from the drained server.
 */
template <class Configure, class Inspect>
FlashArm
runFlashArm(const net::ArrivalConfig &arrivals, uint64_t requests,
            const FaultFlags &faults, Configure configure, Inspect inspect)
{
    des::EventQueue queue;
    simt::DeviceConfig dcfg;
    faults.apply(dcfg);
    simt::Device device(queue, dcfg);
    backend::BankDb db(2000, 5);
    core::BankingService service(db);

    core::RhythmConfig cfg;
    cfg.backendOnDevice = true; // Titan B
    cfg.networkOverPcie = false;
    faults.apply(cfg);
    cfg.typeDeadlines.assign(service.numTypes(), 0);
    for (specweb::RequestType t :
         {specweb::RequestType::Transfer, specweb::RequestType::PostTransfer,
          specweb::RequestType::PostPayee})
        cfg.typeDeadlines[specweb::typeIndex(t)] =
            des::fromSeconds(kFlashInteractiveDeadlineMs / 1e3);
    cfg.defaultDeadline = des::fromSeconds(kFlashDefaultDeadlineMs / 1e3);
    configure(cfg);
    core::RhythmServer server(queue, device, service, cfg);
    specweb::WorkloadGenerator gen(db, 31);
    const auto sessions = server.sessions().populate(8192, 2000);
    std::optional<fault::FaultPlan> plan;
    const auto journal = faults.arm(server, device, queue, plan);

    FlashArm arm;
    net::ArrivalProcess process(arrivals);
    process.drive(queue, requests, [&](uint64_t i) {
        if (!server.injectRequest(
                gen.fromPool(gen.sampleBrowsingType(), sessions, i).raw,
                i + 1))
            ++arm.drops;
    });
    queue.run();

    const core::RhythmStats &stats = server.stats();
    const double elapsed = des::toSeconds(queue.now());
    if (elapsed > 0) {
        arm.goodput = static_cast<double>(stats.typedDeadlineHits) / elapsed;
        arm.throughput =
            static_cast<double>(stats.responsesCompleted) / elapsed;
    }
    arm.p99Ms = stats.latencyMs.percentile(99.0);
    inspect(stats, cfg);
    return arm;
}

} // namespace rhythm::bench

#endif // RHYTHM_BENCH_FLASH_RIG_HH
