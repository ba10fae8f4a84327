/**
 * @file
 * Extension experiment: sub-warp packing and cross-type cohort fusion
 * (DESIGN.md §6j).
 *
 * Drives the mixed Banking workload on Titan B with seeded open-loop
 * arrivals and deliberately small cohorts under a tight formation
 * timeout, so launches are dominated by partially-filled cohorts — the
 * regime where warp-width padding craters SIMD efficiency. Two
 * operating points:
 *
 *   low    steady Poisson well under capacity
 *   flash  the low rate with a flash-crowd burst riding on top (the
 *          §6i flash shape: many types time out simultaneously with
 *          fractional-warp tails)
 *
 * Each point runs twice: --fusion=off (every partial cohort pads its
 * tail warp to the warp width) and --fusion=on (similarity-compatible
 * partial cohorts of different request types share tail warps, with
 * same-type lanes placed contiguously). Both arms use the adaptive
 * formation policy and byte-identical arrival schedules; the delivered
 * responses are byte-identical on or off (the §6j determinism
 * contract, gated separately in CI) — only warp occupancy and timing
 * move.
 *
 * Acceptance gate (at the flash point): fusion must deliver >= 1.15x
 * the process SIMD efficiency of the unfused run, OR >= 1.10x the
 * on-time goodput. check_bench.py enforces the same conditions (plus
 * an absolute SIMD-efficiency floor) against the committed baseline.
 */

#include <iostream>

#include "backend/bankdb.hh"
#include "bench/common.hh"
#include "net/arrival.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/server.hh"
#include "specweb/workload.hh"

namespace {

using namespace rhythm;

constexpr double kDefaultDeadlineMs = 8.0;
constexpr double kInteractiveDeadlineMs = 3.0;
constexpr double kFormationTimeoutMs = 1.0;
constexpr uint32_t kCohortSize = 128;
constexpr uint32_t kLaneSample = 128;
constexpr uint32_t kContexts = 32;

/** Interactive money-movement types carrying the tight deadline. */
constexpr specweb::RequestType kInteractive[] = {
    specweb::RequestType::Transfer,
    specweb::RequestType::PostTransfer,
    specweb::RequestType::PostPayee,
};

struct RunResult
{
    double simdEfficiency = 0.0; //!< process-stage SIMD efficiency
    double goodput = 0.0;        //!< on-time responses per second
    double throughput = 0.0;     //!< completed responses per second
    double p99Ms = 0.0;
    uint64_t cohortsLaunched = 0;
    uint64_t fusedLaunches = 0;
    uint64_t fusedCohorts = 0;
    uint64_t savedWarps = 0;
    uint64_t paddedLanes = 0;
};

RunResult
runPoint(const net::ArrivalConfig &acfg, bool fusion, uint64_t requests,
         const bench::FaultFlags &faults,
         const bench::FusionFlags &fusion_flags)
{
    des::EventQueue queue;
    simt::DeviceConfig dcfg;
    faults.apply(dcfg);
    simt::Device device(queue, dcfg);
    backend::BankDb db(2000, 5);
    core::BankingService service(db);

    core::RhythmConfig cfg;
    cfg.cohortSize = kCohortSize;
    cfg.cohortContexts = kContexts;
    cfg.cohortTimeout = des::fromSeconds(kFormationTimeoutMs / 1e3);
    cfg.backendOnDevice = true; // Titan B
    cfg.networkOverPcie = false;
    cfg.laneSample = kLaneSample;
    faults.apply(cfg);
    // Identical deadlines and formation policy in both arms; only the
    // fusion bit (and its knobs) differs.
    cfg.typeDeadlines.assign(service.numTypes(), 0);
    for (specweb::RequestType t : kInteractive)
        cfg.typeDeadlines[specweb::typeIndex(t)] =
            des::fromSeconds(kInteractiveDeadlineMs / 1e3);
    cfg.defaultDeadline = des::fromSeconds(kDefaultDeadlineMs / 1e3);
    cfg.adaptiveBatching = true;
    if (fusion) {
        // The fusion arm takes the command-line fusion knobs.
        bench::FusionFlags on = fusion_flags;
        on.fusion = true;
        on.apply(cfg);
    }
    core::RhythmServer server(queue, device, service, cfg);
    specweb::WorkloadGenerator gen(db, 31);
    const auto sessions = server.sessions().populate(8192, 2000);
    std::optional<fault::FaultPlan> plan;
    const auto journal = faults.arm(server, device, queue, plan);

    // Open-loop mixed-type arrivals: both arms construct the same
    // generator and ArrivalProcess seeds, so they see byte-identical
    // request and arrival-time streams.
    net::ArrivalProcess arrivals(acfg);
    arrivals.drive(queue, requests, [&](uint64_t i) {
        server.injectRequest(
            gen.fromPool(gen.sampleBrowsingType(), sessions, i).raw, i + 1);
    });
    queue.run();

    const core::RhythmStats &stats = server.stats();
    const double elapsed = des::toSeconds(queue.now());
    RunResult r;
    r.simdEfficiency =
        stats.processIssueSlots > 0
            ? stats.processLaneInstructions /
                  (stats.processIssueSlots * cfg.warpModel.warpWidth)
            : 0.0;
    r.goodput = elapsed > 0
                    ? static_cast<double>(stats.typedDeadlineHits) /
                          elapsed
                    : 0.0;
    r.throughput =
        elapsed > 0 ? static_cast<double>(stats.responsesCompleted) /
                          elapsed
                    : 0.0;
    r.p99Ms = stats.latencyMs.percentile(99.0);
    r.cohortsLaunched = stats.cohortsLaunched;
    r.fusedLaunches = stats.fusedLaunches;
    r.fusedCohorts = stats.fusedCohorts;
    r.savedWarps = stats.fusionSavedWarps;
    r.paddedLanes = stats.paddedLanes;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const Flags flags = bench::parseArgs(
        argc, argv,
        {bench::kQuickFlags, bench::FaultFlags::kTable,
         bench::ArrivalFlags::kTable, bench::FusionFlags::kTable});
    bench::Reporter report("ext_warp_fusion", flags);
    bench::banner(
        "Extension: sub-warp packing / cross-type cohort fusion",
        "DESIGN.md 6j (>=1.15x SIMD efficiency or >=1.10x goodput at "
        "flash)");

    const bool quick = flags.on("quick");
    const bench::FaultFlags faults(flags);
    faults.recordConfig(report);
    const bench::ArrivalFlags arrival(flags);
    const bench::FusionFlags fusion(flags);

    // Operating points: the §6i flash shape at a rate where cohorts of
    // most types are partial when the 1 ms formation timeout fires.
    const double base_rate =
        flags.has("arrival-rate") ? arrival.config.rate : 150e3;
    const uint64_t seed = arrival.config.seed;
    const double flash_mult = arrival.config.flashMultiplier;
    const uint64_t n_low = quick ? 3000 : 10000;
    const uint64_t n_flash = quick ? 5000 : 20000;

    net::ArrivalConfig low;
    low.kind = net::ArrivalKind::Poisson;
    low.rate = base_rate;
    low.seed = seed;
    net::ArrivalConfig flash = low;
    flash.kind = net::ArrivalKind::Flash;
    flash.flashStartSec = 0.05;
    flash.flashDurationSec = 0.1;
    flash.flashMultiplier = flash_mult;

    // check_bench.py requires these keys: the sweep under test must be
    // reproducible from the document alone.
    report.config("arrival_rate", base_rate);
    report.config("arrival_seed", static_cast<double>(seed));
    report.config("flash_mult", flash_mult);
    report.config("cohort_size", static_cast<double>(kCohortSize));
    report.config("timeout_ms", kFormationTimeoutMs);
    report.config("fusion_threshold", fusion.threshold);
    report.config("quick", quick ? 1.0 : 0.0);

    struct Point
    {
        const char *key;
        const char *label;
        const net::ArrivalConfig *cfg;
        uint64_t requests;
    };
    const Point points[] = {
        {"low", "LOW (steady Poisson)", &low, n_low},
        {"flash", "FLASH (burst on low)", &flash, n_flash},
    };

    TableWriter table({"point", "fusion", "SIMD eff", "on-time K/s",
                       "KReqs/s", "p99 ms", "launches", "fused",
                       "warps saved", "padded lanes"});
    double flash_simd_ratio = 0.0;
    double flash_goodput_ratio = 0.0;
    for (const Point &p : points) {
        const RunResult off =
            runPoint(*p.cfg, false, p.requests, faults, fusion);
        const RunResult on =
            runPoint(*p.cfg, true, p.requests, faults, fusion);
        const double simd_ratio =
            off.simdEfficiency > 0 ? on.simdEfficiency / off.simdEfficiency
                                   : 0.0;
        const double goodput_ratio =
            off.goodput > 0 ? on.goodput / off.goodput : 0.0;
        if (std::string_view(p.key) == "flash") {
            flash_simd_ratio = simd_ratio;
            flash_goodput_ratio = goodput_ratio;
        }
        for (const auto &[mode, r] :
             {std::pair<const char *, const RunResult &>{"off", off},
              {"on", on}}) {
            table.addRow({p.key, mode, bench::fmt(r.simdEfficiency, 3),
                          bench::fmt(r.goodput / 1e3, 1),
                          bench::fmt(r.throughput / 1e3, 1),
                          bench::fmt(r.p99Ms, 2),
                          withCommas(r.cohortsLaunched),
                          withCommas(r.fusedCohorts),
                          withCommas(r.savedWarps),
                          withCommas(r.paddedLanes)});
            const std::string key =
                std::string(p.key) + "." + mode + ".";
            report.metric(key + "simd_efficiency", r.simdEfficiency);
            report.metric(key + "goodput", r.goodput);
            report.metric(key + "throughput", r.throughput);
            report.metric(key + "p99_ms", r.p99Ms);
            report.metric(key + "padded_lanes",
                          static_cast<double>(r.paddedLanes));
        }
        report.metric(std::string(p.key) + ".simd_ratio", simd_ratio);
        report.metric(std::string(p.key) + ".goodput_ratio",
                      goodput_ratio);
        report.metric(std::string(p.key) + ".fused_launches",
                      static_cast<double>(on.fusedLaunches));
        report.metric(std::string(p.key) + ".fused_cohorts",
                      static_cast<double>(on.fusedCohorts));
        report.metric(std::string(p.key) + ".saved_warps",
                      static_cast<double>(on.savedWarps));
    }
    table.printAscii(std::cout);

    const bool pass =
        flash_simd_ratio >= 1.15 || flash_goodput_ratio >= 1.10;
    std::cout << "\nFlash point: SIMD efficiency ratio "
              << bench::fmt(flash_simd_ratio, 2)
              << "x, on-time goodput ratio "
              << bench::fmt(flash_goodput_ratio, 2)
              << "x\nGate: >=1.15x SIMD efficiency or >=1.10x on-time "
                 "goodput\nVerdict: "
              << (pass ? "PASS" : "FAIL") << "\n";
    report.metric("flash_simd_ratio", flash_simd_ratio);
    report.metric("flash_goodput_ratio", flash_goodput_ratio);
    report.metric("acceptance_pass", pass ? 1.0 : 0.0);
    if (!report.write())
        return 1;
    return pass ? 0 : 1;
}
