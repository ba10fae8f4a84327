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

#include "bench/flash_rig.hh"

namespace {

using namespace rhythm;

constexpr double kFormationTimeoutMs = 1.0;
constexpr uint32_t kCohortSize = 128;
constexpr uint32_t kLaneSample = 128;
constexpr uint32_t kContexts = 32;

struct RunResult
{
    bench::FlashArm arm;
    double simdEfficiency = 0.0; //!< process-stage SIMD efficiency
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
    RunResult r;
    auto configure = [&](core::RhythmConfig &cfg) {
        cfg.cohortSize = kCohortSize;
        cfg.cohortContexts = kContexts;
        cfg.cohortTimeout = des::fromSeconds(kFormationTimeoutMs / 1e3);
        cfg.laneSample = kLaneSample;
        // Identical deadlines and formation policy in both arms; only
        // the fusion bit (and its knobs) differs.
        cfg.adaptiveBatching = true;
        if (fusion) {
            // The fusion arm takes the command-line fusion knobs.
            bench::FusionFlags on = fusion_flags;
            on.fusion = true;
            on.apply(cfg);
        }
    };
    auto inspect = [&](const core::RhythmStats &stats,
                       const core::RhythmConfig &cfg) {
        r.simdEfficiency =
            stats.processIssueSlots > 0
                ? stats.processLaneInstructions /
                      (stats.processIssueSlots * cfg.warpModel.warpWidth)
                : 0.0;
        r.cohortsLaunched = stats.cohortsLaunched;
        r.fusedLaunches = stats.fusedLaunches;
        r.fusedCohorts = stats.fusedCohorts;
        r.savedWarps = stats.fusionSavedWarps;
        r.paddedLanes = stats.paddedLanes;
    };
    r.arm = bench::runFlashArm(acfg, requests, faults, configure, inspect);
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
    const bench::FusionFlags fusion(flags);

    // Operating points: the §6i flash shape at a rate where cohorts of
    // most types are partial when the 1 ms formation timeout fires.
    const bench::FlashArrivals arrivals(flags, 150e3);
    const uint64_t n_low = quick ? 3000 : 10000;
    const uint64_t n_flash = quick ? 5000 : 20000;

    arrivals.recordConfig(report);
    report.config("cohort_size", static_cast<double>(kCohortSize));
    report.config("timeout_ms", kFormationTimeoutMs);
    report.config("fusion_threshold", fusion.threshold);
    report.config("quick", quick ? 1.0 : 0.0);

    const bench::FlashPoint sweep[] = {
        {"low", &arrivals.low, n_low},
        {"flash", &arrivals.flash, n_flash},
    };

    TableWriter table({"point", "fusion", "SIMD eff", "on-time K/s",
                       "KReqs/s", "p99 ms", "launches", "fused",
                       "warps saved", "padded lanes"});
    double flash_simd_ratio = 0.0;
    double flash_goodput_ratio = 0.0;
    for (const bench::FlashPoint &p : sweep) {
        const RunResult off =
            runPoint(*p.arrivals, false, p.requests, faults, fusion);
        const RunResult on =
            runPoint(*p.arrivals, true, p.requests, faults, fusion);
        const double simd_ratio =
            off.simdEfficiency > 0 ? on.simdEfficiency / off.simdEfficiency
                                   : 0.0;
        const double goodput_ratio =
            off.arm.goodput > 0 ? on.arm.goodput / off.arm.goodput : 0.0;
        if (std::string_view(p.key) == "flash") {
            flash_simd_ratio = simd_ratio;
            flash_goodput_ratio = goodput_ratio;
        }
        for (const auto &[mode, r] :
             {std::pair<const char *, const RunResult &>{"off", off},
              {"on", on}}) {
            table.addRow({p.key, mode, bench::fmt(r.simdEfficiency, 3),
                          bench::fmt(r.arm.goodput / 1e3, 1),
                          bench::fmt(r.arm.throughput / 1e3, 1),
                          bench::fmt(r.arm.p99Ms, 2),
                          withCommas(r.cohortsLaunched),
                          withCommas(r.fusedCohorts),
                          withCommas(r.savedWarps),
                          withCommas(r.paddedLanes)});
            const std::string key =
                std::string(p.key) + "." + mode + ".";
            report.metric(key + "simd_efficiency", r.simdEfficiency);
            report.metric(key + "goodput", r.arm.goodput);
            report.metric(key + "throughput", r.arm.throughput);
            report.metric(key + "p99_ms", r.arm.p99Ms);
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
