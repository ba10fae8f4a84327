/**
 * @file
 * Figure 8: throughput-efficiency scatter for wall power (8a) and
 * dynamic power (8b). Throughput is normalized to the Core i7 with 8
 * workers; efficiency (reqs/Joule) is normalized to the ARM A9 with 2
 * workers. The shaded "desired operating range" of the paper is
 * throughput >= 1.0 and efficiency >= 1.0.
 */

#include <iostream>

#include "bench/common.hh"
#include "platform/cpu.hh"
#include "platform/measure.hh"
#include "platform/titan.hh"

namespace {

/** Lanes executed per cohort in every isolated Titan run. */
constexpr uint32_t kLaneSample = 128;

struct Point
{
    std::string name;
    double throughput;
    double wallEff;
    double dynEff;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace rhythm;
    const Flags flags = bench::parseArgs(
        argc, argv, {bench::FaultFlags::kTable, bench::OverlapFlags::kTable});
    bench::Reporter report("fig8_throughput_efficiency", flags);
    bench::banner("Figure 8: throughput-efficiency (8a wall, 8b dynamic)",
                  "Figure 8 (normalized to i7-8w throughput, A9-2w "
                  "efficiency)");

    platform::WorkloadMeasurement wm =
        platform::measureWorkload(60, 2000, 7);

    std::vector<Point> points;
    auto cpus = platform::standardCpuPlatforms();
    for (const auto &cpu : cpus) {
        platform::CpuResult r =
            platform::evaluateCpu(cpu, wm.mixWeightedInstructions);
        points.push_back(Point{r.name, r.throughput, r.reqsPerJouleWall,
                               r.reqsPerJouleDynamic});
    }

    platform::IsolatedRunOptions opts;
    opts.cohorts = 10;
    opts.users = 2000;
    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    faults.apply(opts);
    faults.recordConfig(report);
    overlap.recordConfig(report);
    std::vector<platform::TitanWorkloadResult> titan_results;
    for (platform::TitanVariant variant :
         {platform::titanA(), platform::titanB(), platform::titanC()}) {
        variant.server.laneSample = kLaneSample;
        faults.apply(variant);
        overlap.apply(variant);
        platform::TitanWorkloadResult r =
            platform::evaluateTitan(variant, opts);
        points.push_back(Point{r.name, r.throughput, r.reqsPerJouleWall,
                               r.reqsPerJouleDynamic});
        titan_results.push_back(std::move(r));
    }

    // Normalization anchors.
    const Point &i7_8w = points[3];
    const Point &a9_2w = points[5];

    // Paper reference normalized values, derived from Table 3.
    const double paper_thr[] = {75.0 / 377,  282.0 / 377, 331.0 / 377,
                                1.0,         8.0 / 377,   16.0 / 377,
                                398.0 / 377, 1535.0 / 377, 3082.0 / 377};
    const double paper_wall[] = {972.0 / 2683,  2447.0 / 2683,
                                 1901.0 / 2683, 2042.0 / 2683,
                                 1672.0 / 2683, 1.0,
                                 1469.0 / 2683, 3329.0 / 2683,
                                 9070.0 / 2683};
    const double paper_dyn[] = {3283.0 / 4830,  4712.0 / 4830,
                                2735.0 / 4830,  2873.0 / 4830,
                                4061.0 / 4830,  1.0,
                                2193.0 / 4830,  4410.0 / 4830,
                                12264.0 / 4830};

    TableWriter table({"platform", "norm throughput",
                       "8a: norm wall eff", "8b: norm dynamic eff",
                       "in desired range (dyn)"});
    for (size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        const double nt = p.throughput / i7_8w.throughput;
        const double nw = p.wallEff / a9_2w.wallEff;
        const double nd = p.dynEff / a9_2w.dynEff;
        table.addRow({p.name, bench::withRef(nt, paper_thr[i], 2),
                      bench::withRef(nw, paper_wall[i], 2),
                      bench::withRef(nd, paper_dyn[i], 2),
                      (nt >= 1.0 && nd >= 1.0) ? "yes" : "no"});
    }
    table.printAscii(std::cout);
    std::cout << "Each cell: measured (paper). The paper's desired "
                 "operating range is reached\nonly by the Titan B/C "
                 "Rhythm platforms.\n";

    report.config("cohorts", opts.cohorts);
    report.config("users", opts.users);
    report.config("lane_sample", kLaneSample);
    for (const Point &p : points) {
        const std::string key = bench::slug(p.name);
        report.metric(key + ".throughput", p.throughput);
        report.metric(key + ".wall_efficiency", p.wallEff);
        report.metric(key + ".dynamic_efficiency", p.dynEff);
    }
    // Per-type warp occupancy on each Titan variant (DESIGN.md 6j):
    // SIMD efficiency and the idle tail lanes padded per type — the
    // per-type view of what cohort fusion reclaims.
    for (const platform::TitanWorkloadResult &tr : titan_results) {
        const std::string pkey = bench::slug(tr.name);
        for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
            const platform::TypeRunResult &r = tr.perType[i];
            const std::string key =
                pkey + "." +
                bench::slug(std::string(specweb::typeTable()[i].name));
            report.metric(key + ".simd_efficiency", r.simdEfficiency);
            report.metric(key + ".padded_lanes",
                          static_cast<double>(r.paddedLanes));
        }
    }
    if (!report.write())
        return 1;
    return 0;
}
