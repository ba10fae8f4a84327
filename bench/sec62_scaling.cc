/**
 * @file
 * Section 6.2: scaling many-core processors — how many replicated ARM
 * A9 / Core i5 cores match Titan B's and Titan C's throughput, and how
 * much power headroom remains for the uncore. Paper: 192 ARM / 21 i5
 * cores vs Titan B leaving 40 W (21%) / 22 W (10%); 385 ARM / 41 i5 vs
 * Titan C leaving Titan C >170 W to implement the transpose offload.
 */

#include <iostream>

#include "bench/common.hh"
#include "platform/cpu.hh"
#include "platform/measure.hh"
#include "platform/titan.hh"

int
main(int argc, char **argv)
{
    using namespace rhythm;
    const Flags flags = bench::parseArgs(
        argc, argv, {bench::FaultFlags::kTable, bench::OverlapFlags::kTable});
    bench::Reporter report("sec62_scaling", flags);
    bench::banner("Section 6.2: scaling many-core processors",
                  "Section 6.2 (replicated cores vs Rhythm on Titan B/C)");

    platform::WorkloadMeasurement wm =
        platform::measureWorkload(60, 2000, 7);
    const double arm_core =
        platform::evaluateCpu(platform::armA9OneWorker(),
                              wm.mixWeightedInstructions)
            .throughput;
    const double i5_core =
        platform::evaluateCpu(platform::corei5OneWorker(),
                              wm.mixWeightedInstructions)
            .throughput;

    platform::IsolatedRunOptions opts;
    opts.cohorts = 10;
    opts.users = 2000;
    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    faults.apply(opts);
    faults.recordConfig(report);
    overlap.recordConfig(report);
    const auto evaluate = [&](platform::TitanVariant variant) {
        variant.server.laneSample = 128;
        faults.apply(variant);
        overlap.apply(variant);
        return platform::evaluateTitan(variant, opts);
    };
    platform::TitanWorkloadResult b = evaluate(platform::titanB());
    platform::TitanWorkloadResult c = evaluate(platform::titanC());

    // Paper reference points: (cores, scaled W, headroom W, headroom %).
    struct Ref
    {
        double cores, scaled, headroom_pct;
    };
    const Ref refs[4] = {{192, 192, 21}, {21, 210, 10},
                         {385, 385, -66}, {41, 410, -77}};

    TableWriter table({"target", "core", "cores needed", "scaled W",
                       "titan dynamic W", "headroom W", "headroom %"});
    int r = 0;
    for (const auto &[label, titan] :
         {std::pair<const char *, platform::TitanWorkloadResult &>{
              "Titan B", b},
          {"Titan C", c}}) {
        for (const auto &[core_name, core_thr, core_w] :
             {std::tuple<const char *, double, double>{"ARM A9", arm_core,
                                                       1.0},
              {"Core i5", i5_core, 10.0}}) {
            platform::ScalingResult s = platform::scaleToMatch(
                core_name, titan.throughput, core_thr, core_w,
                titan.dynamicWatts);
            const std::string key =
                bench::slug(label) + "." + bench::slug(core_name);
            report.metric(key + ".cores_needed", s.coresNeeded);
            report.metric(key + ".headroom_watts", s.headroomWatts);
            table.addRow(
                {label, core_name,
                 bench::withRef(s.coresNeeded, refs[r].cores, 0),
                 bench::withRef(s.scaledPowerWatts, refs[r].scaled, 0),
                 bench::fmt(s.titanPowerWatts, 0),
                 bench::fmt(s.headroomWatts, 0),
                 bench::withRef(s.headroomPercent, refs[r].headroom_pct,
                                0)});
            ++r;
        }
    }
    table.printAscii(std::cout);
    std::cout
        << "Each 'cores needed' cell: measured (paper). Negative "
           "headroom for Titan C\nmeans the replicated design exceeds "
           "Titan C's power before any uncore is added\n(the paper "
           "frames it as Titan C having >170 W to spend on the "
           "transpose offload).\n";
    report.config("cohorts", opts.cohorts);
    report.config("users", opts.users);
    auto worst_p99 = [](const platform::TitanWorkloadResult &w) {
        double p99 = 0.0;
        for (const auto &t : w.perType)
            p99 = std::max(p99, t.p99LatencyMs);
        return p99;
    };
    report.metric("titan_b.throughput", b.throughput);
    report.metric("titan_c.throughput", c.throughput);
    report.metric("titan_b.p99_latency_ms", worst_p99(b));
    report.metric("titan_c.p99_latency_ms", worst_p99(c));
    if (!report.write())
        return 1;
    return 0;
}
