/**
 * @file
 * Figure 10: per-request-type throughput-efficiency on Titan B (dynamic
 * power), normalized like Figure 8. The paper's observation: request
 * types whose responses fit their power-of-two Rhythm buffer tightly
 * (login, change profile, transfer) reach 3.5-5x the i7 throughput at
 * 105-120% of the A9's dynamic efficiency, while loose-fit types pay
 * transpose overhead on unused buffer bytes.
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
    bench::Reporter report("fig10_titanb_requests", flags);
    bench::banner("Figure 10: Titan B per-request throughput-efficiency",
                  "Figure 10 (tight-fit buffers perform best)");

    platform::WorkloadMeasurement wm =
        platform::measureWorkload(60, 2000, 7);
    auto cpus = platform::standardCpuPlatforms();
    const double i7_thr =
        platform::evaluateCpu(cpus[3], wm.mixWeightedInstructions)
            .throughput;
    const double a9_dyn_eff =
        platform::evaluateCpu(cpus[5], wm.mixWeightedInstructions)
            .reqsPerJouleDynamic;

    platform::TitanVariant b = platform::titanB();
    b.server.laneSample = 128;
    platform::IsolatedRunOptions opts;
    opts.cohorts = 10;
    opts.users = 2000;
    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    faults.apply(b);
    faults.apply(opts);
    faults.recordConfig(report);
    overlap.apply(b);
    overlap.recordConfig(report);

    TableWriter table({"request type", "resp KB / buffer KB",
                       "fit %", "norm throughput (vs i7-8w)",
                       "norm dynamic eff (vs A9-2w)", "SIMD eff"});
    for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
        const auto &info = specweb::typeTable()[i];
        platform::TypeRunResult r =
            platform::runIsolatedType(b, info.type, opts);
        const double fit =
            info.specwebResponseKb / info.rhythmBufferKb * 100.0;
        const std::string key = bench::slug(info.name);
        report.metric(key + ".norm_throughput", r.throughput / i7_thr);
        report.metric(key + ".norm_dynamic_efficiency",
                      r.reqsPerJouleDynamic / a9_dyn_eff);
        report.metric(key + ".simd_efficiency", r.simdEfficiency);
        table.addRow({std::string(info.name),
                      bench::fmt(info.specwebResponseKb, 0) + " / " +
                          std::to_string(info.rhythmBufferKb),
                      bench::fmt(fit, 0),
                      bench::fmt(r.throughput / i7_thr, 2),
                      bench::fmt(r.reqsPerJouleDynamic / a9_dyn_eff, 2),
                      bench::fmt(r.simdEfficiency, 2)});
    }
    table.printAscii(std::cout);
    std::cout
        << "Paper's observation to verify: tight-fit types (fit% high — "
           "login, change\nprofile, transfer) sit in the desired range; "
           "loose-fit types (fit% low) lose\nthroughput and efficiency "
           "to transposing unused buffer bytes.\n";
    report.config("cohorts", opts.cohorts);
    report.config("users", opts.users);
    if (!report.write())
        return 1;
    return 0;
}
