/**
 * @file
 * Extension experiment: future data-parallel server accelerators (paper
 * Section 8 — "we plan to explore ways to increase the efficiency of
 * Rhythm by designing data parallel processors specialized for server
 * workloads").
 *
 * Evaluates the Banking workload on a ladder of hypothetical designs
 * derived from the Titan C configuration:
 *
 *  - Titan C            — the paper's best platform (reference point).
 *  - +HBM               — 2x memory bandwidth (stacked DRAM).
 *  - +SMs               — 2x SM array (+80% device power).
 *  - server SIMT        — both, plus the server-specialization savings
 *    the paper anticipates: no graphics hardware (lower idle), finer
 *    clock gating (lower active floor), low-power DRAM.
 */

#include <iostream>

#include "bench/common.hh"
#include "platform/titan.hh"

int
main(int argc, char **argv)
{
    using namespace rhythm;
    const Flags flags = bench::parseArgs(
        argc, argv, {bench::FaultFlags::kTable, bench::OverlapFlags::kTable});
    bench::Reporter report("ext_future_accelerator", flags);
    bench::banner("Extension: future server accelerators",
                  "Section 8 (specialized data-parallel server designs)");

    struct Design
    {
        const char *name;
        int smMultiplier;
        double bwMultiplier;
        double peakWatts;
        double activeFloor;
        double idleWatts;
    };
    const Design designs[] = {
        {"Titan C (paper best)", 1, 1.0, 225.0, 0.45, 74.0},
        {"+HBM (2x bandwidth)", 1, 2.0, 235.0, 0.45, 74.0},
        {"+SMs (2x array)", 2, 1.0, 405.0, 0.45, 74.0},
        {"server SIMT (both + specialization)", 2, 2.0, 380.0, 0.25,
         40.0},
    };

    platform::IsolatedRunOptions opts;
    opts.cohorts = 10;
    opts.users = 2000;
    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    faults.apply(opts);
    faults.recordConfig(report);
    overlap.recordConfig(report);

    TableWriter table({"design", "MReqs/s", "latency ms", "dynamic W",
                       "reqs/J wall", "vs Titan C"});
    double baseline = 0.0;
    for (const Design &d : designs) {
        platform::TitanVariant v = platform::titanC();
        v.name = d.name;
        v.device.numSms *= d.smMultiplier;
        v.device.memBandwidthGBs *= d.bwMultiplier;
        v.power.devicePeakWatts = d.peakWatts;
        v.power.deviceActiveFloor = d.activeFloor;
        v.power.idleWatts = d.idleWatts;
        // More SMs need proportionally more cohorts in flight.
        v.server.cohortContexts =
            8u * static_cast<uint32_t>(d.smMultiplier);
        v.server.laneSample = 128;
        faults.apply(v);
        overlap.apply(v);

        platform::TitanWorkloadResult r =
            platform::evaluateTitan(v, opts);
        if (baseline == 0.0)
            baseline = r.throughput;
        const std::string key = bench::slug(d.name);
        report.metric(key + ".throughput", r.throughput);
        report.metric(key + ".reqs_per_joule_wall", r.reqsPerJouleWall);
        table.addRow({d.name, bench::fmt(r.throughput / 1e6, 2),
                      bench::fmt(r.avgLatencyMs, 1),
                      bench::fmt(r.dynamicWatts, 0),
                      bench::fmt(r.reqsPerJouleWall, 0),
                      bench::fmt(r.throughput / baseline, 2) + "x"});
    }
    table.printAscii(std::cout);
    std::cout
        << "No paper reference — this experiment extends the paper. "
           "Expected shape: the\nBanking pipeline on Titan C is "
           "memory-bound (transposes & response stores), so\nbandwidth "
           "scales throughput more than SMs do; combining both with "
           "server\nspecialization compounds throughput and efficiency "
           "gains.\n";
    report.config("cohorts", opts.cohorts);
    if (!report.write())
        return 1;
    return 0;
}
