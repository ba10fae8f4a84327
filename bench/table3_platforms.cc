/**
 * @file
 * Table 3: SPECWeb Banking experimental results — power, latency,
 * throughput and requests/Joule for every platform (CPU baselines and
 * Titan A/B/C), printed next to the paper's measured values.
 *
 * Also prints Table 1 (the experimental platform descriptions) as the
 * header, since it parameterizes the models.
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
    bench::Reporter report("table3_platforms", flags);
    bench::banner("Table 1: experimental platforms",
                  "Table 1 (platform parameters used by the models)");
    {
        TableWriter t({"platform", "GHz", "description"});
        t.addRow({"Core i5", "3.4",
                  "i5 3570, 4 cores (4 threads), model: fitted IPC"});
        t.addRow({"Core i7", "3.4",
                  "i7 3770, 4 cores (8 threads), model: fitted IPC"});
        t.addRow({"ARM A9", "1.2", "OMAP 4460, 2 cores, model: fitted IPC"});
        simt::DeviceConfig dev;
        t.addRow({"Titan", "0.837",
                  std::to_string(dev.numSms) + " SMs, " +
                      std::to_string(dev.coresPerSm) + " cores/SM, " +
                      bench::fmt(dev.memBandwidthGBs, 0) + " GB/s, " +
                      std::to_string(dev.hardwareQueues) +
                      " HW queues (HyperQ), simulated"});
        t.printAscii(std::cout);
    }

    bench::banner("Table 3: platform results",
                  "Table 3 (measured (paper) for every cell)");

    platform::WorkloadMeasurement wm =
        platform::measureWorkload(60, 2000, 7);
    std::cout << "Workload: mix-weighted "
              << bench::fmt(wm.mixWeightedInstructions, 0)
              << " insts/request (paper-derived reference: 331,507)\n";

    TableWriter table({"platform", "idle W", "wall W", "dynamic W",
                       "latency ms", "KReqs/s", "reqs/J wall",
                       "reqs/J dynamic"});

    auto addRow = [&](const std::string &name, double idle, double wall,
                      double dynamic, double lat_ms, double kreqs,
                      double rpj_wall, double rpj_dyn,
                      const bench::PaperTable3Row &ref) {
        const std::string key = bench::slug(name);
        report.metric(key + ".throughput_kreqs", kreqs);
        report.metric(key + ".latency_ms", lat_ms);
        report.metric(key + ".reqs_per_joule_dynamic", rpj_dyn);
        table.addRow({name, bench::withRef(idle, ref.idleWatts, 0),
                      bench::withRef(wall, ref.wallWatts, 0),
                      bench::withRef(dynamic, ref.dynamicWatts, 0),
                      bench::withRef(lat_ms, ref.latencyMs, 3),
                      bench::withRef(kreqs, ref.throughputK, 0),
                      bench::withRef(rpj_wall, ref.rpjWall, 0),
                      bench::withRef(rpj_dyn, ref.rpjDynamic, 0)});
    };

    auto cpus = platform::standardCpuPlatforms();
    for (size_t i = 0; i < cpus.size(); ++i) {
        platform::CpuResult r =
            platform::evaluateCpu(cpus[i], wm.mixWeightedInstructions);
        addRow(r.name, r.idleWatts, r.wallWatts, r.dynamicWatts,
               r.latencyMs, r.throughput / 1e3, r.reqsPerJouleWall,
               r.reqsPerJouleDynamic, bench::kPaperTable3[i]);
    }

    platform::IsolatedRunOptions opts;
    opts.cohorts = 12;
    opts.users = 2000;
    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    faults.apply(opts);
    faults.recordConfig(report);
    overlap.recordConfig(report);
    platform::TitanVariant variants[] = {
        platform::titanA(), platform::titanB(), platform::titanC()};
    for (size_t v = 0; v < 3; ++v) {
        variants[v].server.laneSample = 128;
        faults.apply(variants[v]);
        overlap.apply(variants[v]);
        platform::TitanWorkloadResult r =
            platform::evaluateTitan(variants[v], opts);
        addRow(r.name, r.idleWatts, r.wallWatts, r.dynamicWatts,
               r.avgLatencyMs, r.throughput / 1e3, r.reqsPerJouleWall,
               r.reqsPerJouleDynamic, bench::kPaperTable3[6 + v]);
    }

    table.printAscii(std::cout);
    std::cout
        << "Each cell: measured (paper). Fidelity targets (DESIGN.md): "
           "throughput ordering\ni7 > i5 > A9; efficiency A9 >= i5 > "
           "i7; Titan A marginal & inefficient;\nTitan B ~4x i7 "
           "throughput near-A9 efficiency; Titan C ~8x i7, >=2.5x A9 "
           "dynamic\nefficiency; CPU latencies sub-ms, Titan B/C tens "
           "of ms, Titan A ~100 ms.\n";
    report.config("cohorts", opts.cohorts);
    report.config("users", opts.users);
    if (!report.write())
        return 1;
    return 0;
}
