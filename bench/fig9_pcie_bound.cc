/**
 * @file
 * Figure 9: PCIe 3.0 limitations on Titan A — achieved throughput vs
 * the analytic PCIe-bandwidth bound for every request type. The paper
 * observes every type achieving 83-95% of its bound, demonstrating the
 * PCIe link is Titan A's bottleneck (the structural hazard that stalls
 * the Rhythm pipeline).
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
    bench::Reporter report("fig9_pcie_bound", flags);
    bench::banner("Figure 9: Titan A achieved vs PCIe 3.0 bound",
                  "Figure 9 (achieved within 83-95% of bound per type)");

    platform::TitanVariant a = platform::titanA();
    a.server.laneSample = 128;
    platform::IsolatedRunOptions opts;
    opts.cohorts = 10;
    opts.users = 2000;
    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    faults.apply(a);
    faults.apply(opts);
    faults.recordConfig(report);
    overlap.apply(a);
    overlap.recordConfig(report);

    TableWriter table({"request type", "achieved KReqs/s",
                       "PCIe bound KReqs/s", "achieved/bound %",
                       "h2d B/req", "d2h B/req", "h2d util", "d2h util",
                       "overlap"});
    double min_ratio = 1.0, max_ratio = 0.0;
    for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
        const auto &info = specweb::typeTable()[i];
        platform::TypeRunResult r =
            platform::runIsolatedType(a, info.type, opts);
        const double bound = platform::pcieThroughputBound(a, info.type);
        const double ratio = r.throughput / bound;
        min_ratio = std::min(min_ratio, ratio);
        max_ratio = std::max(max_ratio, ratio);
        const std::string key = bench::slug(info.name);
        report.metric(key + ".throughput", r.throughput);
        report.metric(key + ".bound_ratio", ratio);
        report.metric(key + ".p99_latency_ms", r.p99LatencyMs);
        // Per-type PCIe utilization and wire-byte breakdown (each DMA
        // direction separately, not just the aggregate).
        report.metric(key + ".pcie_h2d_util", r.h2dUtilization);
        report.metric(key + ".pcie_d2h_util", r.d2hUtilization);
        report.metric(key + ".pcie_h2d_bytes_per_req",
                      static_cast<double>(r.h2dBytesPerRequest));
        report.metric(key + ".pcie_d2h_bytes_per_req",
                      static_cast<double>(r.d2hBytesPerRequest));
        report.metric(key + ".pcie_bytes_per_req",
                      static_cast<double>(r.pcieBytesPerRequest));
        report.metric(key + ".pcie_wire_bytes_per_req",
                      static_cast<double>(r.pcieWireBytesPerRequest));
        report.metric(key + ".overlap_fraction", r.overlapFraction);
        // Per-type warp occupancy (DESIGN.md 6j): how efficiently this
        // type fills its warps, and the idle tail lanes it paid for.
        report.metric(key + ".simd_efficiency", r.simdEfficiency);
        report.metric(key + ".padded_lanes",
                      static_cast<double>(r.paddedLanes));
        table.addRow({std::string(info.name),
                      bench::fmt(r.throughput / 1e3, 1),
                      bench::fmt(bound / 1e3, 1),
                      bench::fmt(ratio * 100.0, 1),
                      std::to_string(r.h2dBytesPerRequest),
                      std::to_string(r.d2hBytesPerRequest),
                      bench::fmt(r.h2dUtilization, 2),
                      bench::fmt(r.d2hUtilization, 2),
                      bench::fmt(r.overlapFraction, 2)});
    }
    table.printAscii(std::cout);
    std::cout << "Achieved/bound range: " << bench::fmt(min_ratio * 100, 1)
              << "% - " << bench::fmt(max_ratio * 100, 1)
              << "% (paper: 83% - 95%).\n"
              << "PCIe 4.0 note (paper Section 6.1.1): doubling link "
                 "bandwidth doubles the bound;\nrerun with "
                 "device.pcieBandwidthGBs = 24 to reproduce that "
                 "projection.\n";
    report.config("cohorts", opts.cohorts);
    report.config("users", opts.users);
    report.config("lane_sample", a.server.laneSample);
    if (!report.write())
        return 1;
    return 0;
}
