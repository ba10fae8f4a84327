/**
 * @file
 * Methodology validation: lane-sampling fidelity.
 *
 * The Titan experiments execute a sample of each cohort's lanes and
 * scale the kernel profiles (DESIGN.md §5) — the standard sampling trade
 * of architectural simulators. This bench quantifies the error that
 * sampling introduces: the same run at full execution vs progressively
 * smaller samples.
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
    bench::Reporter report("ablation_sampling", flags);
    bench::banner("Methodology: lane-sampling fidelity",
                  "DESIGN.md Section 5 (profile scaling)");

    platform::TitanVariant b = platform::titanB();
    b.server.cohortSize = 512; // small enough to run unsampled quickly
    platform::IsolatedRunOptions opts;
    opts.cohorts = 6;
    opts.users = 1000;
    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    faults.apply(b);
    faults.apply(opts);
    faults.recordConfig(report);
    overlap.apply(b);
    overlap.recordConfig(report);

    TableWriter table({"lanes executed / cohort", "KReqs/s",
                       "latency ms", "throughput error %"});
    double full_throughput = 0.0;
    for (uint32_t sample : {0u, 256u, 128u, 64u, 32u}) {
        b.server.laneSample = sample;
        platform::TypeRunResult r = platform::runIsolatedType(
            b, specweb::RequestType::BillPay, opts);
        if (sample == 0)
            full_throughput = r.throughput;
        const double err =
            (r.throughput - full_throughput) / full_throughput * 100.0;
        table.addRow({sample == 0 ? "512 (full)" : std::to_string(sample),
                      bench::fmt(r.throughput / 1e3, 1),
                      bench::fmt(r.avgLatencyMs, 2),
                      bench::fmt(err, 1)});
        const std::string key =
            "sample_" + (sample == 0 ? "full" : std::to_string(sample));
        report.metric(key + ".throughput", r.throughput);
        report.metric(key + ".error_pct", err);
    }
    table.printAscii(std::cout);
    std::cout << "Expected: sampling error within a few percent down to "
                 "one warp's worth of\nlanes — same-type requests are "
                 "statistically interchangeable, which is the very\n"
                 "property Rhythm exploits.\n";
    if (!report.write())
        return 1;
    return 0;
}
