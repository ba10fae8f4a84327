/**
 * @file
 * Section 6.4 "HyperQ": the same Rhythm workload on a device with a
 * single hardware work queue (GTX690-style — commands from all streams
 * serialize in enqueue order, creating false dependencies between
 * process kernels) vs the Titan's 32 HyperQ queues. The paper found the
 * single queue "limiting throughput" and HyperQ essential to exploiting
 * Rhythm's concurrency.
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
    bench::Reporter report("sec64_hyperq", flags);
    bench::banner("Section 6.4: HyperQ ablation",
                  "Section 6.4 (single work queue vs 32 HyperQ queues)");

    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    faults.recordConfig(report);
    overlap.recordConfig(report);

    TableWriter table({"hardware queues", "KReqs/s", "avg latency ms",
                       "device util"});
    for (int queues : {1, 2, 4, 8, 16, 32}) {
        platform::TitanVariant b = platform::titanB();
        b.device.hardwareQueues = queues;
        b.server.cohortSize = 1024; // small cohorts stress concurrency
        b.server.laneSample = 128;
        platform::IsolatedRunOptions opts;
        opts.cohorts = 24;
        opts.users = 2000;
        faults.apply(b);
        faults.apply(opts);
        overlap.apply(b);
        platform::TypeRunResult r = platform::runIsolatedType(
            b, specweb::RequestType::CheckDetailHtml, opts);
        table.addRow({std::to_string(queues),
                      bench::fmt(r.throughput / 1e3, 0),
                      bench::fmt(r.avgLatencyMs, 2),
                      bench::fmt(r.deviceUtilization, 2)});
        const std::string key = "queues_" + std::to_string(queues);
        report.metric(key + ".throughput", r.throughput);
        report.metric(key + ".device_utilization", r.deviceUtilization);
    }
    table.printAscii(std::cout);
    std::cout << "Expected shape (paper): a single queue (GTX690) "
                 "serializes kernels from\ndifferent cohorts and limits "
                 "throughput and utilization; HyperQ (32 queues)\nlets "
                 "inflight cohorts overlap and saturate the device.\n";
    if (!report.write())
        return 1;
    return 0;
}
