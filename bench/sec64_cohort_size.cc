/**
 * @file
 * Section 6.4 "Cohort Size sensitivity": sweep cohort sizes 256-8192 on
 * Titan B. The paper found 4096 the right balance: larger cohorts launch
 * more work per kernel (throughput up) but grow memory linearly and add
 * formation latency; smaller cohorts underfill the machine.
 */

#include <iostream>

#include "bench/common.hh"
#include "platform/titan.hh"
#include "rhythm/banking_service.hh"

int
main(int argc, char **argv)
{
    using namespace rhythm;
    const Flags flags = bench::parseArgs(
        argc, argv, {bench::FaultFlags::kTable, bench::OverlapFlags::kTable});
    bench::Reporter report("sec64_cohort_size", flags);
    bench::banner("Section 6.4: cohort size sensitivity",
                  "Section 6.4 (4096 balances throughput vs memory)");

    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    faults.recordConfig(report);
    overlap.recordConfig(report);

    TableWriter table({"cohort size", "KReqs/s", "avg latency ms",
                       "device util", "pool memory MiB"});
    const uint32_t sizes[] = {256, 512, 1024, 2048, 4096, 8192};
    for (uint32_t size : sizes) {
        platform::TitanVariant b = platform::titanB();
        b.server.cohortSize = size;
        b.server.laneSample = std::min<uint32_t>(size, 128);
        platform::IsolatedRunOptions opts;
        opts.cohorts = std::max<uint32_t>(6, 32768 / size);
        opts.users = 2000;
        faults.apply(b);
        faults.apply(opts);
        overlap.apply(b);

        platform::TypeRunResult r = platform::runIsolatedType(
            b, specweb::RequestType::AccountSummary, opts);

        // Pool memory from the server's own accounting.
        des::EventQueue queue;
        simt::Device device(queue, b.device);
        backend::BankDb db(10, 1);
        core::BankingService service(db);
        core::RhythmServer server(queue, device, service, b.server);
        const double pool_mib =
            static_cast<double>(server.memoryFootprintBytes() -
                                server.sessions().footprintBytes()) /
            (1 << 20);

        table.addRow({std::to_string(size),
                      bench::fmt(r.throughput / 1e3, 0),
                      bench::fmt(r.avgLatencyMs, 2),
                      bench::fmt(r.deviceUtilization, 2),
                      bench::fmt(pool_mib, 0)});
        const std::string key = "cohort_" + std::to_string(size);
        report.metric(key + ".throughput", r.throughput);
        report.metric(key + ".avg_latency_ms", r.avgLatencyMs);
    }
    table.printAscii(std::cout);
    std::cout << "Expected shape (paper): throughput rises with cohort "
                 "size and saturates by 4096;\nmemory grows linearly; "
                 "latency grows with formation+execution time. 4096 is "
                 "the\nbalance point on a 6 GB device.\n";
    if (!report.write())
        return 1;
    return 0;
}
