/**
 * @file
 * Section 4.3.2 ablation: the buffer-layout design choices. Compares,
 * on Titan B, the three data-layout strategies the paper discusses:
 *
 *  1. transposed buffers + whitespace padding (the Rhythm design),
 *  2. transposed buffers without padding (misaligned lane pointers),
 *  3. row-major buffers (uncoalesced stores).
 *
 * The paper motivates transpose+padding qualitatively ("performs
 * poorly" for alternatives); this bench quantifies the gap.
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
    bench::Reporter report("ablation_layout", flags);
    bench::banner("Ablation: cohort buffer layout (Section 4.3.2)",
                  "Section 4.3.2 (transpose + whitespace padding)");

    struct Config
    {
        const char *name;
        bool transpose;
        bool pad;
    };
    const Config configs[] = {
        {"transposed + padded (Rhythm)", true, true},
        {"transposed, no padding", true, false},
        {"row-major (no transpose)", false, false},
    };

    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    faults.recordConfig(report);
    overlap.recordConfig(report);

    TableWriter table({"layout", "KReqs/s", "avg latency ms",
                       "device util", "SIMD eff"});
    for (const Config &cfg : configs) {
        platform::TitanVariant b = platform::titanB();
        b.server.transposeBuffers = cfg.transpose;
        b.server.padResponses = cfg.pad;
        b.server.laneSample = 128;
        platform::IsolatedRunOptions opts;
        opts.cohorts = 10;
        opts.users = 2000;
        faults.apply(b);
        faults.apply(opts);
        overlap.apply(b);
        platform::TypeRunResult r = platform::runIsolatedType(
            b, specweb::RequestType::AccountSummary, opts);
        table.addRow({cfg.name, bench::fmt(r.throughput / 1e3, 0),
                      bench::fmt(r.avgLatencyMs, 2),
                      bench::fmt(r.deviceUtilization, 2),
                      bench::fmt(r.simdEfficiency, 2)});
        const std::string key =
            cfg.transpose ? (cfg.pad ? "transposed_padded"
                                     : "transposed_unpadded")
                          : "row_major";
        report.metric(key + ".throughput", r.throughput);
        report.metric(key + ".simd_efficiency", r.simdEfficiency);
    }
    table.printAscii(std::cout);
    std::cout << "Expected shape (paper): row-major stores are "
                 "uncoalesced (up to 32x DRAM\ntraffic) and unpadded "
                 "transposed buffers lose alignment on dynamic "
                 "content;\nthe Rhythm layout wins on throughput.\n";
    if (!report.write())
        return 1;
    return 0;
}
