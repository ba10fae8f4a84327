/**
 * @file
 * Figure 2: potential speedup of the SPECWeb2009 Banking workload on
 * data-parallel hardware, relative to ideal (linear) speedup.
 *
 * Methodology (paper Section 2.3): capture dynamic basic-block traces of
 * independent same-type requests, merge them in lockstep, and report
 * (sum of trace lengths / merged length) normalized by the trace count.
 * The paper merged 2-6 Pin traces per type (most types: 5) and observed
 * nearly linear speedup for every request type.
 */

#include <iostream>

#include "analysis/similarity.hh"
#include "bench/common.hh"
#include "specweb/types.hh"

int
main(int argc, char **argv)
{
    using namespace rhythm;
    bench::Reporter report("fig2_similarity", bench::parseArgs(argc, argv));
    bench::banner("Figure 2: request similarity / potential SIMD speedup",
                  "Section 2.3, Figure 2 (nearly linear for all types)");

    TableWriter table({"request type", "traces", "sum blocks",
                       "merged blocks", "speedup",
                       "normalized (paper: ~1.0)"});

    double min_normalized = 1.0;
    for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
        const auto &info = specweb::typeTable()[i];
        // The paper merges 2-6 traces per type, most types 5.
        const int traces = 5;
        auto captured =
            analysis::captureRequestTraces(info.type, traces, 1000, 21);
        std::vector<const simt::ThreadTrace *> lanes;
        for (auto &t : captured)
            lanes.push_back(&t);
        auto r = analysis::measureSimilarity(lanes);
        min_normalized = std::min(min_normalized, r.normalizedSpeedup);
        report.metric(bench::slug(info.name) + ".normalized_speedup",
                      r.normalizedSpeedup);
        table.addRow({std::string(info.name), std::to_string(traces),
                      std::to_string(r.sumBlocks),
                      std::to_string(r.mergedBlocks),
                      bench::fmt(r.speedup, 2),
                      bench::fmt(r.normalizedSpeedup, 3)});
    }
    table.printAscii(std::cout);
    std::cout << "Minimum normalized speedup across types: "
              << bench::fmt(min_normalized, 3)
              << " (paper: nearly linear, ~0.95-1.0)\n";
    report.config("traces_per_type", 5.0);
    report.metric("min_normalized_speedup", min_normalized);
    if (!report.write())
        return 1;
    return 0;
}
