/**
 * @file
 * Extension experiment (paper Section 8): the Search workload on
 * Rhythm. Runs each Search page type in isolation on a Titan-B-style
 * platform — same pipeline, same device, different Service — and
 * reports throughput, latency and SIMD efficiency per type plus the
 * mix-weighted workload aggregate. Demonstrates the claim that Rhythm
 * generalizes beyond the Banking workload.
 */

#include <iostream>

#include "bench/common.hh"
#include "rhythm/server.hh"
#include "search/service.hh"
#include "util/stats.hh"

using namespace rhythm;

int
main(int argc, char **argv)
{
    const Flags flags = bench::parseArgs(
        argc, argv, {bench::FaultFlags::kTable, bench::OverlapFlags::kTable});
    bench::Reporter report("ext_search_workload", flags);
    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    if (faults.recovery)
        return bench::usageError(
            "--recovery supports the banking workload only");
    bench::banner("Extension: the Search workload on Rhythm (Titan B)",
                  "Section 8 future work (Search/Email/Chat on Rhythm)");

    faults.recordConfig(report);
    overlap.recordConfig(report);
    // Titan B, every page type in isolation.
    platform::TitanVariant variant = platform::titanB();
    variant.server.laneSample = 128;
    faults.apply(variant);
    overlap.apply(variant);
    platform::IsolatedRunOptions options;
    options.cohorts = 8;
    faults.apply(options);

    std::cout << "Building corpus and inverted index...\n";
    search::Corpus corpus(4000, 4096, 7);
    search::InvertedIndex index(corpus);

    TableWriter table({"page type", "mix %", "KReqs/s", "latency ms",
                       "SIMD eff", "device util"});
    WeightedHarmonicMean whm;
    for (uint32_t t = 0; t < search::kNumPageTypes; ++t) {
        const search::PageTypeInfo &info = search::pageTable()[t];
        const auto type = static_cast<search::PageType>(t);
        search::SearchService service(index);
        search::QueryGenerator gen(index.corpus(), 11);
        const platform::TypeRunResult r = platform::runIsolated(
            variant, service, options, [&](core::RhythmServer &) {
                return [&](uint64_t) { return gen.generate(type).raw; };
            });
        whm.add(info.mixPercent, r.throughput);
        const std::string key = bench::slug(info.name);
        report.metric(key + ".throughput", r.throughput);
        report.metric(key + ".simd_efficiency", r.simdEfficiency);
        table.addRow({std::string(info.name),
                      bench::fmt(info.mixPercent, 0),
                      bench::fmt(r.throughput / 1e3, 0),
                      bench::fmt(r.avgLatencyMs, 2),
                      bench::fmt(r.simdEfficiency, 2),
                      bench::fmt(r.deviceUtilization, 2)});
    }
    table.printAscii(std::cout);
    std::cout << "Mix-weighted workload throughput: "
              << bench::fmt(whm.value() / 1e3, 0)
              << " KReqs/s (no paper reference — this experiment extends "
                 "the paper).\nObservations to check: same-type search "
                 "cohorts keep high SIMD efficiency; the\nresults page "
                 "(posting-list scans + ranking) is the heaviest type, "
                 "as in production\nsearch front-ends.\n";
    report.metric("mix_weighted_throughput", whm.value());
    if (!report.write())
        return 1;
    return 0;
}
