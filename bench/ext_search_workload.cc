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
#include "des/event_queue.hh"
#include "rhythm/server.hh"
#include "search/service.hh"
#include "util/stats.hh"

namespace {

using namespace rhythm;

struct RunResult
{
    double throughput;
    double latencyMs;
    double simdEff;
    double utilization;
};

RunResult
runIsolated(search::InvertedIndex &index, search::PageType type,
            uint32_t cohorts, const bench::FaultFlags &faults,
            const bench::OverlapFlags &overlap)
{
    des::EventQueue queue;
    simt::DeviceConfig dcfg;
    faults.apply(dcfg);
    overlap.apply(dcfg);
    simt::Device device(queue, dcfg);
    search::SearchService service(index);

    core::RhythmConfig cfg;
    cfg.cohortSize = 4096;
    cfg.cohortContexts = 8;
    cfg.cohortTimeout = 2 * des::kMillisecond;
    cfg.backendOnDevice = true; // Titan B
    cfg.networkOverPcie = false;
    cfg.laneSample = 128;
    faults.apply(cfg);
    overlap.apply(cfg);
    core::RhythmServer server(queue, device, service, cfg);
    std::optional<fault::FaultPlan> plan;
    faults.arm(server, device, queue, plan);

    search::QueryGenerator gen(index.corpus(), 11);
    const uint64_t total = static_cast<uint64_t>(cohorts) * cfg.cohortSize;
    uint64_t issued = 0;
    server.start([&]() -> std::optional<std::string> {
        if (issued >= total)
            return std::nullopt;
        ++issued;
        return gen.generate(type).raw;
    });
    queue.run();

    const core::RhythmStats &stats = server.stats();
    RunResult r;
    const double elapsed = des::toSeconds(queue.now());
    r.throughput = static_cast<double>(stats.responsesCompleted) / elapsed;
    r.latencyMs = stats.latencyMs.mean();
    r.simdEff = stats.processIssueSlots > 0
                    ? stats.processLaneInstructions /
                          (stats.processIssueSlots * 32.0)
                    : 0.0;
    r.utilization = device.kernelUtilization();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const Flags flags = bench::parseArgs(
        argc, argv, {bench::FaultFlags::kTable, bench::OverlapFlags::kTable});
    bench::Reporter report("ext_search_workload", flags);
    bench::banner("Extension: the Search workload on Rhythm (Titan B)",
                  "Section 8 future work (Search/Email/Chat on Rhythm)");

    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    faults.recordConfig(report);
    overlap.recordConfig(report);

    std::cout << "Building corpus and inverted index...\n";
    search::Corpus corpus(4000, 4096, 7);
    search::InvertedIndex index(corpus);

    TableWriter table({"page type", "mix %", "KReqs/s", "latency ms",
                       "SIMD eff", "device util"});
    WeightedHarmonicMean whm;
    for (uint32_t t = 0; t < search::kNumPageTypes; ++t) {
        const search::PageTypeInfo &info = search::pageTable()[t];
        RunResult r = runIsolated(
            index, static_cast<search::PageType>(t), 8, faults, overlap);
        whm.add(info.mixPercent, r.throughput);
        const std::string key = bench::slug(info.name);
        report.metric(key + ".throughput", r.throughput);
        report.metric(key + ".simd_efficiency", r.simdEff);
        table.addRow({std::string(info.name),
                      bench::fmt(info.mixPercent, 0),
                      bench::fmt(r.throughput / 1e3, 0),
                      bench::fmt(r.latencyMs, 2), bench::fmt(r.simdEff, 2),
                      bench::fmt(r.utilization, 2)});
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
