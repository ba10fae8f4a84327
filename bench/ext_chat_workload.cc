/**
 * @file
 * Extension experiment (paper Section 8): the Chat workload on Rhythm
 * (Titan B). Chat inverts the Banking profile — the dominant page type
 * (poll) is tiny and mutations (posts) are frequent — probing the
 * pipeline's behaviour with short cohorts and concurrent writes.
 */

#include <iostream>

#include "bench/common.hh"
#include "chat/service.hh"
#include "rhythm/server.hh"
#include "util/stats.hh"

using namespace rhythm;

int
main(int argc, char **argv)
{
    const Flags flags = bench::parseArgs(
        argc, argv, {bench::FaultFlags::kTable, bench::OverlapFlags::kTable});
    bench::Reporter report("ext_chat_workload", flags);
    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    if (faults.recovery)
        return bench::usageError(
            "--recovery supports the banking workload only");
    bench::banner("Extension: the Chat workload on Rhythm (Titan B)",
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

    chat::RoomStore store(256, 40, 7);

    TableWriter table({"page type", "mix %", "KReqs/s", "latency ms",
                       "SIMD eff", "messages posted"});
    WeightedHarmonicMean whm;
    for (uint32_t t = 0; t < chat::kNumPageTypes; ++t) {
        const chat::PageTypeInfo &info = chat::pageTable()[t];
        const auto type = static_cast<chat::PageType>(t);
        chat::ChatService service(store);
        chat::ChatGenerator gen(store, 29);
        const uint64_t posted_before = store.totalPosted();
        const platform::TypeRunResult r = platform::runIsolated(
            variant, service, options, [&](core::RhythmServer &) {
                return [&](uint64_t) { return gen.generate(type); };
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
                      withCommas(store.totalPosted() - posted_before)});
    }
    table.printAscii(std::cout);
    std::cout
        << "Mix-weighted workload throughput: "
        << bench::fmt(whm.value() / 1e3, 0)
        << " KReqs/s (no paper reference — this experiment extends the "
           "paper).\nObservations to check: the tiny poll page reaches "
           "the highest rate; the post\ncohorts really mutate the room "
           "store (messages posted column).\n";
    report.metric("mix_weighted_throughput", whm.value());
    if (!report.write())
        return 1;
    return 0;
}
