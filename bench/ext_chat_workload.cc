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
#include "des/event_queue.hh"
#include "rhythm/server.hh"
#include "util/stats.hh"

namespace {

using namespace rhythm;

struct RunResult
{
    double throughput;
    double latencyMs;
    double simdEff;
    uint64_t posted;
};

RunResult
runIsolated(chat::RoomStore &store, chat::PageType type, uint32_t cohorts,
            const bench::FaultFlags &faults,
            const bench::OverlapFlags &overlap)
{
    des::EventQueue queue;
    simt::DeviceConfig dcfg;
    faults.apply(dcfg);
    overlap.apply(dcfg);
    simt::Device device(queue, dcfg);
    chat::ChatService service(store);

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

    chat::ChatGenerator gen(store, 29);
    const uint64_t total = static_cast<uint64_t>(cohorts) * cfg.cohortSize;
    const uint64_t posted_before = store.totalPosted();
    uint64_t issued = 0;
    server.start([&]() -> std::optional<std::string> {
        if (issued >= total)
            return std::nullopt;
        ++issued;
        return gen.generate(type);
    });
    queue.run();

    const core::RhythmStats &stats = server.stats();
    RunResult r;
    r.throughput = static_cast<double>(stats.responsesCompleted) /
                   des::toSeconds(queue.now());
    r.latencyMs = stats.latencyMs.mean();
    r.simdEff = stats.processIssueSlots > 0
                    ? stats.processLaneInstructions /
                          (stats.processIssueSlots * 32.0)
                    : 0.0;
    r.posted = store.totalPosted() - posted_before;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const Flags flags = bench::parseArgs(
        argc, argv, {bench::FaultFlags::kTable, bench::OverlapFlags::kTable});
    bench::Reporter report("ext_chat_workload", flags);
    bench::banner("Extension: the Chat workload on Rhythm (Titan B)",
                  "Section 8 future work (Search/Email/Chat on Rhythm)");

    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    faults.recordConfig(report);
    overlap.recordConfig(report);

    chat::RoomStore store(256, 40, 7);

    TableWriter table({"page type", "mix %", "KReqs/s", "latency ms",
                       "SIMD eff", "messages posted"});
    WeightedHarmonicMean whm;
    for (uint32_t t = 0; t < chat::kNumPageTypes; ++t) {
        const chat::PageTypeInfo &info = chat::pageTable()[t];
        RunResult r = runIsolated(
            store, static_cast<chat::PageType>(t), 8, faults, overlap);
        whm.add(info.mixPercent, r.throughput);
        const std::string key = bench::slug(info.name);
        report.metric(key + ".throughput", r.throughput);
        report.metric(key + ".simd_efficiency", r.simdEff);
        table.addRow({std::string(info.name),
                      bench::fmt(info.mixPercent, 0),
                      bench::fmt(r.throughput / 1e3, 0),
                      bench::fmt(r.latencyMs, 2), bench::fmt(r.simdEff, 2),
                      withCommas(r.posted)});
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
