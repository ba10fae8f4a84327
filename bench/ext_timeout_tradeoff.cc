/**
 * @file
 * Extension experiment: the cohort-formation latency/throughput trade
 * (paper Sections 1 and 3.1 — "trade an increase in response time for
 * improvement in server throughput per Watt"; "requests can be delayed
 * for a limited amount of time and still achieve acceptable response
 * times").
 *
 * Requests arrive as an open-loop Poisson process at a configurable
 * fraction of the platform's capacity; the cohort-formation timeout is
 * swept. At low arrival rates cohorts launch partially full (timeout
 * bound), so small timeouts trade device efficiency for latency; at
 * high rates cohorts fill before the timeout and the knob stops
 * mattering — exactly the paper's observation that at ~1M reqs/s
 * arrival rates cohort formation time is negligible (Section 6.4).
 */

#include <iostream>

#include "backend/bankdb.hh"
#include "bench/common.hh"
#include "platform/simulation.hh"
#include "rhythm/banking_service.hh"
#include "specweb/workload.hh"

namespace {

using namespace rhythm;

struct RunResult
{
    double throughput;
    double meanLatencyMs;
    double p99LatencyMs;
    double avgCohortFill;
};

RunResult
runAtRate(double arrival_rate, des::Time timeout, uint64_t requests,
          const bench::FaultFlags &faults,
          const bench::OverlapFlags &overlap)
{
    simt::DeviceConfig dcfg;
    faults.apply(dcfg);
    overlap.apply(dcfg);
    backend::BankDb db(2000, 5);
    core::BankingService service(db);

    core::RhythmConfig cfg;
    cfg.cohortSize = 1024;
    cfg.cohortContexts = 8;
    cfg.cohortTimeout = timeout;
    cfg.backendOnDevice = true; // Titan B
    cfg.networkOverPcie = false;
    cfg.laneSample = 64;
    faults.apply(cfg);
    overlap.apply(cfg);
    platform::Simulation sim(dcfg, cfg, service);
    core::RhythmServer &server = sim.server();
    des::EventQueue &queue = sim.queue();
    specweb::WorkloadGenerator gen(db, 31);
    const auto sessions = server.sessions().populate(8192, 2000);
    sim.arm(faults.config, faults.recovery, faults.checkpointInterval);

    // Open-loop Poisson arrivals of a single request type (isolating
    // the formation trade-off from multi-type context contention). The
    // first arrival comes at t = 0, so this chain is not
    // Simulation::arrive's, which waits one gap.
    Rng arrival_rng(7);
    uint64_t issued = 0;
    std::function<void()> arrive = [&]() {
        if (issued >= requests)
            return;
        specweb::GeneratedRequest req = gen.fromPool(
            specweb::RequestType::AccountSummary, sessions, issued);
        // Open loop: a full reader drops the arrival (the client sees
        // no response, RhythmStats::readerDrops counts it) so the
        // arrival process stays independent of server state.
        server.injectRequest(std::move(req.raw), issued);
        ++issued;
        queue.scheduleAfter(
            des::fromSeconds(
                arrival_rng.nextExponential(1.0 / arrival_rate)),
            arrive);
    };
    arrive();
    sim.run();

    const core::RhythmStats &stats = server.stats();
    if (stats.readerDrops > 0)
        std::cerr << "note: reader dropped " << stats.readerDrops << " of "
                  << requests << " open-loop arrivals\n";
    RunResult r;
    r.throughput = static_cast<double>(stats.responsesCompleted) /
                   des::toSeconds(queue.now());
    r.meanLatencyMs = stats.latencyMs.mean();
    r.p99LatencyMs = stats.latencyMs.percentile(99.0);
    r.avgCohortFill =
        stats.cohortsLaunched
            ? static_cast<double>(stats.responsesCompleted) /
                  (static_cast<double>(stats.cohortsLaunched) *
                   cfg.cohortSize)
            : 0.0;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const Flags flags = bench::parseArgs(
        argc, argv, {bench::FaultFlags::kTable, bench::OverlapFlags::kTable});
    bench::Reporter report("ext_timeout_tradeoff", flags);
    bench::banner("Extension: cohort timeout vs latency/efficiency",
                  "Sections 1/3.1 (delay requests to form cohorts)");

    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    faults.recordConfig(report);
    overlap.recordConfig(report);

    for (const auto &[label, prefix, rate, requests] :
         {std::tuple<const char *, const char *, double, uint64_t>{
              "LOW arrival rate (100K reqs/s)", "low", 100e3, 20000},
          {"HIGH arrival rate (2M reqs/s)", "high", 2e6, 60000}}) {
        std::cout << "\n-- " << label << " --\n";
        TableWriter table({"timeout ms", "KReqs/s", "mean latency ms",
                           "p99 latency ms", "avg cohort fill"});
        for (double timeout_ms : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
            RunResult r =
                runAtRate(rate, des::fromSeconds(timeout_ms / 1e3),
                          requests, faults, overlap);
            table.addRow({bench::fmt(timeout_ms, 2),
                          bench::fmt(r.throughput / 1e3, 0),
                          bench::fmt(r.meanLatencyMs, 2),
                          bench::fmt(r.p99LatencyMs, 2),
                          bench::fmt(r.avgCohortFill, 2)});
            const std::string key = std::string(prefix) + "_timeout_" +
                                    bench::fmt(timeout_ms, 2);
            report.metric(key + ".throughput", r.throughput);
            report.metric(key + ".p99_latency_ms", r.p99LatencyMs);
        }
        table.printAscii(std::cout);
    }
    std::cout
        << "\nExpected shape: at low arrival rates, larger timeouts fill "
           "cohorts better\n(higher fill, better device efficiency) at "
           "the price of latency; at high arrival\nrates cohorts fill "
           "before any timeout expires and the knob is neutral — the\n"
           "paper's Section 6.4 observation.\n";
    if (!report.write())
        return 1;
    return 0;
}
