/**
 * @file
 * Extension experiment: fault tolerance and graceful degradation.
 *
 * The paper's evaluation assumes a healthy backend and a healthy PCIe
 * link. This experiment injects deterministic backend failures at a
 * swept rate and measures how cohort-level retries recover goodput:
 * with no retry budget every failed backend call turns into a 503 on
 * one lane, while a modest budget absorbs transient failures at a small
 * latency cost. The run also exercises the degradation machinery under
 * three fault seeds to demonstrate that recovery is reproducible and
 * that a 1% backend failure rate costs less than 5% goodput.
 */

#include <iostream>

#include "backend/bankdb.hh"
#include "bench/common.hh"
#include "fault/plan.hh"
#include "platform/simulation.hh"
#include "rhythm/banking_service.hh"
#include "specweb/workload.hh"

namespace {

using namespace rhythm;

struct RunResult
{
    uint64_t completed = 0;
    uint64_t errors = 0;
    uint64_t retries = 0;
    uint64_t failedLanes = 0;
    uint64_t faults = 0;
    double goodputKrps = 0.0;
    double p99Ms = 0.0;
    bool drained = false;
    bool conserved = false;
};

RunResult
runOnce(double fail_prob, uint32_t retry_budget, uint64_t fault_seed)
{
    backend::BankDb db(2000, 5);
    core::BankingService service(db);

    core::RhythmConfig cfg;
    cfg.cohortSize = 1024;
    cfg.cohortContexts = 8;
    cfg.backendOnDevice = true; // Titan B
    cfg.networkOverPcie = false;
    cfg.laneSample = 64;
    cfg.backendRetryBudget = retry_budget;
    platform::Simulation sim(simt::DeviceConfig{}, cfg, service);

    fault::FaultConfig fcfg;
    fcfg.seed = fault_seed;
    fcfg.at(fault::Site::BackendFail).probability = fail_prob;
    specweb::WorkloadGenerator gen(db, 31);
    auto sessions = sim.server().sessions().populate(8192, 2000);
    sim.arm(fcfg, false, 0);
    sim.pull(20ull * cfg.cohortSize, [&](uint64_t i) {
        return gen.fromPool(specweb::RequestType::AccountSummary, sessions, i)
            .raw;
    });

    // Watchdog: a hung simulation either stops draining or spins on
    // same-time events; stepping with a dispatch cap catches both
    // without wall-clock timers (which would break determinism).
    sim.run(50'000'000);

    const core::RhythmStats &stats = sim.server().stats();
    RunResult r;
    r.completed = stats.responsesCompleted;
    r.errors = stats.errorResponses;
    r.retries = stats.backendRetries;
    r.failedLanes = stats.backendFailedLanes;
    r.faults = sim.plan() ? sim.plan()->totalInjected() : 0;
    r.goodputKrps = static_cast<double>(stats.responsesCompleted) /
                    des::toSeconds(sim.queue().now()) / 1e3;
    r.p99Ms = stats.latencyMs.percentile(99.0);
    r.drained = !sim.queue().pending();
    r.conserved = stats.requestsAccepted ==
                  stats.responsesCompleted + stats.errorResponses +
                      stats.requestsShed;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const Flags flags = bench::parseArgs(argc, argv, {bench::kQuickFlags});
    bench::Reporter report("ext_fault_tolerance", flags);
    // --quick: single-seed acceptance and no sweep table — the mode the
    // ext_fault_tolerance_quick ctest runs (the full 3x3 sweep plus
    // 3-seed acceptance stays the local/nightly default).
    const bool quick = flags.on("quick");

    bench::banner("Extension: fault tolerance vs retry budget",
                  "robustness extension (not a paper figure)");

    const RunResult baseline = runOnce(0.0, 0, 1);
    std::cout << "\nFault-free baseline: "
              << bench::fmt(baseline.goodputKrps, 0) << " KReqs/s, p99 "
              << bench::fmt(baseline.p99Ms, 2) << " ms\n\n";
    report.config("quick", quick ? 1.0 : 0.0);
    report.metric("baseline.goodput_krps", baseline.goodputKrps);
    report.metric("baseline.p99_ms", baseline.p99Ms);

    if (!quick) {
        TableWriter table({"backend fail rate", "retry budget", "KReqs/s",
                           "goodput vs clean", "p99 ms", "retries",
                           "503 lanes"});
        for (double rate : {0.001, 0.01, 0.05}) {
            for (uint32_t budget : {0u, 4u, 16u}) {
                const RunResult r = runOnce(rate, budget, 1);
                table.addRow(
                    {bench::fmt(rate * 100, 1) + "%", withCommas(budget),
                     bench::fmt(r.goodputKrps, 0),
                     bench::fmt(100.0 * r.goodputKrps /
                                    baseline.goodputKrps,
                                1) +
                         "%",
                     bench::fmt(r.p99Ms, 2), withCommas(r.retries),
                     withCommas(r.failedLanes)});
                const std::string key =
                    "rate_" + bench::fmt(rate * 100, 1) + ".budget_" +
                    std::to_string(budget);
                report.metric(key + ".goodput_krps", r.goodputKrps);
            }
        }
        table.printAscii(std::cout);
    }

    // Acceptance: 1% backend failure with a 16-retry budget keeps
    // goodput within 5% of the fault-free baseline, for three distinct
    // fault seeds (one in --quick mode), with the event queue fully
    // drained (no hangs) and the request conservation invariant intact.
    const std::vector<uint64_t> seeds =
        quick ? std::vector<uint64_t>{1} : std::vector<uint64_t>{1, 2, 3};
    std::cout << "\nAcceptance (1% failure, budget 16, "
              << seeds.size() << (seeds.size() == 1 ? " seed" : " seeds")
              << "):\n";
    bool pass = true;
    for (uint64_t seed : seeds) {
        const RunResult r = runOnce(0.01, 16, seed);
        const double ratio = r.goodputKrps / baseline.goodputKrps;
        const bool ok =
            ratio >= 0.95 && r.drained && r.conserved;
        pass = pass && ok;
        std::cout << "  seed " << seed << ": goodput "
                  << bench::fmt(100.0 * ratio, 1) << "% of clean, "
                  << withCommas(r.faults) << " faults, "
                  << withCommas(r.retries) << " retries, drained="
                  << (r.drained ? "yes" : "no") << ", conserved="
                  << (r.conserved ? "yes" : "no") << " -> "
                  << (ok ? "ok" : "FAIL") << "\n";
    }

    // Determinism: the same seed and plan must reproduce identical
    // counters run-to-run.
    const RunResult a = runOnce(0.01, 16, 1);
    const RunResult b = runOnce(0.01, 16, 1);
    const bool deterministic =
        a.completed == b.completed && a.errors == b.errors &&
        a.retries == b.retries && a.failedLanes == b.failedLanes &&
        a.faults == b.faults;
    pass = pass && deterministic;
    std::cout << "  repeat run identical: "
              << (deterministic ? "yes" : "NO") << "\n";

    std::cout << "\nVerdict: " << (pass ? "PASS" : "FAIL")
              << " (goodput >= 95% of fault-free at 1% backend failure, "
                 "no hangs, deterministic)\n";
    report.metric("faulty.goodput_krps", a.goodputKrps);
    report.metric("faulty.p99_ms", a.p99Ms);
    report.metric("acceptance_pass", pass ? 1.0 : 0.0);
    if (!report.write())
        return 1;
    return pass ? 0 : 1;
}
