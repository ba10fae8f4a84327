/**
 * @file
 * Extension experiment: recovery equivalence under chaos.
 *
 * The crash-recovery stack (write-ahead journal + checkpoints, the
 * DES-clock watchdog with hedged cohort re-execution, and PCIe frame
 * CRC with bounded retransmit) claims exactly-once semantics: any
 * seeded schedule of backend crashes, torn journal tails, kernel hangs
 * and PCIe corruption must leave the final backend state — bank
 * database and session array — and every delivered response byte
 * identical to the fault-free run.
 *
 * This harness sweeps such schedules and checks the claim directly:
 * each faulty run's BankDb/SessionArray digests and per-client
 * response checksums are compared against the clean run with the same
 * resilience configuration. It also measures the overhead band of the
 * resilience machinery itself (faults off, recovery+watchdog+CRC on
 * vs everything off), which tools/check_bench.py gates.
 */

#include <iostream>
#include <map>
#include <memory>

#include "backend/bankdb.hh"
#include "backend/journal.hh"
#include "backend/recovery.hh"
#include "bench/common.hh"
#include "fault/plan.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/server.hh"
#include "specweb/workload.hh"

namespace {

using namespace rhythm;

struct ChaosOutcome
{
    uint64_t completed = 0;
    uint64_t errors = 0;
    uint64_t crashes = 0;
    uint64_t tornRecords = 0;
    uint64_t kernelHangs = 0;
    uint64_t hedgeWins = 0;
    uint64_t crcErrors = 0;
    uint64_t faults = 0;
    uint64_t dbDigest = 0;
    uint64_t sessionDigest = 0;
    /** Per-client checksum of the delivered response bytes. */
    std::map<uint64_t, uint64_t> responseSums;
    des::Time lastDelivery = 0;
    double goodputKrps = 0.0;
    double p99Ms = 0.0;
    bool drained = false;
    bool conserved = false;
};

/**
 * One serving run on the Titan-A-shaped configuration (host backend,
 * network over PCIe — the config where all three fault domains are
 * live). @p resilience arms the full stack: journal+checkpoint
 * backend, 50 ms watchdog, PCIe frame CRC.
 */
ChaosOutcome
runOnce(const fault::FaultConfig &fcfg, bool resilience,
        uint32_t cohorts)
{
    des::EventQueue queue;
    simt::DeviceConfig dcfg;
    dcfg.pcieCrcEnabled = resilience;
    simt::Device device(queue, dcfg);
    backend::BankDb db(2000, 5);
    core::BankingService service(db);

    core::RhythmConfig cfg;
    cfg.cohortSize = 1024;
    cfg.cohortContexts = 8;
    cfg.backendOnDevice = false; // Titan A: backend traffic over PCIe
    cfg.networkOverPcie = true;
    // Every lane executes for real: lane sampling is a simulation
    // fidelity knob that extrapolates stats from a prefix of lanes and
    // leaves the rest without response bytes — useless for a harness
    // whose whole claim is byte equivalence. Full execution also pins
    // the set of applied mutations when faults shift cohort
    // boundaries.
    cfg.laneSample = 0;
    cfg.backendRetryBudget = 4;
    // Above the pipeline's natural cohort latency: the watchdog must
    // only fire for injected hangs, not healthy stragglers.
    if (resilience)
        cfg.watchdogTimeout = 250 * des::kMillisecond;
    core::RhythmServer server(queue, device, service, cfg);

    ChaosOutcome out;
    server.setResponseCallback(
        [&out, &queue](uint64_t client, std::string_view response,
                       des::Time) {
            out.responseSums[client] = backend::journalChecksum(response);
            out.lastDelivery = queue.now();
        });

    specweb::WorkloadGenerator gen(db, 31);
    auto sessions = server.sessions().populate(8192, 2000);
    std::optional<fault::FaultPlan> plan;
    if (!fcfg.allQuiet())
        plan.emplace(fcfg);
    const auto recovery = core::armRun(
        server, device, queue, plan ? &*plan : nullptr, resilience,
        backend::RecoveryConfig{}.checkpointInterval);

    // Alternate a read-heavy and a mutating type so the journal, the
    // memo and the hedge replay path all carry real traffic. Reads and
    // writes target disjoint user populations: per-type dispatch is
    // FIFO, so the mutation order (and with it every transfer response
    // and the final database state) is pinned regardless of fault
    // timing — but a read racing a write to the same account would see
    // whichever interleaving the perturbed schedule produced. That is
    // a scheduling property, not a recovery property; the chaos claim
    // is about what the resilience stack controls.
    std::vector<std::pair<uint64_t, uint64_t>> readers, writers;
    for (const auto &s : sessions)
        (s.second % 2 ? writers : readers).push_back(s);
    const uint64_t total = static_cast<uint64_t>(cohorts) * cfg.cohortSize;
    uint64_t issued = 0;
    server.start([&]() -> std::optional<std::string> {
        if (issued >= total)
            return std::nullopt;
        const auto &pool = issued % 2 ? writers : readers;
        const auto &[sid, user] = pool[(issued / 2) % pool.size()];
        const specweb::RequestType type =
            issued % 2 ? specweb::RequestType::PostTransfer
                       : specweb::RequestType::AccountSummary;
        specweb::GeneratedRequest req = gen.generate(type, user, sid);
        ++issued;
        return std::move(req.raw);
    });

    // Hang watchdog for the harness itself: injected hangs are finite,
    // so a bounded dispatch cap distinguishes "slow" from "wedged"
    // without wall-clock timers.
    const uint64_t max_events = 50'000'000;
    while (queue.pending() && queue.dispatched() < max_events)
        queue.step();

    const core::RhythmStats &stats = server.stats();
    out.completed = stats.responsesCompleted;
    out.errors = stats.errorResponses;
    out.kernelHangs = stats.kernelHangs;
    out.hedgeWins = stats.hedgeWins;
    // The plan counts every fire once; the server's faultsInjected
    // re-counts the fires of its own sites (kernel hangs here).
    out.faults = plan ? plan->totalInjected() : 0;
    if (recovery) {
        out.crashes = recovery->stats().crashes;
        out.tornRecords = recovery->stats().tornRecords;
    }
    out.crcErrors = device.stats().pcieCrcErrors;
    out.dbDigest = db.digest();
    out.sessionDigest = server.sessions().digest();
    // Goodput over the client-visible window (first request to last
    // delivered response): a cancelled straggler draining its injected
    // stall after the final delivery is not the clients' problem.
    out.goodputKrps =
        out.lastDelivery > 0
            ? static_cast<double>(stats.responsesCompleted) /
                  des::toSeconds(out.lastDelivery) / 1e3
            : 0.0;
    out.p99Ms = stats.latencyMs.percentile(99.0);
    out.drained = !queue.pending();
    out.conserved = stats.requestsAccepted ==
                    stats.responsesCompleted + stats.errorResponses +
                        stats.requestsShed;
    return out;
}

/** True when @p faulty ended in the same observable state as @p clean. */
bool
equivalent(const ChaosOutcome &clean, const ChaosOutcome &faulty)
{
    return faulty.dbDigest == clean.dbDigest &&
           faulty.sessionDigest == clean.sessionDigest &&
           faulty.responseSums == clean.responseSums &&
           faulty.completed == clean.completed &&
           faulty.errors == clean.errors;
}

/** Names the diverging component when equivalence fails. */
void
debugDiff(const ChaosOutcome &clean, const ChaosOutcome &faulty)
{
    uint64_t nDiff = 0, lo = 0, hi = 0;
    for (const auto &[client, sum] : faulty.responseSums) {
        auto it = clean.responseSums.find(client);
        if (it == clean.responseSums.end() || it->second == sum)
            continue;
        ++nDiff;
        if (lo == 0)
            lo = client;
        hi = client;
    }
    std::cerr << "  mismatch: db="
              << (faulty.dbDigest == clean.dbDigest ? "equal" : "DIFFERS")
              << " sessions="
              << (faulty.sessionDigest == clean.sessionDigest ? "equal"
                                                              : "DIFFERS")
              << " completed " << clean.completed << "->"
              << faulty.completed << " errors " << clean.errors << "->"
              << faulty.errors << "; " << nDiff
              << " differing responses in clients [" << lo << ", " << hi
              << "]\n";
}

struct Schedule
{
    const char *name;
    double crash, torn, hang, corrupt;
};

fault::FaultConfig
scheduleConfig(const Schedule &s, uint64_t seed)
{
    fault::FaultConfig fcfg;
    fcfg.seed = seed;
    fcfg.at(fault::Site::BackendCrash).probability = s.crash;
    fcfg.at(fault::Site::JournalTorn).probability = s.torn;
    fcfg.at(fault::Site::KernelHang).probability = s.hang;
    fcfg.at(fault::Site::PcieCorrupt).probability = s.corrupt;
    return fcfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const Flags flags = bench::parseArgs(argc, argv, {bench::kQuickFlags});
    bench::Reporter report("ext_recovery", flags);
    // --quick: the mixed schedule at one seed (CI's per-push mode);
    // the full sweep × 3 seeds stays the local/nightly default.
    // --sim-threads=N exercises the equivalence claim under the
    // parallel execution engine.
    const bool quick = flags.on("quick");

    bench::banner("Extension: recovery equivalence under chaos",
                  "robustness extension (not a paper figure)");

    const Schedule mixed = {"mixed", 0.005, 0.5, 0.3, 0.02};
    const Schedule schedules[] = {
        {"crash", 0.01, 0.0, 0.0, 0.0},
        {"crash_torn", 0.01, 0.5, 0.0, 0.0},
        {"hang", 0.0, 0.0, 0.15, 0.0},
        {"corrupt", 0.0, 0.0, 0.0, 0.05},
        mixed,
    };
    const uint32_t cohorts = quick ? 6 : 12;

    // Fault-schedule metadata for the --json schema (check_bench
    // requires these keys for ext_recovery): the acceptance schedule
    // expressed in the shared --fault-* vocabulary.
    bench::FaultFlags meta;
    meta.config = scheduleConfig(mixed, 1);
    meta.watchdogTimeout = 250 * des::kMillisecond;
    meta.pcieCrc = true;
    meta.recovery = true;
    meta.anyGiven = true;
    meta.recordConfig(report);
    report.config("quick", quick ? 1.0 : 0.0);
    report.config("cohorts", cohorts);

    // ---- Resilience overhead band (faults off) -----------------------
    fault::FaultConfig quiet;
    const ChaosOutcome plain = runOnce(quiet, false, cohorts);
    const ChaosOutcome clean = runOnce(quiet, true, cohorts);
    const double overhead_ratio =
        clean.goodputKrps / plain.goodputKrps;
    const bool transparent = equivalent(plain, clean);
    std::cout << "\nFault-free: " << bench::fmt(plain.goodputKrps, 0)
              << " KReqs/s bare, " << bench::fmt(clean.goodputKrps, 0)
              << " KReqs/s with journal+watchdog+CRC ("
              << bench::fmt(overhead_ratio * 100.0, 1)
              << "% of bare; state+responses identical: "
              << (transparent ? "yes" : "NO") << ")\n\n";
    report.metric("baseline.goodput_krps", plain.goodputKrps);
    report.metric("overhead.goodput_ratio", overhead_ratio);
    report.metric("overhead.transparent", transparent ? 1.0 : 0.0);
    report.metric("resilient.goodput_krps", clean.goodputKrps);
    report.metric("resilient.p99_ms", clean.p99Ms);

    bool pass = transparent && plain.drained && clean.drained;

    // ---- Equivalence sweep -------------------------------------------
    TableWriter table({"schedule", "faults", "crashes", "torn", "hangs",
                       "hedge wins", "crc errs", "goodput %",
                       "equivalent"});
    const std::vector<uint64_t> seeds =
        quick ? std::vector<uint64_t>{1} : std::vector<uint64_t>{1, 2, 3};
    for (const Schedule &s : schedules) {
        if (quick && std::string_view(s.name) != "mixed")
            continue;
        for (uint64_t seed : seeds) {
            const ChaosOutcome r =
                runOnce(scheduleConfig(s, seed), true, cohorts);
            const bool ok =
                equivalent(clean, r) && r.drained && r.conserved;
            if (!ok)
                debugDiff(clean, r);
            pass = pass && ok;
            table.addRow({std::string(s.name) + " seed " +
                              std::to_string(seed),
                          withCommas(r.faults), withCommas(r.crashes),
                          withCommas(r.tornRecords),
                          withCommas(r.kernelHangs),
                          withCommas(r.hedgeWins),
                          withCommas(r.crcErrors),
                          bench::fmt(100.0 * r.goodputKrps /
                                         clean.goodputKrps,
                                     1),
                          ok ? "yes" : "NO"});
            if (seed == 1) {
                const std::string key = std::string("schedule_") + s.name;
                report.metric(key + ".equivalent", ok ? 1.0 : 0.0);
                report.metric(key + ".goodput_krps", r.goodputKrps);
                report.metric(key + ".faults",
                              static_cast<double>(r.faults));
            }
        }
    }
    table.printAscii(std::cout);

    // Determinism: the same schedule and seed must reproduce the exact
    // same digests and fault counts run-to-run.
    const ChaosOutcome a = runOnce(scheduleConfig(mixed, 1), true, cohorts);
    const ChaosOutcome b = runOnce(scheduleConfig(mixed, 1), true, cohorts);
    const bool deterministic =
        a.dbDigest == b.dbDigest && a.sessionDigest == b.sessionDigest &&
        a.responseSums == b.responseSums && a.faults == b.faults &&
        a.crashes == b.crashes;
    pass = pass && deterministic;
    std::cout << "Repeat run identical: " << (deterministic ? "yes" : "NO")
              << "\n";

    std::cout << "\nVerdict: " << (pass ? "PASS" : "FAIL")
              << " (every schedule byte-equivalent to fault-free, "
                 "drained, conserved, deterministic)\n";
    report.metric("acceptance_pass", pass ? 1.0 : 0.0);
    if (!report.write())
        return 1;
    return pass ? 0 : 1;
}
