/**
 * @file
 * Host-side speedup of the warp profile cache. Not a paper figure: this
 * bench measures the *simulator's* wall-clock, not simulated time. It
 * runs the fig8-shaped banking steady state (Titan B, account summary —
 * the dominant Table 2 type — with the cycling session pool of the
 * isolation methodology) four ways: profile cache off/on at 1 and 8
 * sim threads. The cached runs must produce byte-identical simulated
 * outputs (asserted on the DES order hash, clock, event and response
 * counts and the latency sum) while re-simulating only the warps whose
 * normalized content was never seen — the session pool cycles after two
 * cohorts, so every later launch is served from the cache.
 *
 * Deterministic cache accounting (hits/misses/evictions and the
 * identical-output flags) goes in "metrics" and is gate-compared
 * exactly; wall-clock milliseconds and the speedup ratios go in the
 * machine-dependent "host" section, which tools/check_bench.py gates
 * with the separate --host-tolerance band.
 */

#include <chrono>
#include <iostream>
#include <string>

#include "backend/bankdb.hh"
#include "bench/common.hh"
#include "platform/simulation.hh"
#include "rhythm/banking_service.hh"
#include "specweb/workload.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace {

using namespace rhythm;

constexpr uint64_t kUsers = 2000;
constexpr uint64_t kSeed = 42;
constexpr uint32_t kLaneSample = 128;
constexpr uint32_t kCacheEntries = 4096;

constexpr FlagSpec kSpeedupSpecs[] = {
    {"cohorts", FlagKind::Count, "24", "cohorts per timed run",
     {1, kMaxU32}},
};
constexpr FlagTable kSpeedupFlags = {"speedup run", kSpeedupSpecs};

struct RunResult
{
    double hostMs = 0.0;
    //! Simulated-output fingerprint: must match with the cache on/off.
    des::Time clock = 0;
    uint64_t dispatched = 0;
    uint64_t orderHash = 0;
    uint64_t responses = 0;
    uint64_t engineWarps = 0;
    double latencySumMs = 0.0;
    //! Cache accounting (zero for cache-off runs).
    simt::ProfileCache::Stats cache;
};

/** True when the simulated outputs of two runs are bit-identical. */
bool
identical(const RunResult &a, const RunResult &b)
{
    return a.clock == b.clock && a.dispatched == b.dispatched &&
           a.orderHash == b.orderHash && a.responses == b.responses &&
           a.engineWarps == b.engineWarps &&
           a.latencySumMs == b.latencySumMs;
}

RunResult
runOnce(bool cache_on, unsigned threads, uint32_t cohorts)
{
    util::setSimThreads(threads);

    platform::TitanVariant variant = platform::titanB();
    variant.server.laneSample = kLaneSample;
    const uint64_t total =
        static_cast<uint64_t>(cohorts) * variant.server.cohortSize;

    // The input corpus is identical either way and not what the cache
    // accelerates, so it is generated outside the timed section; the
    // timed section is the simulator itself.
    backend::BankDb db(kUsers, kSeed);
    specweb::WorkloadGenerator gen(db, kSeed * 977 + 13);
    core::BankingService service(db);
    platform::Simulation sim(variant.device, variant.server, service,
                             cache_on ? kCacheEntries : 0);
    auto sessions = sim.server().sessions().populate(
        std::min<uint64_t>(total, 8192), kUsers);
    std::vector<std::string> requests;
    requests.reserve(total);
    for (uint64_t i = 0; i < total; ++i)
        requests.push_back(
            gen.fromPool(specweb::RequestType::AccountSummary, sessions, i)
                .raw);

    const auto start = std::chrono::steady_clock::now();
    sim.pull(total, [&](uint64_t i) { return std::move(requests[i]); });
    sim.run();
    const auto stop = std::chrono::steady_clock::now();

    const des::EventQueue &queue = sim.queue();
    const core::RhythmStats &stats = sim.server().stats();
    RunResult r;
    r.hostMs =
        std::chrono::duration<double, std::milli>(stop - start).count();
    r.clock = queue.now();
    r.dispatched = queue.dispatched();
    r.orderHash = queue.orderHash();
    r.responses = stats.responsesCompleted;
    r.engineWarps = sim.device().engine().warps();
    r.latencySumMs =
        stats.latencyMs.mean() * static_cast<double>(stats.latencyMs.count());
    if (const simt::ProfileCache *cache = sim.profileCache())
        r.cache = cache->stats();
    util::setSimThreads(1);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rhythm;
    const Flags flags = bench::parseArgs(argc, argv, {kSpeedupFlags});
    bench::Reporter report("sim_speedup", flags);
    bench::banner("Simulator speedup: warp profile cache",
                  "host-side optimization (no paper counterpart)");

    const auto cohorts = static_cast<uint32_t>(flags.count("cohorts"));

    const RunResult off1 = runOnce(false, 1, cohorts);
    const RunResult on1 = runOnce(true, 1, cohorts);
    const RunResult off8 = runOnce(false, 8, cohorts);
    const RunResult on8 = runOnce(true, 8, cohorts);

    const bool all_identical = identical(off1, on1) &&
                               identical(off1, off8) &&
                               identical(off1, on8);
    const double speedup1 = on1.hostMs > 0 ? off1.hostMs / on1.hostMs : 0;
    const double speedup8 = on8.hostMs > 0 ? off8.hostMs / on8.hostMs : 0;

    TableWriter t({"configuration", "host ms", "speedup vs cache-off",
                   "warps simulated", "warps served from cache"});
    const auto row = [&](const char *name, const RunResult &r,
                         double speedup, bool cached) {
        const uint64_t simulated = cached ? r.cache.misses : r.engineWarps;
        const uint64_t served =
            cached ? r.cache.hits + r.cache.intraHits : 0;
        t.addRow({name, formatDouble(r.hostMs, 1),
                  speedup > 0 ? formatDouble(speedup, 2) + "x" : "-",
                  withCommas(simulated), withCommas(served)});
    };
    row("cache off, 1 thread", off1, 0, false);
    row("cache on,  1 thread", on1, speedup1, true);
    row("cache off, 8 threads", off8, 0, false);
    row("cache on,  8 threads", on8, speedup8, true);
    t.printAscii(std::cout);
    std::cout << "outputs byte-identical across all four runs: "
              << (all_identical ? "yes" : "NO — BUG") << "\n"
              << "cache: " << withCommas(on1.cache.hits)
              << " cross-launch hits, "
              << withCommas(on1.cache.intraHits) << " intra-launch, "
              << withCommas(on1.cache.misses) << " misses, "
              << withCommas(on1.cache.evictions) << " evictions, "
              << bench::fmt(static_cast<double>(on1.cache.bytesSaved) /
                                (1024.0 * 1024.0),
                            1)
              << " MiB of traces not re-simulated\n";

    report.config("cohorts", static_cast<double>(cohorts));
    report.config("lane_sample", static_cast<double>(kLaneSample));
    report.config("users", static_cast<double>(kUsers));
    report.config("cache_entries", static_cast<double>(kCacheEntries));
    // Deterministic: exact-compared by the perf gate.
    report.metric("identical_outputs", all_identical ? 1.0 : 0.0);
    report.metric("responses", static_cast<double>(off1.responses));
    report.metric("warps_total",
                  static_cast<double>(off1.engineWarps));
    report.metric("cache.hits", static_cast<double>(on1.cache.hits));
    report.metric("cache.intra_hits",
                  static_cast<double>(on1.cache.intraHits));
    report.metric("cache.misses",
                  static_cast<double>(on1.cache.misses));
    report.metric("cache.insertions",
                  static_cast<double>(on1.cache.insertions));
    report.metric("cache.evictions",
                  static_cast<double>(on1.cache.evictions));
    // Machine-dependent: gated by the separate --host-tolerance band.
    report.hostStat("off_1t_ms", off1.hostMs);
    report.hostStat("on_1t_ms", on1.hostMs);
    report.hostStat("off_8t_ms", off8.hostMs);
    report.hostStat("on_8t_ms", on8.hostMs);
    report.hostStat("speedup_1t", speedup1);
    report.hostStat("speedup_8t", speedup8);
    if (!report.write())
        return 1;
    return all_identical ? 0 : 1;
}
