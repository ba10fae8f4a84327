/**
 * @file
 * rhythm_sim: the configurable simulation driver.
 *
 * Runs either shipped workload (banking / search) on any platform
 * configuration — Titan A/B/C presets or fully custom device knobs —
 * and prints a consolidated report: throughput, latency distribution,
 * device/PCIe utilization, SIMD efficiency, power and requests/Joule.
 *
 * Examples:
 *   rhythm_sim --workload=banking --platform=titanB
 *   rhythm_sim --workload=banking --platform=titanA --pcie-gbs=24
 *   rhythm_sim --workload=search --cohort-size=2048 --cohorts=16
 *   rhythm_sim --workload=banking --type=logout --no-padding
 */

#include <fstream>
#include <iostream>

#include "backend/bankdb.hh"
#include "backend/recovery.hh"
#include "bench/common.hh"
#include "chat/store.hh"
#include "chat/service.hh"
#include "fault/plan.hh"
#include "obs/obs.hh"
#include "platform/titan.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/server.hh"
#include "search/service.hh"
#include "specweb/workload.hh"
#include "util/flags.hh"
#include "util/hash.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace {

using namespace rhythm;

// rhythm_sim's own flags; the shared families come from bench/common.hh.
constexpr FlagSpec kRunSpecs[] = {
    {"workload", FlagKind::Choice, "banking", "workload to serve", {},
     "banking|search|chat"},
    {"platform", FlagKind::Choice, "titanB", "Titan preset", {},
     "titanA|titanB|titanC"},
    {"type", FlagKind::Text, "", "isolate one banking request type", {},
     "NAME"},
    // A cohort executes at most all of its lanes, and the server tags
    // at most 65,536 lanes per cohort.
    {"cohort-size", FlagKind::Count, "4096", "requests per cohort",
     {1, 65536}},
    {"cohorts", FlagKind::Count, "10", "cohorts to push through",
     {0, kMaxU32}},
    {"contexts", FlagKind::Count, "16",
     "cohort contexts (a mixed workload needs about one per request type "
     "in flight)",
     {1, kMaxU32}},
    {"timeout-ms", FlagKind::Number, "2", "cohort formation timeout",
     kNonNegative},
    {"lane-sample", FlagKind::Count, "128",
     "lanes executed per cohort; 0 = all", {0, 65536}},
    {"users", FlagKind::Count, "2000", "bank database users", kAtLeastOne},
    {"docs", FlagKind::Count, "4000", "search corpus documents",
     {1, kMaxU32}},
    {"seed", FlagKind::Count, "42", "deterministic seed"},
    {"transpose", FlagKind::Switch, "on",
     "transposed cohort buffers (off = row-major)"},
    {"padding", FlagKind::Switch, "on", "whitespace padding of responses"},
    {"profile-cache", FlagKind::Switch, "off",
     "memoize warp profiles across launches (outputs are byte-identical "
     "either way; only host wall-clock changes)"},
    {"profile-cache-entries", FlagKind::Count, "4096",
     "profile cache capacity in warp entries", {1, kMaxU32}},
};
constexpr FlagSpec kDeviceSpecs[] = {
    {"sms", FlagKind::Count, "", "streaming multiprocessors (preset)",
     {1, kMaxI32}},
    {"mem-gbs", FlagKind::Number, "", "device DRAM bandwidth (preset)",
     kPositive},
    {"pcie-gbs", FlagKind::Number, "",
     "PCIe bandwidth per direction (preset)", kPositive},
    {"queues", FlagKind::Count, "", "hardware work queues (preset)",
     {1, kMaxI32}},
};
constexpr FlagSpec kOutputSpecs[] = {
    {"trace-out", FlagKind::Text, "", "Chrome trace_event JSON (perfetto)",
     {}, "PATH"},
    {"digest-out", FlagKind::Text, "", 
     "order-insensitive FNV-1a digest of every response (equivalence "
     "gates compare it across --overlap and --sim-threads)",
     {}, "PATH"},
};
constexpr FlagTable kRunFlags = {"run", kRunSpecs};
constexpr FlagTable kDeviceFlags = {"device (overrides the preset)",
                                    kDeviceSpecs};
constexpr FlagTable kOutputFlags = {"observability (off by default)",
                                    kOutputSpecs};

/**
 * Prints the fault/degradation report section. Only called when a fault
 * plan or a degradation knob is armed, so default runs keep the exact
 * seed output.
 */
void
faultReport(const core::RhythmStats &stats, const fault::FaultPlan *plan,
            const backend::RecoverableBackend *recovery)
{
    TableWriter t({"robustness metric", "value"});
    t.addRow({"requests shed (503)", withCommas(stats.requestsShed)});
    t.addRow({"reader drops", withCommas(stats.readerDrops)});
    t.addRow({"backend retries", withCommas(stats.backendRetries)});
    t.addRow({"backend failed lanes",
              withCommas(stats.backendFailedLanes)});
    t.addRow({"deadline misses", withCommas(stats.deadlineMisses)});
    t.addRow({"client disconnects", withCommas(stats.clientDisconnects)});
    t.addRow({"degraded-mode time",
              formatDouble(des::toMillis(stats.degradedTime), 2) +
                  " ms"});
    t.addRow({"kernel hangs injected", withCommas(stats.kernelHangs)});
    t.addRow({"watchdog fires", withCommas(stats.watchdogFires)});
    t.addRow({"hedge wins / cancelled",
              withCommas(stats.hedgeWins) + " / " +
                  withCommas(stats.hedgeCancelled)});
    t.addRow({"hedge backend replays",
              withCommas(stats.hedgeReplayedCalls)});
    if (recovery) {
        const backend::RecoveryStats &rs = recovery->stats();
        t.addRow({"backend crashes", withCommas(rs.crashes)});
        t.addRow({"journaled records", withCommas(rs.journaledRecords)});
        t.addRow({"journal replays", withCommas(rs.replayedRecords)});
        t.addRow({"torn records dropped", withCommas(rs.tornRecords)});
        t.addRow({"idempotency memo hits", withCommas(rs.memoHits)});
        t.addRow({"checkpoints", withCommas(rs.checkpoints)});
    }
    if (plan) {
        uint64_t injected = plan->totalInjected();
        // Server-side consultations (BackendFail/BackendSlow/
        // ClientDisconnect) are also counted in stats.faultsInjected;
        // the plan total covers the device-side sites too.
        t.addRow({"faults injected", withCommas(injected)});
    }
    t.printAscii(std::cout);
}

void
report(const core::RhythmServer &server, const simt::Device &device,
       const des::EventQueue &queue, const platform::TitanPowerModel &pm,
       const fault::FaultPlan *plan = nullptr, bool robust = false,
       bench::Reporter *rep = nullptr,
       const simt::ProfileCache *cache = nullptr,
       const backend::RecoverableBackend *recovery = nullptr)
{
    const core::RhythmStats &stats = server.stats();
    const simt::Device::Stats dstats = device.stats();
    const double elapsed = des::toSeconds(queue.now());
    const double throughput =
        elapsed > 0 ? static_cast<double>(stats.responsesCompleted) /
                          elapsed
                    : 0.0;
    const platform::RunUtilization util =
        platform::measureUtilization(server, device, elapsed);
    const double dynamic_watts = pm.dynamicWatts(util);
    const core::RhythmConfig &scfg = server.config();
    const double simd_eff =
        stats.processIssueSlots > 0
            ? stats.processLaneInstructions /
                  (stats.processIssueSlots * scfg.warpModel.warpWidth)
            : 0.0;

    TableWriter t({"metric", "value"});
    t.addRow({"requests completed",
              withCommas(stats.responsesCompleted)});
    t.addRow({"error responses", withCommas(stats.errorResponses)});
    t.addRow({"simulated time", formatDouble(elapsed * 1e3, 2) + " ms"});
    t.addRow({"throughput", humanCount(throughput) + "reqs/s"});
    t.addRow({"latency mean / p50 / p99",
              formatDouble(stats.latencyMs.mean(), 2) + " / " +
                  formatDouble(stats.latencyMs.median(), 2) + " / " +
                  formatDouble(stats.latencyMs.percentile(99), 2) +
                  " ms"});
    t.addRow({"latency breakdown (mean)",
              formatDouble(stats.formationMs.mean(), 2) +
                  " ms formation + " +
                  formatDouble(stats.pipelineMs.mean(), 2) +
                  " ms pipeline"});
    t.addRow({"cohorts launched", withCommas(stats.cohortsLaunched)});
    t.addRow({"cohort timeouts", withCommas(stats.cohortTimeouts)});
    t.addRow({"device utilization", formatDouble(util.device, 3)});
    t.addRow({"DRAM bandwidth utilization",
              formatDouble(std::min(1.0, util.memory), 3)});
    t.addRow({"PCIe engine utilization", formatDouble(util.copy, 3)});
    t.addRow({"process SIMD efficiency", formatDouble(simd_eff, 3)});
    t.addRow({"PCIe bytes",
              humanBytes(static_cast<double>(dstats.bytesToDevice +
                                             dstats.bytesToHost))});
    t.addRow({"response padding",
              humanBytes(static_cast<double>(stats.paddingBytes))});
    t.addRow({"host fallback requests",
              withCommas(stats.hostFallbackRequests)});
    t.addRow({"est. dynamic power",
              formatDouble(dynamic_watts, 1) + " W"});
    t.addRow({"est. reqs/Joule (wall)",
              formatDouble(throughput / (pm.idleWatts + dynamic_watts),
                           0)});
    t.addRow({"device memory pools",
              humanBytes(static_cast<double>(
                  server.memoryFootprintBytes()))});
    t.printAscii(std::cout);
    if (plan || robust)
        faultReport(stats, plan, recovery);

    // Deadline/adaptive section, printed (and emitted as metrics) only
    // when per-type deadline tracking is configured — default runs stay
    // byte-identical to the seed output.
    bool deadlines_tracked = scfg.adaptiveBatching;
    for (const des::Time d : scfg.typeDeadlines)
        deadlines_tracked = deadlines_tracked || d != 0;
    if (deadlines_tracked) {
        const uint64_t att_total =
            stats.typedDeadlineHits + stats.typedDeadlineMisses;
        const double attainment =
            att_total ? static_cast<double>(stats.typedDeadlineHits) /
                            static_cast<double>(att_total)
                      : 0.0;
        TableWriter at({"deadline-aware batching", "value"});
        at.addRow({"deadline hits / misses",
                   withCommas(stats.typedDeadlineHits) + " / " +
                       withCommas(stats.typedDeadlineMisses)});
        at.addRow({"attainment", formatDouble(attainment, 4)});
        at.addRow({"early dispatches",
                   withCommas(stats.adaptiveEarlyDispatches)});
        at.addRow({"preemptions", withCommas(stats.adaptivePreemptions)});
        at.addRow({"admission sheds",
                   withCommas(stats.adaptiveAdmissionSheds)});
        at.printAscii(std::cout);
        if (rep) {
            rep->metric("deadline.hits",
                        static_cast<double>(stats.typedDeadlineHits));
            rep->metric("deadline.misses",
                        static_cast<double>(stats.typedDeadlineMisses));
            rep->metric("deadline.attainment", attainment);
            rep->metric("adaptive.early_dispatches",
                        static_cast<double>(
                            stats.adaptiveEarlyDispatches));
            rep->metric("adaptive.preemptions",
                        static_cast<double>(stats.adaptivePreemptions));
            rep->metric("adaptive.admission_sheds",
                        static_cast<double>(
                            stats.adaptiveAdmissionSheds));
        }
    }

    // Cohort-fusion section, printed (and emitted as metrics) only with
    // --fusion=on — default runs stay byte-identical to the seed
    // output.
    if (scfg.fusionEnabled) {
        TableWriter ft({"cohort fusion", "value"});
        ft.addRow({"fused launches", withCommas(stats.fusedLaunches)});
        ft.addRow({"cohorts fused", withCommas(stats.fusedCohorts)});
        ft.addRow({"warps saved", withCommas(stats.fusionSavedWarps)});
        ft.addRow({"padded lanes", withCommas(stats.paddedLanes)});
        ft.addRow({"process SIMD efficiency",
                   formatDouble(simd_eff, 4)});
        ft.printAscii(std::cout);
        if (rep) {
            rep->metric("fusion.fused_launches",
                        static_cast<double>(stats.fusedLaunches));
            rep->metric("fusion.fused_cohorts",
                        static_cast<double>(stats.fusedCohorts));
            rep->metric("fusion.saved_warps",
                        static_cast<double>(stats.fusionSavedWarps));
            rep->metric("fusion.padded_lanes",
                        static_cast<double>(stats.paddedLanes));
            rep->metric("fusion.simd_efficiency", simd_eff);
        }
    }

    // Human-readable cache summary (stdout only: the --json document
    // must stay byte-identical with the cache on or off, so these
    // numbers are deliberately NOT metrics — bench_sim_speedup emits
    // them in its own JSON instead).
    if (cache) {
        const simt::ProfileCache::Stats &cs = cache->stats();
        TableWriter ct({"profile cache", "value"});
        ct.addRow({"cross-launch hits", withCommas(cs.hits)});
        ct.addRow({"intra-launch hits", withCommas(cs.intraHits)});
        ct.addRow({"misses (simulated warps)", withCommas(cs.misses)});
        ct.addRow({"insertions", withCommas(cs.insertions)});
        ct.addRow({"evictions", withCommas(cs.evictions)});
        ct.addRow({"entries", withCommas(cache->size()) + " / " +
                                  withCommas(cache->capacity())});
        ct.addRow({"trace bytes not re-simulated",
                   humanBytes(static_cast<double>(cs.bytesSaved))});
        ct.printAscii(std::cout);
    }

    if (rep) {
        rep->metric("throughput", throughput);
        rep->metric("latency.mean_ms", stats.latencyMs.mean());
        rep->metric("latency.p50_ms", stats.latencyMs.median());
        rep->metric("latency.p99_ms", stats.latencyMs.percentile(99));
        rep->metric("device_utilization", util.device);
        rep->metric("pcie_utilization", util.copy);
        rep->metric("simd_efficiency", simd_eff);
        rep->metric("pcie_bytes",
                    static_cast<double>(dstats.bytesToDevice +
                                        dstats.bytesToHost));
        rep->metric("dynamic_watts", dynamic_watts);
        rep->metric("reqs_per_joule_wall",
                    throughput / (pm.idleWatts + dynamic_watts));
        // DES determinism fingerprints: the final clock, the event
        // count and the dispatch-order hash must be identical for any
        // --sim-threads value (the equivalence tests byte-compare the
        // whole document across thread counts). The hash is split into
        // 32-bit halves so each survives the double-typed metric value
        // exactly.
        rep->metric("des.clock_seconds", elapsed);
        rep->metric("des.events",
                    static_cast<double>(queue.dispatched()));
        rep->metric("des.order_hash_hi",
                    static_cast<double>(queue.orderHash() >> 32));
        rep->metric("des.order_hash_lo",
                    static_cast<double>(queue.orderHash() &
                                        0xffffffffull));
        // Per-SM accounting from the execution engine, in canonical SM
        // order — also thread-count-invariant.
        const simt::Engine &engine = device.engine();
        rep->metric("engine.launches",
                    static_cast<double>(engine.launches()));
        rep->metric("engine.warps", static_cast<double>(engine.warps()));
        const auto &sms = engine.smCounters();
        for (size_t s = 0; s < sms.size(); ++s) {
            char prefix[16];
            std::snprintf(prefix, sizeof prefix, "sm.%02zu.", s);
            rep->metric(std::string(prefix) + "warps",
                        static_cast<double>(sms[s].warps));
            rep->metric(std::string(prefix) + "issue_slots",
                        static_cast<double>(sms[s].stats.issueSlots));
            rep->metric(std::string(prefix) + "global_transactions",
                        static_cast<double>(
                            sms[s].stats.globalTransactions));
        }
        // The instrumentation counters/histograms ride along under an
        // "obs." prefix when recording was on for this run. Feature
        // meta-metrics (profile cache, recovery, watchdog, PCIe CRC)
        // are excluded: they differ between feature-on and feature-off
        // runs whose simulated outputs the equivalence gate
        // byte-compares.
        if (obs::global().enabled())
            rep->metricsFrom(
                obs::global().metrics(), "obs.",
                std::span<const std::string_view>(
                    obs::kBaselineExcludedPrefixes));
    }
}

/**
 * Fleet-mode report (DESIGN.md 6k): aggregate goodput plus a
 * per-device section. Every number is simulated state, so the JSON
 * document is byte-identical across --sim-threads and --profile-cache
 * settings exactly like the single-device report. The obs.* ride-along
 * uses the same baseline-excluded span; the flatten rule additionally
 * drops the per-device "dev<i>." namespaces from that gated set.
 */
void
fleetReport(core::Fleet &fleet, const des::EventQueue &queue,
            bench::Reporter *rep)
{
    const double elapsed = des::toSeconds(queue.now());
    const uint64_t responses = fleet.totalResponses();
    const double goodput =
        elapsed > 0 ? static_cast<double>(responses) / elapsed : 0.0;
    const double throughput =
        elapsed > 0 ? static_cast<double>(responses +
                                          fleet.totalErrors()) /
                          elapsed
                    : 0.0;
    const core::Fleet::Stats &fs = fleet.stats();

    TableWriter t({"fleet metric", "value"});
    t.addRow({"devices (alive / total)",
              std::to_string(fleet.aliveCount()) + " / " +
                  std::to_string(fleet.devices())});
    t.addRow({"requests completed", withCommas(responses)});
    t.addRow({"error responses", withCommas(fleet.totalErrors())});
    t.addRow({"requests shed (503)", withCommas(fleet.totalShed())});
    t.addRow({"reader drops", withCommas(fleet.totalReaderDrops())});
    t.addRow({"simulated time", formatDouble(elapsed * 1e3, 2) + " ms"});
    t.addRow({"goodput", humanCount(goodput) + "reqs/s"});
    t.addRow({"cohorts launched", withCommas(fleet.totalCohorts())});
    t.addRow({"cross-shard started / completed / rejected",
              withCommas(fs.crossStarted) + " / " +
                  withCommas(fs.crossCompleted) + " / " +
                  withCommas(fs.crossRejected)});
    if (fleet.recovery(0)) {
        uint64_t crashes = 0;
        uint64_t torn = 0;
        for (uint32_t i = 0; i < fleet.devices(); ++i) {
            crashes += fleet.recovery(i)->stats().crashes;
            torn += fleet.recovery(i)->stats().tornRecords;
        }
        t.addRow({"backend crashes / torn records",
                  withCommas(crashes) + " / " + withCommas(torn)});
    }
    if (fs.devicesKilled) {
        t.addRow({"devices killed", withCommas(fs.devicesKilled)});
        t.addRow({"sessions re-sharded",
                  withCommas(fs.sessionsResharded)});
        t.addRow({"cookie rewrites", withCommas(fs.rewrittenCookies)});
    }
    t.printAscii(std::cout);

    TableWriter d({"device", "responses", "errors", "shed", "cohorts",
                   "util", "p99 ms"});
    for (uint32_t i = 0; i < fleet.devices(); ++i) {
        const core::RhythmStats &s = fleet.server(i).stats();
        d.addRow({"dev" + std::to_string(i) +
                      (fleet.alive(i) ? "" : " (dead)"),
                  withCommas(s.responsesCompleted),
                  withCommas(s.errorResponses),
                  withCommas(s.requestsShed),
                  withCommas(s.cohortsLaunched),
                  formatDouble(fleet.device(i).kernelUtilization(), 3),
                  formatDouble(s.latencyMs.percentile(99), 2)});
    }
    d.printAscii(std::cout);

    if (!rep)
        return;
    rep->metric("throughput", throughput);
    rep->metric("goodput", goodput);
    rep->metric("fleet.devices", static_cast<double>(fleet.devices()));
    rep->metric("fleet.alive", static_cast<double>(fleet.aliveCount()));
    rep->metric("fleet.accepted",
                static_cast<double>(fleet.totalAccepted()));
    rep->metric("fleet.shed", static_cast<double>(fleet.totalShed()));
    rep->metric("fleet.reader_drops",
                static_cast<double>(fleet.totalReaderDrops()));
    rep->metric("fleet.cohorts",
                static_cast<double>(fleet.totalCohorts()));
    rep->metric("fleet.cross.started",
                static_cast<double>(fs.crossStarted));
    rep->metric("fleet.cross.completed",
                static_cast<double>(fs.crossCompleted));
    rep->metric("fleet.cross.rejected",
                static_cast<double>(fs.crossRejected));
    rep->metric("fleet.devices_killed",
                static_cast<double>(fs.devicesKilled));
    rep->metric("fleet.resharded_sessions",
                static_cast<double>(fs.sessionsResharded));
    rep->metric("fleet.reshard_drops",
                static_cast<double>(fs.reshardDrops));
    rep->metric("fleet.cookie_rewrites",
                static_cast<double>(fs.rewrittenCookies));
    rep->metric("des.clock_seconds", elapsed);
    rep->metric("des.events", static_cast<double>(queue.dispatched()));
    rep->metric("des.order_hash_hi",
                static_cast<double>(queue.orderHash() >> 32));
    rep->metric("des.order_hash_lo",
                static_cast<double>(queue.orderHash() & 0xffffffffull));
    for (uint32_t i = 0; i < fleet.devices(); ++i) {
        char prefix[16];
        std::snprintf(prefix, sizeof prefix, "dev%u.", i);
        const std::string p(prefix);
        const core::RhythmStats &s = fleet.server(i).stats();
        rep->metric(p + "responses",
                    static_cast<double>(s.responsesCompleted));
        rep->metric(p + "errors",
                    static_cast<double>(s.errorResponses));
        rep->metric(p + "shed", static_cast<double>(s.requestsShed));
        rep->metric(p + "reader_drops",
                    static_cast<double>(s.readerDrops));
        rep->metric(p + "cohorts",
                    static_cast<double>(s.cohortsLaunched));
        rep->metric(p + "device_utilization",
                    fleet.device(i).kernelUtilization());
        rep->metric(p + "latency.p99_ms", s.latencyMs.percentile(99));
    }
    if (obs::global().enabled())
        rep->metricsFrom(obs::global().metrics(), "obs.",
                         std::span<const std::string_view>(
                             obs::kBaselineExcludedPrefixes));
}

/**
 * Order-insensitive fingerprint of the full response stream.
 *
 * Each response hashes independently (FNV-1a over the client id, the
 * length and the bytes) and the per-response digests combine with a
 * wrapping sum, so the fingerprint is invariant to completion order
 * but sensitive to any byte of any response. The equivalence gates
 * compare it across --overlap=on/off and --sim-threads values, whose
 * host-side callback order may legitimately differ while the simulated
 * responses must not.
 */
struct ResponseDigest
{
    std::string path; //!< Output file; empty = disabled.
    uint64_t sum = 0;
    uint64_t count = 0;

    void add(uint64_t client_id, std::string_view response)
    {
        util::Fnv1a64 h;
        h.update(client_id);
        h.update(response.size());
        uint64_t word = 0;
        int shift = 0;
        for (const char c : response) {
            word |= static_cast<uint64_t>(
                        static_cast<unsigned char>(c))
                    << shift;
            shift += 8;
            if (shift == 64) {
                h.update(word);
                word = 0;
                shift = 0;
            }
        }
        if (shift > 0)
            h.update(word);
        sum += h.digest();
        ++count;
    }

    /** Attaches the digest to a server when armed. */
    void attach(core::RhythmServer &server)
    {
        if (path.empty())
            return;
        server.setResponseCallback(
            [this](uint64_t client_id, std::string_view response,
                   des::Time) { add(client_id, response); });
    }

    /** Writes "<hex sum> <count>"; returns false on I/O failure. */
    bool write() const
    {
        if (path.empty())
            return true;
        std::ofstream out(path);
        if (out) {
            char line[48];
            std::snprintf(line, sizeof line, "%016llx %llu\n",
                          static_cast<unsigned long long>(sum),
                          static_cast<unsigned long long>(count));
            out << line;
        }
        if (!out.good()) {
            std::cerr << "error: cannot write --digest-out file: "
                      << path << "\n";
            return false;
        }
        return true;
    }
};

/**
 * Writes the trace, JSON and digest artifacts (no-ops without the
 * flags) and turns observability back off. Returns the process exit
 * code.
 */
int
finish(const bench::Reporter &rep, const std::string &trace_path,
       const ResponseDigest &digest)
{
    int rc = 0;
    if (!digest.write())
        rc = 1;
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (out) {
            obs::global().tracer().writeChromeTrace(out);
            out << "\n";
        }
        if (!out.good()) {
            std::cerr << "error: cannot write --trace-out file: "
                      << trace_path << "\n";
            rc = 1;
        }
    }
    if (!rep.write())
        rc = 1;
    obs::global().disable();
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    const Flags flags = bench::parseArgs(
        argc, argv,
        {kRunFlags, kDeviceFlags, bench::OverlapFlags::kTable,
         bench::BatchingFlags::kTable, bench::FusionFlags::kTable,
         bench::ShardingFlags::kTable, bench::ArrivalFlags::kTable,
         kOutputFlags, bench::FaultFlags::kTable});

    // ---- Platform ----------------------------------------------------
    const std::string workload = flags.text("workload");
    const std::string preset = flags.text("platform");
    platform::TitanVariant variant =
        preset == "titanA"   ? platform::titanA()
        : preset == "titanB" ? platform::titanB()
                             : platform::titanC();
    if (flags.has("sms"))
        variant.device.numSms = static_cast<int>(flags.count("sms"));
    if (flags.has("mem-gbs"))
        variant.device.memBandwidthGBs = flags.number("mem-gbs");
    if (flags.has("pcie-gbs"))
        variant.device.pcieBandwidthGBs = flags.number("pcie-gbs");
    if (flags.has("queues"))
        variant.device.hardwareQueues = static_cast<int>(flags.count("queues"));

    // The shared families (DESIGN.md 6h-6k), parsed and applied exactly
    // as the bench binaries do. The batching policy is applied per
    // workload branch: per-type deadline slugs resolve against the
    // service's type names.
    const bench::FaultFlags faults(flags);
    const bench::OverlapFlags overlap(flags);
    const bench::BatchingFlags batching(flags);
    const bench::ArrivalFlags arrival(flags);
    const bench::FusionFlags fusion(flags);
    const bench::ShardingFlags sharding(flags);
    faults.apply(variant);
    overlap.apply(variant);
    fusion.apply(variant.server);

    core::RhythmConfig cfg = variant.server;
    cfg.cohortSize = static_cast<uint32_t>(flags.count("cohort-size"));
    cfg.cohortContexts = static_cast<uint32_t>(flags.count("contexts"));
    cfg.cohortTimeout =
        des::fromSeconds(flags.number("timeout-ms") / 1e3);
    cfg.laneSample = static_cast<uint32_t>(flags.count("lane-sample"));
    cfg.transposeBuffers = flags.on("transpose");
    cfg.padResponses = flags.on("padding");

    const bool faults_on = !faults.config.allQuiet();
    const bool robust = faults_on || cfg.backendRetryBudget ||
                        cfg.requestDeadline || cfg.shedBacklogLimit ||
                        cfg.shedLatencySlo || cfg.watchdogTimeout ||
                        faults.recovery;

    const uint64_t seed = flags.count("seed");
    const uint32_t cohorts = static_cast<uint32_t>(flags.count("cohorts"));
    const uint64_t total =
        static_cast<uint64_t>(cohorts) * cfg.cohortSize;

    // ---- Warp profile cache (host-side memoization, off by default) --
    const bool pc_on = flags.on("profile-cache");
    const uint64_t pc_entries = flags.count("profile-cache-entries");
    if (pc_on)
        cfg.traceTemplateCacheEntries =
            static_cast<uint32_t>(pc_entries);
    // Outlives every workload branch's device; attached only when on.
    simt::ProfileCache profile_cache(pc_entries);

    // ---- Observability -----------------------------------------------
    bench::Reporter json_report("rhythm_sim", flags);
    const std::string trace_path = flags.text("trace-out");
    const bool observe = json_report.enabled() || !trace_path.empty();
    json_report.config("workload", workload);
    json_report.config("platform", preset);
    json_report.config("cohorts", static_cast<double>(cohorts));
    json_report.config("cohort_size", static_cast<double>(cfg.cohortSize));
    json_report.config("seed", static_cast<double>(seed));
    overlap.recordConfig(json_report);
    batching.recordConfig(json_report);
    arrival.recordConfig(json_report);
    fusion.recordConfig(json_report);
    sharding.recordConfig(json_report);

    ResponseDigest digest;
    digest.path = flags.text("digest-out");

    std::cout << "rhythm_sim: " << workload << " on " << preset << " ("
              << variant.device.numSms
              << " SMs, " << variant.device.memBandwidthGBs << " GB/s, "
              << cohorts << " cohorts x " << cfg.cohortSize << ")\n";

    // ---- The single-device run ------------------------------------------
    // Every workload but the fleet runs one device and one server through
    // this sequence. Its branch below builds the service and passes
    // `prepare`, which readies the server and returns the request source
    // (DESIGN.md 6b: arming follows, so a journal's baseline holds what
    // prepare populated), and an optional `epilogue` printed after the
    // report. Requests flow closed-loop or from the open-loop arrival
    // process.
    using Prepare =
        std::function<platform::RequestSource(core::RhythmServer &)>;
    auto serve = [&](core::Service &service, const Prepare &prepare,
                     const std::function<void()> &epilogue = {}) -> int {
        des::EventQueue queue;
        if (observe)
            obs::global().enable(queue);
        simt::Device device(queue, variant.device);
        if (pc_on)
            device.engine().setProfileCache(&profile_cache);
        batching.apply(cfg, service);
        core::RhythmServer server(queue, device, service, cfg);
        digest.attach(server);
        const platform::RequestSource source = prepare(server);
        std::optional<fault::FaultPlan> plan;
        const auto journal = faults.arm(server, device, queue, plan);
        std::optional<net::ArrivalProcess> arrivals;
        uint64_t issued = 0;
        if (arrival.open()) {
            // injectRequest == false is a reader drop: an open-loop
            // client does not retry (counted in RhythmStats::readerDrops).
            arrivals.emplace(arrival.config).drive(
                queue, total, [&](uint64_t i) {
                    server.injectRequest(source(i), i + 1);
                });
        } else {
            server.start([&]() -> std::optional<std::string> {
                if (issued >= total)
                    return std::nullopt;
                return source(issued++);
            });
        }
        queue.run();
        report(server, device, queue, variant.power,
               plan ? &*plan : nullptr, robust, &json_report,
               pc_on ? &profile_cache : nullptr, journal.get());
        if (epilogue)
            epilogue();
        return finish(json_report, trace_path, digest);
    };

    // ---- Workloads -----------------------------------------------------
    if (arrival.open() && workload != "banking")
        return bench::usageError(
            "--arrival supports the banking workload only");
    if (workload == "banking") {
        const uint64_t users = flags.count("users");
        backend::BankDb db(users, seed);
        specweb::WorkloadGenerator gen(db, seed * 31 + 7);

        std::optional<specweb::RequestType> only;
        const std::string type_name = flags.text("type");
        if (!type_name.empty()) {
            for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
                if (specweb::typeTable()[i].name == type_name)
                    only = specweb::typeTable()[i].type;
            }
            if (!only)
                return bench::usageError("unknown banking type: " +
                                         type_name);
            if (*only == specweb::RequestType::Login ||
                *only == specweb::RequestType::Logout)
                cfg.sessionNodesPerBucket = static_cast<uint32_t>(
                    3 * total / std::min<uint64_t>(users, cfg.cohortSize) +
                    16);
        }

        // ---- Multi-device fleet (DESIGN.md 6k) -----------------------
        // Sharded serving needs open-loop arrivals (a closed-loop pull
        // source cannot be routed) and the mixed type distribution.
        // --devices=1 deliberately takes the single-device path below,
        // so the default output stays byte-identical to the seed tree.
        if (sharding.fleet()) {
            if (!arrival.open())
                return bench::usageError(
                    "--devices > 1 requires an open-loop --arrival");
            if (only)
                return bench::usageError(
                    "--type isolation is single-device only");

            des::EventQueue queue;
            if (observe)
                obs::global().enable(queue);
            core::FleetConfig fc = sharding.toFleetConfig();
            fc.recovery = faults.recovery;
            fc.checkpointInterval = faults.checkpointInterval;
            // The batching policy resolves per-type deadline slugs
            // against a service instance; a front-end throwaway works
            // because every shard shares this one RhythmConfig.
            core::BankingService slug_service(db);
            batching.apply(cfg, slug_service);
            core::Fleet fleet(queue, variant.device, cfg, fc, users,
                              seed);
            specweb::StaticContent content(32, seed);
            fleet.setStaticContent(&content);
            if (!digest.path.empty())
                fleet.setResponseCallback(
                    [&digest](uint64_t client_id,
                              std::string_view response, des::Time) {
                        digest.add(client_id, response);
                    });
            // Per-device profile caches: one shared cache would leak
            // warp profiles across shards.
            std::vector<std::unique_ptr<simt::ProfileCache>> caches;
            for (uint32_t i = 0; pc_on && i < fleet.devices(); ++i) {
                caches.push_back(
                    std::make_unique<simt::ProfileCache>(pc_entries));
                fleet.device(i).engine().setProfileCache(
                    caches.back().get());
            }
            std::optional<fault::FaultPlan> plan;
            fleet.setFaultPlan(faults.plan(plan));

            const uint64_t per_shard = std::max<uint64_t>(
                std::min<uint64_t>(total, 8192) / fc.devices, 1);
            const auto pool = core::interleavePools(
                fleet.populateSessions(per_shard, users));
            if (pool.empty())
                return bench::usageError("no sessions could be populated");

            const uint64_t cross_every =
                sharding.crossShard > 0
                    ? std::max<uint64_t>(
                          1, static_cast<uint64_t>(
                                 1.0 / sharding.crossShard + 0.5))
                    : 0;
            net::ArrivalProcess arrivals(arrival.config);
            arrivals.drive(queue, total, [&](uint64_t i) {
                specweb::GeneratedRequest req =
                    gen.fromPool(gen.sampleBrowsingType(), pool, i);
                fleet.injectRequest(std::move(req.raw), i + 1, req.userId,
                                    static_cast<uint32_t>(req.type));
                if (cross_every && (i + 1) % cross_every == 0)
                    fleet.beginCrossShardTransfer(
                        gen.sampleUser(), gen.sampleUser(),
                        100 + static_cast<int64_t>((i + 1) % 32) * 25);
            });
            queue.run();
            fleetReport(fleet, queue, &json_report);
            return finish(json_report, trace_path, digest);
        }

        core::BankingService service(db);
        specweb::StaticContent content(32, seed);
        std::vector<std::pair<uint64_t, uint64_t>> sessions;
        return serve(service, [&](core::RhythmServer &server) {
            server.setStaticContent(&content);
            // Logout consumes one session per request; other types
            // reuse a pool.
            sessions = server.sessions().populate(
                only && *only == specweb::RequestType::Logout
                    ? total
                    : std::min<uint64_t>(total, 8192),
                users);
            // Mixed mode models the browsing steady state: logins and
            // logouts churn the reusable session pool, so run them
            // isolated via --type instead.
            return [&](uint64_t i) {
                return gen
                    .fromPool(only ? *only : gen.sampleBrowsingType(),
                              sessions, i)
                    .raw;
            };
        });
    }

    if (faults.recovery)
        return bench::usageError(
            "--recovery supports the banking workload only");

    if (workload == "chat") {
        chat::RoomStore store(256, 40, seed);
        chat::ChatGenerator gen(store, seed * 13 + 5);
        chat::ChatService service(store);
        return serve(
            service,
            [&](core::RhythmServer &) {
                return [&](uint64_t) {
                    chat::PageType type;
                    return gen.next(type);
                };
            },
            [&]() {
                std::cout << "messages posted during run: "
                          << withCommas(store.totalPosted() - 256ull * 40)
                          << "\n";
            });
    }

    // ---- Search (the remaining --workload choice) ----------------------
    const uint32_t docs = static_cast<uint32_t>(flags.count("docs"));
    search::Corpus corpus(docs, 4096, seed);
    search::InvertedIndex index(corpus);
    search::QueryGenerator gen(corpus, seed * 17 + 3);
    search::SearchService service(index);
    return serve(service, [&](core::RhythmServer &) {
        return [&](uint64_t) { return gen.next().raw; };
    });
}
