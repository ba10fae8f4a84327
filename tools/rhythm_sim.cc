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
#include "fault/device_injector.hh"
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

int
usage(const std::string &error)
{
    if (!error.empty())
        std::cerr << "error: " << error << "\n\n";
    std::cerr
        << "usage: rhythm_sim [flags]\n"
           "  --workload=banking|search|chat  workload to serve (banking)\n"
           "  --platform=titanA|titanB|titanC  preset (titanB)\n"
           "  --type=<name>               isolate one request type\n"
           "  --cohort-size=N             requests per cohort (4096)\n"
           "  --cohorts=N                 cohorts to push through (10)\n"
           "  --contexts=N                cohort contexts (8)\n"
           "  --timeout-ms=X              formation timeout (2.0)\n"
           "  --lane-sample=N             executed lanes/cohort (128)\n"
           "  --users=N                   bank database users (2000)\n"
           "  --docs=N                    search corpus documents (4000)\n"
           "  --sms=N                     streaming multiprocessors\n"
           "  --mem-gbs=X                 device DRAM bandwidth\n"
           "  --pcie-gbs=X                PCIe bandwidth per direction\n"
           "  --queues=N                  hardware work queues\n"
           "  --no-transpose              row-major cohort buffers\n"
           "  --no-padding                disable whitespace padding\n"
           "  --seed=N                    deterministic seed (42)\n"
           "  --sim-threads=N             host worker threads for the\n"
           "                              execution engine (1 = serial;\n"
           "                              outputs are byte-identical for\n"
           "                              any N)\n"
           "  --profile-cache=on|off      memoize warp profiles across\n"
           "                              launches (off; outputs are\n"
           "                              byte-identical either way, only\n"
           "                              host wall-clock changes)\n"
           "  --profile-cache-entries=N   cache capacity in warp entries\n"
           "                              (4096)\n"
           "transfer/compute overlap (off by default):\n"
           "  --overlap=on|off            pipeline parse of cohort k+1\n"
           "                              under kernels of cohort k and\n"
           "                              ship only occupied slot bytes\n"
           "                              (off; implies --copy-engines=4\n"
           "                              and --copy-chunk-kb=256 unless\n"
           "                              overridden; responses are\n"
           "                              byte-identical on or off)\n"
           "  --copy-engines=N            modeled DMA engines per PCIe\n"
           "                              direction (1)\n"
           "  --copy-chunk-kb=N           DMA chunk granularity (0 =\n"
           "                              whole transfer)\n"
           "deadline-aware adaptive batching (off by default):\n"
           "  --batching=fixed|adaptive   cohort formation policy "
           "(fixed;\n"
           "                              adaptive dispatches a forming\n"
           "                              cohort early when the oldest\n"
           "                              request's deadline slack drops\n"
           "                              below the modeled pipeline "
           "cost)\n"
           "  --deadline-default-ms=X     deadline for unlisted types "
           "(10)\n"
           "  --deadline-ms-<type>=X      per-type deadline by slugged\n"
           "                              type name (e.g.\n"
           "                              --deadline-ms-transfer=3)\n"
           "  --slack-safety=X            cost-estimate safety factor "
           "(1.2)\n"
           "  --adaptive-scan-us=X        slack-scan period (200)\n"
           "  --admission=on|off          deadline-aware admission "
           "control (on)\n"
           "cross-type cohort fusion (off by default):\n"
           "  --fusion=on|off             pack similarity-compatible\n"
           "                              partial cohorts into shared\n"
           "                              warps instead of padding each\n"
           "                              (off; responses are\n"
           "                              byte-identical on or off)\n"
           "  --fusion-threshold=X        minimum online pair similarity\n"
           "                              to fuse (0.5)\n"
           "  --fusion-max-cohorts=N      cohorts fusable per launch "
           "(4)\n"
           "  --fingerprint-alpha=X       similarity EWMA smoothing "
           "(0.25)\n"
           "  --fingerprint-lanes=N       lanes sampled per fingerprint\n"
           "                              update (32)\n"
           "multi-device sharding (single device by default; banking,\n"
           "open-loop arrivals only):\n"
           "  --devices=N                 serve from an N-device fleet:\n"
           "                              per-device event streams,\n"
           "                              PCIe links, copy engines and\n"
           "                              backends behind a front-end\n"
           "                              balancer (1; outputs are\n"
           "                              byte-identical across\n"
           "                              --sim-threads for any N)\n"
           "  --balance=hash|least        session-hash or least-\n"
           "                              outstanding routing (hash)\n"
           "  --shard-seed=N              user-to-shard map seed\n"
           "  --cross-shard=F             fraction of arrivals that also\n"
           "                              start a two-phase cross-shard\n"
           "                              transfer (0)\n"
           "open-loop arrivals (closed loop by default; banking only):\n"
           "  --arrival=closed|poisson|diurnal|flash\n"
           "                              arrival process driving "
           "injection\n"
           "  --arrival-rate=X            mean arrival rate, reqs/s "
           "(200000)\n"
           "  --arrival-seed=N            arrival-stream seed (1)\n"
           "  --flash-mult=X              flash-crowd rate multiplier "
           "(8)\n"
           "  --flash-start-ms=X          flash onset (50)\n"
           "  --flash-dur-ms=X            flash duration (50)\n"
           "  --diurnal-period-ms=X       diurnal cycle period (200)\n"
           "  --diurnal-trough=F          trough fraction of peak rate "
           "(0.25)\n"
           "observability (off by default):\n"
           "  --json=PATH                 machine-readable result JSON\n"
           "  --trace-out=PATH            Chrome trace_event JSON "
           "(perfetto)\n"
           "  --digest-out=PATH           order-insensitive FNV-1a digest\n"
           "                              of every response (equivalence\n"
           "                              gates compare it across\n"
           "                              --overlap and --sim-threads)\n"
           "fault injection (all off by default):\n"
           "  --fault-seed=N              fault plan seed (1)\n"
           "  --backend-fail=P            backend call failure probability\n"
           "  --backend-slow=P            backend brownout probability\n"
           "  --backend-slow-ms=X         mean brownout delay (5.0)\n"
           "  --pcie-corrupt=P            PCIe corrupt+replay probability\n"
           "  --pcie-degrade=P            PCIe degradation probability\n"
           "  --pcie-degrade-factor=X     degradation slowdown (2.0)\n"
           "  --stall=P                   stream stall probability\n"
           "  --stall-ms=X                mean stall duration (1.0)\n"
           "  --disconnect=P              client disconnect probability\n"
           "  --crash=P                   backend crash-restart "
           "probability\n"
           "  --torn=P                    tear the final journal record "
           "on crash\n"
           "  --hang=P                    kernel hang probability\n"
           "  --hang-ms=X                 injected hang duration (0 = "
           "derived)\n"
           "crash recovery & stragglers (all off by default):\n"
           "  --watchdog-ms=X             cohort watchdog timeout; hedge "
           "stragglers\n"
           "  --pcie-crc                  frame CRC + bounded retransmit "
           "on PCIe\n"
           "  --recovery                  write-ahead journal + "
           "checkpointed backend\n"
           "                              (banking workload only)\n"
           "  --checkpoint-interval=N     journaled records between "
           "checkpoints (4096)\n"
           "graceful degradation (all off by default):\n"
           "  --retry-budget=N            backend retries per cohort\n"
           "  --backoff-us=X              retry backoff base (50)\n"
           "  --deadline-ms=X             per-request deadline\n"
           "  --shed-backlog=N            shed above this formation "
           "backlog\n"
           "  --shed-p99-ms=X             shed above this observed p99\n";
    return error.empty() ? 0 : 2;
}

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
    const double util = device.kernelUtilization();
    const double copy_util =
        elapsed > 0
            ? std::max(dstats.h2dBusySeconds, dstats.d2hBusySeconds) /
                  elapsed
            : 0.0;
    const double mem_util =
        elapsed > 0 ? static_cast<double>(dstats.kernelMemoryBytes) /
                          (device.config().memBandwidthGBs *
                           device.config().memoryEfficiency * 1e9 *
                           elapsed)
                    : 0.0;
    const double activity =
        pm.computeWeight * util +
        (1.0 - pm.computeWeight) * std::min(1.0, mem_util);
    const double dynamic_watts =
        pm.devicePeakWatts *
            (pm.deviceActiveFloor + (1 - pm.deviceActiveFloor) * activity) +
        pm.pcieWatts * std::min(1.0, copy_util);
    const double simd_eff =
        stats.processIssueSlots > 0
            ? stats.processLaneInstructions /
                  (stats.processIssueSlots * 32.0)
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
    t.addRow({"device utilization", formatDouble(util, 3)});
    t.addRow({"DRAM bandwidth utilization",
              formatDouble(std::min(1.0, mem_util), 3)});
    t.addRow({"PCIe engine utilization", formatDouble(copy_util, 3)});
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
    const core::RhythmConfig &scfg = server.config();
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
        const double simd_eff =
            stats.processIssueSlots > 0
                ? stats.processLaneInstructions /
                      (stats.processIssueSlots *
                       scfg.warpModel.warpWidth)
                : 0.0;
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
        rep->metric("device_utilization", util);
        rep->metric("pcie_utilization", copy_util);
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
    Flags flags;
    if (!flags.parse(argc, argv))
        return usage(flags.error());
    if (flags.has("help"))
        return usage("");
    std::vector<std::string> known =
        {"workload", "platform", "type", "cohort-size", "cohorts",
         "contexts", "timeout-ms", "lane-sample", "users", "docs",
         "sms", "mem-gbs", "pcie-gbs", "queues", "transpose",
         "padding", "seed", "help", "fault-seed", "backend-fail",
         "backend-slow", "backend-slow-ms", "pcie-corrupt",
         "pcie-degrade", "pcie-degrade-factor", "stall", "stall-ms",
         "disconnect", "crash", "torn", "hang", "hang-ms",
         "watchdog-ms", "pcie-crc", "recovery",
         "checkpoint-interval", "retry-budget", "backoff-us",
         "deadline-ms", "shed-backlog", "shed-p99-ms", "json",
         "trace-out", "sim-threads", "profile-cache",
         "profile-cache-entries", "overlap", "copy-engines",
         "copy-chunk-kb", "digest-out", "batching",
         "deadline-default-ms", "slack-safety", "adaptive-scan-us",
         "admission", "arrival", "arrival-rate", "arrival-seed",
         "flash-mult", "flash-start-ms", "flash-dur-ms",
         "diurnal-period-ms", "diurnal-trough", "fusion",
         "fusion-threshold", "fusion-max-cohorts", "fingerprint-alpha",
         "fingerprint-lanes", "devices", "balance", "shard-seed",
         "cross-shard"};
    // A numeric flag whose value does not parse is a usage error, not a
    // silent fall back to the default.
    const std::vector<std::string> integers =
        {"cohort-size", "cohorts", "contexts", "lane-sample", "users",
         "docs", "sms", "queues", "seed", "fault-seed",
         "checkpoint-interval", "retry-budget", "shed-backlog",
         "sim-threads", "profile-cache-entries", "copy-engines",
         "copy-chunk-kb", "fusion-max-cohorts", "fingerprint-lanes",
         "devices", "shard-seed"};
    std::vector<std::string> decimals =
        {"timeout-ms", "mem-gbs", "pcie-gbs", "backend-fail",
         "backend-slow", "backend-slow-ms", "pcie-corrupt",
         "pcie-degrade", "pcie-degrade-factor", "stall", "stall-ms",
         "disconnect", "crash", "torn", "hang", "hang-ms", "watchdog-ms",
         "backoff-us", "deadline-ms", "shed-p99-ms",
         "deadline-default-ms", "slack-safety", "adaptive-scan-us",
         "arrival-rate", "arrival-seed", "flash-mult", "flash-start-ms",
         "flash-dur-ms", "diurnal-period-ms", "diurnal-trough",
         "fusion-threshold", "fingerprint-alpha", "cross-shard"};
    // Per-type deadlines are open vocabulary (--deadline-ms-<type>);
    // BatchingFlags validates the slug against the service's types.
    for (const std::string &name : flags.names()) {
        if (name.rfind("deadline-ms-", 0) == 0) {
            known.push_back(name);
            decimals.push_back(name);
        }
    }
    if (!flags.allowOnly(known) || !flags.requireU64(integers) ||
        !flags.requireDouble(decimals))
        return usage(flags.error());

    // Host-side parallelism of the execution engine. Applied before any
    // simulation object exists; N changes wall-clock time only — every
    // simulated output is byte-identical by the engine's determinism
    // contract, so the value is deliberately absent from the --json
    // config section.
    util::setSimThreads(
        static_cast<unsigned>(flags.getU64("sim-threads", 1)));

    // ---- Platform ----------------------------------------------------
    const std::string preset = flags.getString("platform", "titanB");
    platform::TitanVariant variant;
    if (preset == "titanA")
        variant = platform::titanA();
    else if (preset == "titanB")
        variant = platform::titanB();
    else if (preset == "titanC")
        variant = platform::titanC();
    else
        return usage("unknown platform: " + preset);

    variant.device.numSms = static_cast<int>(
        flags.getU64("sms", static_cast<uint64_t>(variant.device.numSms)));
    variant.device.memBandwidthGBs =
        flags.getDouble("mem-gbs", variant.device.memBandwidthGBs);
    variant.device.pcieBandwidthGBs =
        flags.getDouble("pcie-gbs", variant.device.pcieBandwidthGBs);
    variant.device.hardwareQueues = static_cast<int>(flags.getU64(
        "queues", static_cast<uint64_t>(variant.device.hardwareQueues)));
    // Out-of-range sizes and rates are usage errors: reject them here
    // rather than trip a library assert (or, for a zero-bandwidth link,
    // simulate nonsense). `!(x > 0)` also rejects NaN.
    if (variant.device.numSms < 1)
        return usage("--sms must be >= 1");
    if (!(variant.device.memBandwidthGBs > 0))
        return usage("--mem-gbs must be > 0");
    if (!(variant.device.pcieBandwidthGBs > 0))
        return usage("--pcie-gbs must be > 0");
    if (variant.device.hardwareQueues < 1)
        return usage("--queues must be >= 1");
    if (flags.getBool("pcie-crc", false))
        variant.device.pcieCrcEnabled = true;

    // Transfer/compute overlap family (DESIGN.md 6h). Parsed with the
    // shared bench helper so the bench binaries and the driver agree on
    // the --overlap=on implied defaults.
    const std::string overlap_mode = flags.getString("overlap", "off");
    if (overlap_mode != "on" && overlap_mode != "off")
        return usage("--overlap must be on or off");
    const bench::OverlapFlags overlap =
        bench::OverlapFlags::parse(argc, argv);
    // An explicit --copy-engines must be positive; OverlapFlags treats
    // non-positive values as "use the mode default", which would
    // silently ignore a typo'd 0 here.
    const std::string engines_raw = flags.getString("copy-engines", "");
    if (!engines_raw.empty() && std::atoi(engines_raw.c_str()) < 1)
        return usage("--copy-engines must be >= 1");
    overlap.apply(variant.device);

    // Deadline-aware batching + open-loop arrival families (DESIGN.md
    // 6i), parsed with the shared bench helpers so the bench binaries
    // and the driver agree on names and defaults. The batching policy
    // is applied per workload branch (per-type deadline slugs resolve
    // against the service's type names).
    const bench::BatchingFlags batching =
        bench::BatchingFlags::parse(argc, argv);
    const bench::ArrivalFlags arrival =
        bench::ArrivalFlags::parse(argc, argv);
    if (arrival.open() && !(arrival.config.rate > 0))
        return usage("--arrival-rate must be > 0");
    // Cross-type cohort fusion family (DESIGN.md 6j), same shared-helper
    // arrangement.
    const bench::FusionFlags fusion = bench::FusionFlags::parse(argc, argv);
    // Multi-device sharding family (DESIGN.md 6k).
    const bench::ShardingFlags sharding =
        bench::ShardingFlags::parse(argc, argv);

    core::RhythmConfig cfg = variant.server;
    overlap.apply(cfg);
    fusion.apply(cfg);
    cfg.cohortSize =
        static_cast<uint32_t>(flags.getU64("cohort-size", 4096));
    if (cfg.cohortSize == 0)
        return usage("--cohort-size must be >= 1");
    // Default to 16 contexts: a mixed workload needs roughly one per
    // request type in flight (isolation runs are fine with fewer).
    cfg.cohortContexts =
        static_cast<uint32_t>(flags.getU64("contexts", 16));
    if (cfg.cohortContexts == 0)
        return usage("--contexts must be >= 1");
    const double timeout_ms = flags.getDouble("timeout-ms", 2.0);
    if (!(timeout_ms >= 0))
        return usage("--timeout-ms must be >= 0");
    cfg.cohortTimeout = des::fromSeconds(timeout_ms / 1e3);
    if (flags.getU64("users", 2000) == 0)
        return usage("--users must be >= 1");
    if (flags.getU64("docs", 4000) == 0)
        return usage("--docs must be >= 1");
    cfg.laneSample =
        static_cast<uint32_t>(flags.getU64("lane-sample", 128));
    cfg.transposeBuffers = flags.getBool("transpose", true);
    cfg.padResponses = flags.getBool("padding", true);

    // ---- Robustness knobs (all off by default) -----------------------
    cfg.backendRetryBudget =
        static_cast<uint32_t>(flags.getU64("retry-budget", 0));
    cfg.retryBackoffBase =
        des::fromSeconds(flags.getDouble("backoff-us", 50.0) / 1e6);
    cfg.requestDeadline =
        des::fromSeconds(flags.getDouble("deadline-ms", 0.0) / 1e3);
    cfg.shedBacklogLimit =
        static_cast<uint32_t>(flags.getU64("shed-backlog", 0));
    cfg.shedLatencySlo =
        des::fromSeconds(flags.getDouble("shed-p99-ms", 0.0) / 1e3);
    cfg.watchdogTimeout =
        des::fromSeconds(flags.getDouble("watchdog-ms", 0.0) / 1e3);

    fault::FaultConfig fcfg;
    fcfg.seed = flags.getU64("fault-seed", 1);
    fcfg.at(fault::Site::BackendFail).probability =
        flags.getDouble("backend-fail", 0.0);
    fcfg.at(fault::Site::BackendSlow).probability =
        flags.getDouble("backend-slow", 0.0);
    fcfg.at(fault::Site::BackendSlow).meanDelay =
        des::fromSeconds(flags.getDouble("backend-slow-ms", 5.0) / 1e3);
    fcfg.at(fault::Site::PcieCorrupt).probability =
        flags.getDouble("pcie-corrupt", 0.0);
    fcfg.at(fault::Site::PcieDegrade).probability =
        flags.getDouble("pcie-degrade", 0.0);
    fcfg.at(fault::Site::PcieDegrade).factor =
        flags.getDouble("pcie-degrade-factor", 2.0);
    fcfg.at(fault::Site::StreamStall).probability =
        flags.getDouble("stall", 0.0);
    fcfg.at(fault::Site::StreamStall).meanDelay =
        des::fromSeconds(flags.getDouble("stall-ms", 1.0) / 1e3);
    fcfg.at(fault::Site::ClientDisconnect).probability =
        flags.getDouble("disconnect", 0.0);
    fcfg.at(fault::Site::BackendCrash).probability =
        flags.getDouble("crash", 0.0);
    fcfg.at(fault::Site::JournalTorn).probability =
        flags.getDouble("torn", 0.0);
    fcfg.at(fault::Site::KernelHang).probability =
        flags.getDouble("hang", 0.0);
    fcfg.at(fault::Site::KernelHang).meanDelay =
        des::fromSeconds(flags.getDouble("hang-ms", 0.0) / 1e3);
    for (const auto &site : fcfg.sites) {
        if (site.probability < 0.0 || site.probability > 1.0)
            return usage("fault probabilities must be in [0, 1]");
        if (site.factor < 1.0)
            return usage("--pcie-degrade-factor must be >= 1");
    }
    const bool faults_on = !fcfg.allQuiet();
    const bool recovery_on = flags.getBool("recovery", false);
    const bool robust = faults_on || cfg.backendRetryBudget ||
                        cfg.requestDeadline || cfg.shedBacklogLimit ||
                        cfg.shedLatencySlo || cfg.watchdogTimeout ||
                        recovery_on;

    const uint64_t seed = flags.getU64("seed", 42);
    const uint32_t cohorts =
        static_cast<uint32_t>(flags.getU64("cohorts", 10));
    const uint64_t total =
        static_cast<uint64_t>(cohorts) * cfg.cohortSize;

    // ---- Warp profile cache (host-side memoization, off by default) --
    const std::string pc_mode = flags.getString("profile-cache", "off");
    if (pc_mode != "on" && pc_mode != "off")
        return usage("--profile-cache must be on or off");
    const bool pc_on = pc_mode == "on";
    const uint64_t pc_entries =
        flags.getU64("profile-cache-entries", 4096);
    if (pc_on && pc_entries == 0)
        return usage("--profile-cache-entries must be >= 1");
    if (pc_on)
        cfg.traceTemplateCacheEntries =
            static_cast<uint32_t>(pc_entries);
    // Outlives every workload branch's device; attached only when on.
    simt::ProfileCache profile_cache(std::max<uint64_t>(pc_entries, 1));

    // ---- Observability -----------------------------------------------
    bench::Reporter json_report("rhythm_sim", argc, argv);
    const std::string trace_path = flags.getString("trace-out", "");
    const bool observe = json_report.enabled() || !trace_path.empty();
    json_report.config("workload", flags.getString("workload", "banking"));
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
    digest.path = flags.getString("digest-out", "");

    std::cout << "rhythm_sim: " << flags.getString("workload", "banking")
              << " on " << preset << " (" << variant.device.numSms
              << " SMs, " << variant.device.memBandwidthGBs << " GB/s, "
              << cohorts << " cohorts x " << cfg.cohortSize << ")\n";

    // ---- Workloads -----------------------------------------------------
    const std::string workload = flags.getString("workload", "banking");
    if (arrival.open() && workload != "banking")
        return usage("--arrival supports the banking workload only");
    if (workload == "banking") {
        const uint64_t users = flags.getU64("users", 2000);
        backend::BankDb db(users, seed);
        specweb::WorkloadGenerator gen(db, seed * 31 + 7);

        std::optional<specweb::RequestType> only;
        const std::string type_name = flags.getString("type", "");
        if (!type_name.empty()) {
            for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
                if (specweb::typeTable()[i].name == type_name)
                    only = specweb::typeTable()[i].type;
            }
            if (!only)
                return usage("unknown banking type: " + type_name);
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
                return usage(
                    "--devices > 1 requires an open-loop --arrival");
            if (only)
                return usage("--type isolation is single-device only");

            des::EventQueue queue;
            if (observe)
                obs::global().enable(queue);
            core::FleetConfig fc = sharding.toFleetConfig();
            fc.recovery = recovery_on;
            fc.checkpointInterval =
                flags.getU64("checkpoint-interval", 4096);
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
            fault::FaultPlan plan(fcfg);
            for (uint32_t i = 0; i < fleet.devices(); ++i) {
                if (pc_on) {
                    caches.push_back(
                        std::make_unique<simt::ProfileCache>(
                            pc_entries));
                    fleet.device(i).engine().setProfileCache(
                        caches.back().get());
                }
                if (faults_on) {
                    fleet.server(i).setFaultPlan(&plan);
                    fault::installDeviceFaults(fleet.device(i), plan,
                                               queue);
                }
            }

            const uint64_t per_shard = std::max<uint64_t>(
                std::min<uint64_t>(total, 8192) / fc.devices, 1);
            const auto &pools =
                fleet.populateSessions(per_shard, users);
            // Round-robin interleave of the per-shard pools so
            // consecutive arrivals spread across the whole fleet.
            std::vector<std::pair<uint64_t, uint64_t>> flat;
            size_t longest = 0;
            for (const auto &p : pools)
                longest = std::max(longest, p.size());
            for (size_t k = 0; k < longest; ++k)
                for (const auto &p : pools)
                    if (k < p.size())
                        flat.push_back(p[k]);
            if (flat.empty())
                return usage("no sessions could be populated");

            const uint64_t cross_every =
                sharding.crossShard > 0
                    ? std::max<uint64_t>(
                          1, static_cast<uint64_t>(
                                 1.0 / sharding.crossShard + 0.5))
                    : 0;

            uint64_t issued = 0;
            std::optional<net::ArrivalProcess> arrivals;
            std::function<void()> arrive;
            arrivals.emplace(arrival.config);
            arrive = [&]() {
                if (issued >= total)
                    return;
                specweb::RequestType type;
                do {
                    type = gen.sampleType();
                } while (type == specweb::RequestType::Login ||
                         type == specweb::RequestType::Logout);
                const auto &[sid, user] = flat[issued % flat.size()];
                specweb::GeneratedRequest req =
                    gen.generate(type, user, sid);
                ++issued;
                fleet.injectRequest(std::move(req.raw), issued, user,
                                    static_cast<uint32_t>(type));
                if (cross_every && issued % cross_every == 0)
                    fleet.beginCrossShardTransfer(
                        gen.sampleUser(), gen.sampleUser(),
                        100 + static_cast<int64_t>(issued % 32) * 25);
                if (issued < total)
                    queue.scheduleAfter(arrivals->nextGap(), arrive);
            };
            queue.scheduleAfter(arrivals->nextGap(), arrive);
            queue.run();
            fleetReport(fleet, queue, &json_report);
            return finish(json_report, trace_path, digest);
        }

        des::EventQueue queue;
        if (observe)
            obs::global().enable(queue);
        simt::Device device(queue, variant.device);
        if (pc_on)
            device.engine().setProfileCache(&profile_cache);
        core::BankingService service(db);
        batching.apply(cfg, service);
        core::RhythmServer server(queue, device, service, cfg);
        specweb::StaticContent content(32, seed);
        server.setStaticContent(&content);
        digest.attach(server);
        fault::FaultPlan plan(fcfg);
        if (faults_on) {
            server.setFaultPlan(&plan);
            fault::installDeviceFaults(device, plan, queue);
        }

        // Logout consumes one session per request; other types reuse a
        // pool.
        auto sessions = server.sessions().populate(
            only && *only == specweb::RequestType::Logout
                ? total
                : std::min<uint64_t>(total, 8192),
            users);
        // Recovery wraps the populated baseline: the constructor takes
        // the first checkpoint, so it must run after populate().
        std::unique_ptr<backend::RecoverableBackend> recoverable;
        if (recovery_on) {
            backend::RecoveryConfig rcfg;
            rcfg.checkpointInterval =
                flags.getU64("checkpoint-interval", 4096);
            recoverable = std::make_unique<backend::RecoverableBackend>(
                service.backendService(), db, rcfg);
            if (faults_on)
                recoverable->setFaultPlan(
                    &plan, [&queue]() { return queue.now(); });
            core::attachSessionRecovery(*recoverable, server.sessions());
            service.setRecovery(recoverable.get());
        }
        uint64_t issued = 0;
        auto next_request = [&]() -> std::string {
            specweb::GeneratedRequest req;
            specweb::RequestType type;
            if (only) {
                type = *only;
            } else {
                // Mixed mode models the browsing steady state: logins
                // and logouts churn the reusable session pool, so run
                // them isolated via --type instead.
                do {
                    type = gen.sampleType();
                } while (type == specweb::RequestType::Login ||
                         type == specweb::RequestType::Logout);
            }
            if (type == specweb::RequestType::Login) {
                req = gen.generate(type, gen.sampleUser(), 0);
            } else {
                const auto &[sid, user] =
                    sessions[issued % sessions.size()];
                req = gen.generate(type, user, sid);
            }
            ++issued;
            return std::move(req.raw);
        };
        // Closed loop (the historical pull source) or an open-loop
        // arrival process pushing on its own schedule; both must
        // outlive queue.run().
        std::optional<net::ArrivalProcess> arrivals;
        std::function<void()> arrive;
        if (!arrival.open()) {
            server.start([&]() -> std::optional<std::string> {
                if (issued >= total)
                    return std::nullopt;
                return next_request();
            });
        } else {
            arrivals.emplace(arrival.config);
            arrive = [&]() {
                if (issued >= total)
                    return;
                const uint64_t client_id = issued + 1;
                // injectRequest == false is a reader drop: an
                // open-loop client does not retry (counted in
                // RhythmStats::readerDrops).
                server.injectRequest(next_request(), client_id);
                if (issued < total)
                    queue.scheduleAfter(arrivals->nextGap(), arrive);
            };
            queue.scheduleAfter(arrivals->nextGap(), arrive);
        }
        queue.run();
        report(server, device, queue, variant.power,
               faults_on ? &plan : nullptr, robust, &json_report,
               pc_on ? &profile_cache : nullptr, recoverable.get());
        return finish(json_report, trace_path, digest);
    }

    if (recovery_on)
        return usage("--recovery supports the banking workload only");

    if (workload == "chat") {
        chat::RoomStore store(256, 40, seed);
        chat::ChatGenerator gen(store, seed * 13 + 5);

        des::EventQueue queue;
        if (observe)
            obs::global().enable(queue);
        simt::Device device(queue, variant.device);
        if (pc_on)
            device.engine().setProfileCache(&profile_cache);
        chat::ChatService service(store);
        batching.apply(cfg, service);
        core::RhythmServer server(queue, device, service, cfg);
        digest.attach(server);
        fault::FaultPlan plan(fcfg);
        if (faults_on) {
            server.setFaultPlan(&plan);
            fault::installDeviceFaults(device, plan, queue);
        }

        uint64_t issued = 0;
        server.start([&]() -> std::optional<std::string> {
            if (issued >= total)
                return std::nullopt;
            ++issued;
            chat::PageType type;
            return gen.next(type);
        });
        queue.run();
        report(server, device, queue, variant.power,
               faults_on ? &plan : nullptr, robust, &json_report,
               pc_on ? &profile_cache : nullptr);
        std::cout << "messages posted during run: "
                  << withCommas(store.totalPosted() - 256ull * 40)
                  << "\n";
        return finish(json_report, trace_path, digest);
    }

    if (workload == "search") {
        const uint32_t docs =
            static_cast<uint32_t>(flags.getU64("docs", 4000));
        search::Corpus corpus(docs, 4096, seed);
        search::InvertedIndex index(corpus);
        search::QueryGenerator gen(corpus, seed * 17 + 3);

        des::EventQueue queue;
        if (observe)
            obs::global().enable(queue);
        simt::Device device(queue, variant.device);
        if (pc_on)
            device.engine().setProfileCache(&profile_cache);
        search::SearchService service(index);
        batching.apply(cfg, service);
        core::RhythmServer server(queue, device, service, cfg);
        digest.attach(server);
        fault::FaultPlan plan(fcfg);
        if (faults_on) {
            server.setFaultPlan(&plan);
            fault::installDeviceFaults(device, plan, queue);
        }

        uint64_t issued = 0;
        server.start([&]() -> std::optional<std::string> {
            if (issued >= total)
                return std::nullopt;
            ++issued;
            return gen.next().raw;
        });
        queue.run();
        report(server, device, queue, variant.power,
               faults_on ? &plan : nullptr, robust, &json_report,
               pc_on ? &profile_cache : nullptr);
        return finish(json_report, trace_path, digest);
    }

    return usage("unknown workload: " + workload);
}
