/**
 * @file
 * Tests for the platform models: CPU rows, scaling analysis, workload
 * measurement, Titan variants and the PCIe bound, the Simulation object
 * against a hand-built run, plus Figure 2 similarity analysis.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "analysis/fingerprint.hh"
#include "analysis/similarity.hh"
#include "backend/bankdb.hh"
#include "backend/recovery.hh"
#include "fault/plan.hh"
#include "net/arrival.hh"
#include "platform/cpu.hh"
#include "platform/measure.hh"
#include "platform/simulation.hh"
#include "platform/titan.hh"
#include "rhythm/banking_service.hh"
#include "simt/profile_cache.hh"
#include "specweb/workload.hh"
#include "util/hash.hh"

namespace rhythm::platform {
namespace {

// Reference: the paper's mix-weighted Table 2 instruction count.
constexpr double kPaperMixInsts = 331507.0;

TEST(Cpu, StandardPlatformsMatchTable3Power)
{
    auto platforms = standardCpuPlatforms();
    ASSERT_EQ(platforms.size(), 6u);
    EXPECT_EQ(platforms[0].name, "Core i5 1 worker");
    EXPECT_DOUBLE_EQ(platforms[0].idleWatts, 47.0);
    EXPECT_DOUBLE_EQ(platforms[1].dynamicWatts(), 51.0);
    EXPECT_DOUBLE_EQ(platforms[3].dynamicWatts(), 111.0);
    EXPECT_DOUBLE_EQ(platforms[5].dynamicWatts(), 2.5);
}

TEST(Cpu, EvaluationReproducesTable3Throughputs)
{
    // With the paper's instruction count, each fitted row must land
    // near the paper's measured throughput (within 10%).
    const double expected[6] = {75e3, 282e3, 331e3, 377e3, 8e3, 16e3};
    auto platforms = standardCpuPlatforms();
    for (size_t i = 0; i < platforms.size(); ++i) {
        CpuResult r = evaluateCpu(platforms[i], kPaperMixInsts);
        EXPECT_NEAR(r.throughput / expected[i], 1.0, 0.10)
            << platforms[i].name << " got " << r.throughput;
    }
}

TEST(Cpu, EfficiencyOrderingMatchesPaper)
{
    auto platforms = standardCpuPlatforms();
    auto eff = [&](size_t i) {
        return evaluateCpu(platforms[i], kPaperMixInsts)
            .reqsPerJouleDynamic;
    };
    // A9 2w > i5 4w > i7 8w (Table 3 dynamic efficiency ordering).
    EXPECT_GT(eff(5), eff(1));
    EXPECT_GT(eff(1), eff(3));
}

TEST(Cpu, LatencySubMillisecond)
{
    auto platforms = standardCpuPlatforms();
    for (const auto &p : platforms) {
        CpuResult r = evaluateCpu(p, kPaperMixInsts);
        EXPECT_LT(r.latencyMs, 1.0) << p.name;
        EXPECT_GT(r.latencyMs, 0.001) << p.name;
    }
}

TEST(Cpu, ScalingMatchesSection62)
{
    // 192 ARM cores / 21 i5 cores to match Titan B's 1.535M reqs/s.
    const double titan_b = 1.535e6;
    CpuResult arm = evaluateCpu(armA9OneWorker(), kPaperMixInsts);
    CpuResult i5 = evaluateCpu(corei5OneWorker(), kPaperMixInsts);
    ScalingResult arm_scale =
        scaleToMatch("ARM A9", titan_b, arm.throughput, 1.0, 232.0);
    ScalingResult i5_scale =
        scaleToMatch("Core i5", titan_b, i5.throughput, 10.0, 232.0);
    EXPECT_NEAR(arm_scale.coresNeeded, 192, 20);
    EXPECT_NEAR(i5_scale.coresNeeded, 21, 3);
    EXPECT_GT(arm_scale.headroomWatts, 0.0);
    EXPECT_LT(arm_scale.headroomPercent, 30.0);
}

TEST(Measure, WorkloadMeasurementTracksTable2)
{
    WorkloadMeasurement wm = measureWorkload(40, 500, 9);
    for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
        const auto &info = specweb::typeTable()[i];
        const auto &tm = wm.perType[i];
        EXPECT_EQ(tm.type, info.type);
        EXPECT_NEAR(tm.instructionsPerRequest / info.paperInstructions,
                    1.0, 0.3)
            << info.name;
        EXPECT_NEAR(tm.responseBytes / (info.specwebResponseKb * 1024),
                    1.0, 0.25)
            << info.name;
        EXPECT_DOUBLE_EQ(tm.validationRate, 1.0) << info.name;
    }
    EXPECT_NEAR(wm.mixWeightedInstructions / kPaperMixInsts, 1.0, 0.25);
}

TEST(Titan, VariantsDifferAsDescribed)
{
    TitanVariant a = titanA(), b = titanB(), c = titanC();
    EXPECT_TRUE(a.server.networkOverPcie);
    EXPECT_FALSE(a.server.backendOnDevice);
    EXPECT_FALSE(b.server.networkOverPcie);
    EXPECT_TRUE(b.server.backendOnDevice);
    EXPECT_FALSE(b.server.offloadResponseTranspose);
    EXPECT_TRUE(c.server.offloadResponseTranspose);
    EXPECT_EQ(a.device.hardwareQueues, 32); // HyperQ
    EXPECT_EQ(a.server.cohortSize, 4096u);
}

TEST(Titan, PcieBoundMatchesHandArithmetic)
{
    TitanVariant a = titanA();
    // account summary: 32 KiB response buffer dominates D2H, 1 backend
    // trip: D2H = 1 KiB + 32 KiB.
    const double expected =
        a.device.pcieBandwidthGBs * 1e9 / ((1 + 32) * 1024.0);
    EXPECT_NEAR(pcieThroughputBound(a, specweb::RequestType::AccountSummary),
                expected, 1.0);
    // Titan B has no PCIe path.
    EXPECT_TRUE(std::isinf(
        pcieThroughputBound(titanB(), specweb::RequestType::Login)));
}

TEST(Titan, IsolatedRunCompletesAndIsPcieBound)
{
    // Small-scale Titan A run: throughput must be below (and near) the
    // analytic PCIe bound — Figure 9's claim.
    TitanVariant a = titanA();
    a.server.cohortSize = 512;
    a.server.cohortContexts = 6;
    a.server.laneSample = 64;
    IsolatedRunOptions opts;
    opts.cohorts = 6;
    opts.users = 500;
    TypeRunResult r =
        runIsolatedType(a, specweb::RequestType::AccountSummary, opts);
    EXPECT_EQ(r.requests, 6u * 512);
    EXPECT_GT(r.throughput, 0.0);
    const double bound =
        pcieThroughputBound(a, specweb::RequestType::AccountSummary);
    EXPECT_LE(r.throughput, bound * 1.001);
    EXPECT_GT(r.throughput, bound * 0.5);
    EXPECT_GT(r.copyUtilization, 0.5); // the link is the bottleneck
    EXPECT_GT(r.dynamicWatts, 0.0);
}

TEST(Titan, PowerChargesHostBackendClampedAtOne)
{
    // The host backend (Titan A) draws power in proportion to its
    // utilization, clamped at 1 like the device and PCIe terms.
    const TitanPowerModel pm;
    RunUtilization u;
    u.device = 0.5;
    u.memory = 0.25;
    u.copy = 0.75;
    const double without = pm.dynamicWatts(u);
    u.hostBackend = 0.5;
    EXPECT_NEAR(pm.dynamicWatts(u) - without, 0.5 * pm.hostBackendWatts,
                1e-9);
    u.hostBackend = 1.0;
    const double saturated = pm.dynamicWatts(u);
    EXPECT_NEAR(saturated - without, pm.hostBackendWatts, 1e-9);
    u.hostBackend = 3.0;
    EXPECT_EQ(pm.dynamicWatts(u), saturated);

    // An isolated Titan A run reports the host backend it used and is
    // charged for it.
    TitanVariant a = titanA();
    a.server.cohortSize = 512;
    a.server.laneSample = 64;
    IsolatedRunOptions opts;
    opts.cohorts = 4;
    opts.users = 500;
    const TypeRunResult r =
        runIsolatedType(a, specweb::RequestType::BillPay, opts);
    EXPECT_GT(r.hostBackendUtilization, 0.0);
    RunUtilization ru;
    ru.device = r.deviceUtilization;
    ru.memory = r.memoryUtilization;
    ru.copy = r.copyUtilization;
    ru.hostBackend = r.hostBackendUtilization;
    EXPECT_EQ(r.dynamicWatts, a.power.dynamicWatts(ru));
    ru.hostBackend = 0.0;
    EXPECT_GT(r.dynamicWatts, a.power.dynamicWatts(ru));
}

TEST(Titan, TitanBOutperformsTitanA)
{
    IsolatedRunOptions opts;
    opts.cohorts = 6;
    opts.users = 500;
    TitanVariant a = titanA(), b = titanB();
    a.server.cohortSize = b.server.cohortSize = 512;
    a.server.cohortContexts = b.server.cohortContexts = 6;
    a.server.laneSample = b.server.laneSample = 64;
    TypeRunResult ra =
        runIsolatedType(a, specweb::RequestType::BillPay, opts);
    TypeRunResult rb =
        runIsolatedType(b, specweb::RequestType::BillPay, opts);
    EXPECT_GT(rb.throughput, ra.throughput * 1.5);
    EXPECT_GT(rb.reqsPerJouleDynamic, ra.reqsPerJouleDynamic);
}

TEST(Titan, TitanCOutperformsTitanB)
{
    IsolatedRunOptions opts;
    opts.cohorts = 6;
    opts.users = 500;
    TitanVariant b = titanB(), c = titanC();
    b.server.cohortSize = c.server.cohortSize = 512;
    b.server.cohortContexts = c.server.cohortContexts = 6;
    b.server.laneSample = c.server.laneSample = 64;
    TypeRunResult rb =
        runIsolatedType(b, specweb::RequestType::AccountSummary, opts);
    TypeRunResult rc =
        runIsolatedType(c, specweb::RequestType::AccountSummary, opts);
    EXPECT_GT(rc.throughput, rb.throughput);
    EXPECT_GT(rc.reqsPerJouleDynamic, rb.reqsPerJouleDynamic);
}

// ---- Simulation against a hand-built run ------------------------------

constexpr uint64_t kSimUsers = 400;
constexpr uint64_t kSimCheckpointInterval = 64;

/** One banking run: the browsing mix over a 512-session pool. */
struct SimScenario
{
    simt::DeviceConfig device;
    core::RhythmConfig server;
    uint32_t profileCacheEntries = 0;
    fault::FaultConfig faults;
    bool recovery = false;
    /** Open loop when set, else a closed loop. */
    std::optional<net::ArrivalConfig> arrivals;
    uint64_t requests = 2048;
    uint64_t maxEvents = 0;
};

/** What both builds of a run must agree on. */
struct SimPrint
{
    des::Time clock = 0;
    uint64_t dispatched = 0;
    uint64_t orderHash = 0;
    uint64_t responseDigest = 0;
    /** Indexed by SimCount. */
    std::vector<uint64_t> counts;
};

/** The run's counts, in SimPrint::counts order. */
enum SimCount : size_t {
    kAccepted, kResponses, kErrors, kShed, kReaderDrops, kCohorts,
    kCohortTimeouts, kResponseBytes, kBackendRequests, kRetries, kHangs,
    kWatchdogFires, kHedgeWins, kLatencySamples, kFaults, kCrashes,
    kTornRecords, kCacheHits, kCacheMisses,
};

void
expectSameRun(const SimPrint &sim, const SimPrint &ref)
{
    EXPECT_EQ(sim.clock, ref.clock);
    EXPECT_EQ(sim.dispatched, ref.dispatched);
    EXPECT_EQ(sim.orderHash, ref.orderHash);
    EXPECT_EQ(sim.responseDigest, ref.responseDigest);
    EXPECT_EQ(sim.counts, ref.counts);
}

SimScenario
simScenario()
{
    SimScenario sc;
    sc.server.cohortSize = 256;
    sc.server.cohortContexts = 8;
    sc.server.laneSample = 32;
    return sc;
}

/** Order-insensitive sum of per-response hashes, like rhythm_sim's
 *  --digest-out. */
void
digestResponses(core::RhythmServer &server, uint64_t &digest)
{
    server.setResponseCallback([&digest](uint64_t client,
                                         std::string_view response,
                                         des::Time) {
        util::Fnv1a64 h;
        h.update(client);
        for (const char c : response)
            h.update(static_cast<unsigned char>(c));
        digest += h.digest();
    });
}

SimPrint
simPrint(const des::EventQueue &queue, const core::RhythmStats &st,
         uint64_t digest, const fault::FaultPlan *plan,
         const backend::RecoverableBackend *journal,
         const simt::ProfileCache *cache)
{
    return SimPrint{
        queue.now(), queue.dispatched(), queue.orderHash(), digest,
        {st.requestsAccepted, st.responsesCompleted, st.errorResponses,
         st.requestsShed, st.readerDrops, st.cohortsLaunched,
         st.cohortTimeouts, st.responseBytes, st.backendRequests,
         st.backendRetries, st.kernelHangs, st.watchdogFires, st.hedgeWins,
         st.latencyMs.count(), plan ? plan->totalInjected() : 0,
         journal ? journal->stats().crashes : 0,
         journal ? journal->stats().tornRecords : 0,
         cache ? cache->stats().hits : 0, cache ? cache->stats().misses : 0}};
}

/** The run built by hand, part by part, as harnesses did before
 *  Simulation: the reference. */
SimPrint
runByHand(const SimScenario &sc)
{
    backend::BankDb db(kSimUsers, 5);
    core::BankingService service(db);
    core::RhythmConfig cfg = sc.server;
    if (sc.profileCacheEntries > 0)
        cfg.traceTemplateCacheEntries = sc.profileCacheEntries;
    des::EventQueue queue;
    simt::ProfileCache cache(std::max<size_t>(sc.profileCacheEntries, 1));
    simt::Device device(queue, sc.device);
    if (sc.profileCacheEntries > 0)
        device.engine().setProfileCache(&cache);
    core::RhythmServer server(queue, device, service, cfg);
    uint64_t digest = 0;
    digestResponses(server, digest);
    specweb::WorkloadGenerator gen(db, 31);
    const auto sessions = server.sessions().populate(512, kSimUsers);
    std::optional<fault::FaultPlan> plan;
    if (!sc.faults.allQuiet())
        plan.emplace(sc.faults);
    const auto journal =
        core::armRun(server, device, queue, plan ? &*plan : nullptr,
                     sc.recovery, kSimCheckpointInterval);

    auto request = [&](uint64_t i) {
        return gen.fromPool(gen.sampleBrowsingType(), sessions, i).raw;
    };
    std::optional<net::ArrivalProcess> arrivals;
    uint64_t issued = 0;
    if (sc.arrivals) {
        arrivals.emplace(*sc.arrivals)
            .drive(queue, sc.requests, [&](uint64_t i) {
                server.injectRequest(request(i), i + 1);
            });
    } else {
        server.start([&]() -> std::optional<std::string> {
            if (issued >= sc.requests)
                return std::nullopt;
            return request(issued++);
        });
    }
    if (sc.maxEvents == 0)
        queue.run();
    while (queue.pending() && queue.dispatched() < sc.maxEvents)
        queue.step();
    return simPrint(queue, server.stats(), digest,
                    plan ? &*plan : nullptr, journal.get(), &cache);
}

/** The same run through Simulation. */
SimPrint
runThroughSimulation(const SimScenario &sc)
{
    backend::BankDb db(kSimUsers, 5);
    core::BankingService service(db);
    Simulation sim(sc.device, sc.server, service, sc.profileCacheEntries);
    uint64_t digest = 0;
    digestResponses(sim.server(), digest);
    specweb::WorkloadGenerator gen(db, 31);
    const auto sessions = sim.server().sessions().populate(512, kSimUsers);
    sim.arm(sc.faults, sc.recovery, kSimCheckpointInterval);

    const RequestSource request = [&](uint64_t i) {
        return gen.fromPool(gen.sampleBrowsingType(), sessions, i).raw;
    };
    if (sc.arrivals)
        sim.arrive(*sc.arrivals, sc.requests, request);
    else
        sim.pull(sc.requests, request);
    sim.run(sc.maxEvents);
    return simPrint(sim.queue(), sim.server().stats(), digest, sim.plan(),
                    sim.journal(), sim.profileCache());
}

TEST(Simulation, ClosedLoopWithProfileCacheMatchesHandBuiltRun)
{
    SimScenario sc = simScenario();
    sc.profileCacheEntries = 256;
    const SimPrint ref = runByHand(sc);
    EXPECT_EQ(ref.counts[kResponses] + ref.counts[kErrors], sc.requests);
    EXPECT_GT(ref.counts[kCacheMisses], 0u) << "no warp met the cache";
    expectSameRun(runThroughSimulation(sc), ref);
}

TEST(Simulation, OpenLoopFlashArrivalsMatchHandBuiltRun)
{
    SimScenario sc = simScenario();
    net::ArrivalConfig flash;
    flash.kind = net::ArrivalKind::Flash;
    flash.rate = 100e3;
    flash.flashStartSec = 0.002;
    flash.flashDurationSec = 0.004;
    flash.flashMultiplier = 20.0;
    sc.arrivals = flash;
    const SimPrint ref = runByHand(sc);
    EXPECT_GT(ref.counts[kResponses], 0u);
    expectSameRun(runThroughSimulation(sc), ref);
}

TEST(Simulation, CrashRecoveryWithWatchdogAndHangsMatchesHandBuiltRun)
{
    SimScenario sc = simScenario();
    sc.server.watchdogTimeout = 5 * des::kMillisecond;
    sc.server.backendRetryBudget = 4;
    sc.faults.seed = 3;
    sc.faults.at(fault::Site::BackendCrash).probability = 0.05;
    sc.faults.at(fault::Site::JournalTorn).probability = 0.5;
    sc.faults.at(fault::Site::KernelHang).probability = 0.2;
    sc.faults.at(fault::Site::KernelHang).meanDelay = 40 * des::kMillisecond;
    sc.recovery = true;
    const SimPrint ref = runByHand(sc);
    EXPECT_GT(ref.counts[kHangs], 0u) << "no kernel hang fired";
    EXPECT_GT(ref.counts[kWatchdogFires], 0u) << "no watchdog fired";
    EXPECT_GT(ref.counts[kCrashes], 0u) << "no backend crash";
    expectSameRun(runThroughSimulation(sc), ref);
}

TEST(Simulation, EventCappedRunMatchesHandBuiltRun)
{
    SimScenario sc = simScenario();
    sc.maxEvents = 150;
    const SimPrint ref = runByHand(sc);
    EXPECT_EQ(ref.dispatched, sc.maxEvents) << "the cap must bind";
    EXPECT_LT(ref.counts[kResponses], sc.requests);
    expectSameRun(runThroughSimulation(sc), ref);
}

} // namespace

namespace analysis_tests {

using rhythm::analysis::captureRequestTraces;
using rhythm::analysis::measureSimilarity;

TEST(Similarity, IdenticalTracesAreIdealSpeedup)
{
    simt::ThreadTrace t;
    simt::RecordingTracer rec(t);
    for (uint32_t b = 0; b < 20; ++b)
        rec.block(b, 5);
    std::vector<const simt::ThreadTrace *> lanes(6, &t);
    auto r = measureSimilarity(lanes);
    EXPECT_EQ(r.mergedBlocks, 20u);
    EXPECT_EQ(r.sumBlocks, 120u);
    EXPECT_DOUBLE_EQ(r.normalizedSpeedup, 1.0);
}

TEST(Similarity, DisjointTracesHaveNoSpeedup)
{
    std::vector<simt::ThreadTrace> traces(4);
    for (uint32_t i = 0; i < 4; ++i) {
        simt::RecordingTracer rec(traces[i]);
        for (uint32_t b = 0; b < 10; ++b)
            rec.block(1000 * (i + 1) + b, 5);
    }
    std::vector<const simt::ThreadTrace *> lanes;
    for (auto &t : traces)
        lanes.push_back(&t);
    auto r = measureSimilarity(lanes);
    EXPECT_EQ(r.mergedBlocks, 40u);
    EXPECT_DOUBLE_EQ(r.speedup, 1.0);
    EXPECT_DOUBLE_EQ(r.normalizedSpeedup, 0.25);
}

TEST(Similarity, BankingRequestsAreNearIdeal)
{
    // Figure 2's headline: every request type merges near-linearly.
    for (specweb::RequestType type :
         {specweb::RequestType::Login, specweb::RequestType::Logout,
          specweb::RequestType::AccountSummary}) {
        auto traces = captureRequestTraces(type, 5, 300, 17);
        std::vector<const simt::ThreadTrace *> lanes;
        for (auto &t : traces)
            lanes.push_back(&t);
        auto r = measureSimilarity(lanes);
        EXPECT_GT(r.normalizedSpeedup, 0.85)
            << specweb::typeInfo(type).name;
        EXPECT_LE(r.normalizedSpeedup, 1.0 + 1e-9);
    }
}

TEST(Similarity, EmptyInputIsSafe)
{
    auto r = measureSimilarity({});
    EXPECT_EQ(r.traceCount, 0u);
    EXPECT_EQ(r.speedup, 0.0);
}

using rhythm::analysis::measureSimilarityFast;

/// Asserts the fast path is bit-equal to the offline merge — exact
/// double comparison on purpose, since the scheduler fields the metric
/// consumes are produced by the identical code path.
void
expectFastPathBitEqual(const std::vector<const simt::ThreadTrace *> &lanes)
{
    const auto off = measureSimilarity(lanes);
    const auto fast = measureSimilarityFast(lanes);
    EXPECT_EQ(fast.traceCount, off.traceCount);
    EXPECT_EQ(fast.sumBlocks, off.sumBlocks);
    EXPECT_EQ(fast.mergedBlocks, off.mergedBlocks);
    EXPECT_EQ(fast.speedup, off.speedup);
    EXPECT_EQ(fast.normalizedSpeedup, off.normalizedSpeedup);
}

TEST(Similarity, FastPathBitEqualToOfflineOnSyntheticTraces)
{
    // Partially overlapping traces so the merge is non-trivial.
    std::vector<simt::ThreadTrace> traces(8);
    for (uint32_t i = 0; i < 8; ++i) {
        simt::RecordingTracer rec(traces[i]);
        rec.block(1, 10);
        rec.block(i % 3 == 0 ? 2u : 3u, 20);
        for (uint32_t b = 0; b < i; ++b)
            rec.block(500 + i * 16 + b, 1);
        rec.block(4, 10);
    }
    std::vector<const simt::ThreadTrace *> lanes;
    for (auto &t : traces)
        lanes.push_back(&t);
    expectFastPathBitEqual(lanes);
    expectFastPathBitEqual({});
}

TEST(Similarity, FastPathBitEqualToOfflineOnCapturedRequests)
{
    // The contract the online fingerprint relies on, over real served
    // request traces (which include memory ops the fast path skips).
    for (specweb::RequestType type :
         {specweb::RequestType::AccountSummary,
          specweb::RequestType::BillPay}) {
        auto traces = captureRequestTraces(type, 6, 300, 17);
        std::vector<const simt::ThreadTrace *> lanes;
        for (auto &t : traces)
            lanes.push_back(&t);
        expectFastPathBitEqual(lanes);
    }
}

using rhythm::analysis::FingerprintConfig;
using rhythm::analysis::FingerprintTracker;

/// @p n lanes all executing the same @p blocks-long body at @p base.
std::vector<simt::ThreadTrace>
uniformTraces(size_t n, uint32_t base, uint32_t blocks = 10)
{
    std::vector<simt::ThreadTrace> traces(n);
    for (auto &t : traces) {
        simt::RecordingTracer rec(t);
        for (uint32_t b = 0; b < blocks; ++b)
            rec.block(base + b, 5);
    }
    return traces;
}

std::vector<const simt::ThreadTrace *>
lanePtrs(const std::vector<simt::ThreadTrace> &traces)
{
    std::vector<const simt::ThreadTrace *> p;
    for (const auto &t : traces)
        p.push_back(&t);
    return p;
}

TEST(Fingerprint, OptimisticBootstrap)
{
    FingerprintTracker fp(4);
    for (uint32_t t = 0; t < 4; ++t)
        EXPECT_DOUBLE_EQ(fp.typeSimilarity(t), 1.0);
    EXPECT_DOUBLE_EQ(fp.pairSimilarity(0, 1), 1.0);
    EXPECT_EQ(fp.observations(), 0u);
    EXPECT_EQ(fp.memoHits(), 0u);
}

TEST(Fingerprint, SelfEwmaTracksLaunchSimilarity)
{
    FingerprintConfig cfg;
    cfg.alpha = 0.25;
    FingerprintTracker fp(2, cfg);

    auto coherent = uniformTraces(4, 1);
    fp.observeLaunch(0, lanePtrs(coherent));
    EXPECT_DOUBLE_EQ(fp.typeSimilarity(0), 1.0); // first sample seeds

    // Four fully disjoint lanes merge at 1/4 of ideal.
    std::vector<simt::ThreadTrace> disjoint(4);
    for (uint32_t i = 0; i < 4; ++i) {
        simt::RecordingTracer rec(disjoint[i]);
        for (uint32_t b = 0; b < 10; ++b)
            rec.block(1000 * (i + 1) + b, 5);
    }
    fp.observeLaunch(0, lanePtrs(disjoint));
    EXPECT_DOUBLE_EQ(fp.typeSimilarity(0), 0.75 * 1.0 + 0.25 * 0.25);
    EXPECT_DOUBLE_EQ(fp.typeSimilarity(1), 1.0); // untouched
    EXPECT_EQ(fp.observations(), 2u);
}

TEST(Fingerprint, PairFallsBackToWorseSelfUntilMeasured)
{
    FingerprintTracker fp(3);
    auto coherent = uniformTraces(4, 1);
    std::vector<simt::ThreadTrace> disjoint(4);
    for (uint32_t i = 0; i < 4; ++i) {
        simt::RecordingTracer rec(disjoint[i]);
        for (uint32_t b = 0; b < 10; ++b)
            rec.block(1000 * (i + 1) + b, 5);
    }
    fp.observeLaunch(0, lanePtrs(coherent)); // self = 1.0
    fp.observeLaunch(1, lanePtrs(disjoint)); // self = 0.25
    EXPECT_DOUBLE_EQ(fp.pairSimilarity(0, 1), 0.25);
    EXPECT_DOUBLE_EQ(fp.pairSimilarity(1, 0), 0.25);
    // A pair with an unobserved type stays optimistic.
    EXPECT_DOUBLE_EQ(fp.pairSimilarity(0, 2), 1.0);
}

TEST(Fingerprint, MeasuredPairOverridesFallback)
{
    // Two types, each internally coherent (self = 1.0) but mutually
    // disjoint: the measured cross merge runs both bodies serially, so
    // the pair value is 0.5 — below the min-of-selves fallback of 1.0.
    FingerprintTracker fp(2);
    auto type_a = uniformTraces(4, 1);
    auto type_b = uniformTraces(4, 5000);
    fp.observeLaunch(0, lanePtrs(type_a));
    fp.observeLaunch(1, lanePtrs(type_b));
    EXPECT_DOUBLE_EQ(fp.pairSimilarity(0, 1), 1.0);

    fp.observePair(0, lanePtrs(type_a), 1, lanePtrs(type_b));
    EXPECT_DOUBLE_EQ(fp.pairSimilarity(0, 1), 0.5);
    EXPECT_DOUBLE_EQ(fp.pairSimilarity(1, 0), 0.5); // symmetric
    // Self similarities are not polluted by the pair observation.
    EXPECT_DOUBLE_EQ(fp.typeSimilarity(0), 1.0);
    EXPECT_DOUBLE_EQ(fp.typeSimilarity(1), 1.0);
}

TEST(Fingerprint, MemoizesRepeatedBlockContent)
{
    FingerprintTracker fp(1);
    auto traces = uniformTraces(8, 1);
    auto p = lanePtrs(traces);
    fp.observeLaunch(0, p);
    EXPECT_EQ(fp.memoHits(), 0u);
    const double first = fp.typeSimilarity(0);
    fp.observeLaunch(0, p);
    EXPECT_EQ(fp.memoHits(), 1u);
    EXPECT_EQ(fp.observations(), 2u);
    EXPECT_DOUBLE_EQ(fp.typeSimilarity(0), first); // same sample value
}

TEST(Fingerprint, DeterministicAcrossInstances)
{
    // Same launch sequence → bit-identical state, the property the
    // fusion byte-equality contract needs at any --sim-threads.
    auto type_a = uniformTraces(6, 1);
    auto type_b = uniformTraces(6, 9000);
    auto feed = [&](FingerprintTracker &fp) {
        fp.observeLaunch(0, lanePtrs(type_a));
        fp.observeLaunch(1, lanePtrs(type_b));
        fp.observePair(0, lanePtrs(type_a), 1, lanePtrs(type_b));
        fp.observeLaunch(0, lanePtrs(type_a));
    };
    FingerprintTracker fa(2), fb(2);
    feed(fa);
    feed(fb);
    EXPECT_EQ(fa.typeSimilarity(0), fb.typeSimilarity(0));
    EXPECT_EQ(fa.typeSimilarity(1), fb.typeSimilarity(1));
    EXPECT_EQ(fa.pairSimilarity(0, 1), fb.pairSimilarity(0, 1));
    EXPECT_EQ(fa.observations(), fb.observations());
    EXPECT_EQ(fa.memoHits(), fb.memoHits());
}

} // namespace analysis_tests
} // namespace rhythm::platform
