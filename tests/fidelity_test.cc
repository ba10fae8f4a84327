/**
 * @file
 * Headline-fidelity regression tests: the paper's central quantitative
 * claims, asserted end-to-end at reduced scale so the suite stays fast.
 * If a model or calibration change breaks the Table 3 shape, these
 * tests fail before the bench harness would reveal it.
 */

#include <gtest/gtest.h>

#include "platform/cpu.hh"
#include "platform/measure.hh"
#include "platform/titan.hh"

namespace rhythm::platform {
namespace {

/** Shared measurement and runs (computed once; the suite reuses them). */
class FidelityData
{
  public:
    static FidelityData &
    instance()
    {
        static FidelityData data;
        return data;
    }

    WorkloadMeasurement workload;
    CpuResult i7_8w;
    CpuResult a9_2w;
    TypeRunResult titanA;
    TypeRunResult titanB;
    TypeRunResult titanC;

  private:
    FidelityData()
    {
        workload = measureWorkload(40, 1000, 7);
        auto cpus = standardCpuPlatforms();
        i7_8w = evaluateCpu(cpus[3], workload.mixWeightedInstructions);
        a9_2w = evaluateCpu(cpus[5], workload.mixWeightedInstructions);

        IsolatedRunOptions opts;
        opts.cohorts = 8;
        opts.users = 1000;
        // One representative heavy type keeps the run short; the full
        // mix is exercised by bench/table3_platforms.
        const auto run = [&opts](TitanVariant variant) {
            variant.server.laneSample = 128;
            return runIsolatedType(
                variant, specweb::RequestType::AccountSummary, opts);
        };
        titanA = run(platform::titanA());
        titanB = run(platform::titanB());
        titanC = run(platform::titanC());
    }
};

TEST(Fidelity, CpuOrderingAndBands)
{
    const FidelityData &d = FidelityData::instance();
    // i7 throughput >> A9; A9 efficiency > i7 (the paper's CPU trade).
    EXPECT_GT(d.i7_8w.throughput, d.a9_2w.throughput * 10);
    EXPECT_GT(d.a9_2w.reqsPerJouleDynamic, d.i7_8w.reqsPerJouleDynamic);
    // Latency bands: sub-millisecond CPUs.
    EXPECT_LT(d.i7_8w.latencyMs, 1.0);
    EXPECT_LT(d.a9_2w.latencyMs, 1.0);
}

TEST(Fidelity, TitanAIsPcieBoundAndMarginal)
{
    const FidelityData &d = FidelityData::instance();
    const double bound = pcieThroughputBound(
        platform::titanA(), specweb::RequestType::AccountSummary);
    // Figure 9's claim: achieved within 80-100% of the PCIe bound.
    EXPECT_LE(d.titanA.throughput, bound * 1.001);
    EXPECT_GE(d.titanA.throughput, bound * 0.80);
    // Far below Titan B, at worse efficiency.
    EXPECT_LT(d.titanA.throughput, d.titanB.throughput / 2.0);
    EXPECT_LT(d.titanA.reqsPerJouleDynamic,
              d.titanB.reqsPerJouleDynamic);
}

TEST(Fidelity, TitanBClaims)
{
    const FidelityData &d = FidelityData::instance();
    // ~4x the i7 on the paper's average; this single heavy type lands
    // in a 2-6x band.
    const double ratio = d.titanB.throughput / d.i7_8w.throughput;
    EXPECT_GT(ratio, 2.0);
    EXPECT_LT(ratio, 6.0);
    // Dynamic efficiency comparable to the A9 (paper: 91%).
    const double eff =
        d.titanB.reqsPerJouleDynamic / d.a9_2w.reqsPerJouleDynamic;
    EXPECT_GT(eff, 0.4);
    EXPECT_LT(eff, 1.6);
    // Latency in the tens of milliseconds.
    EXPECT_GT(d.titanB.avgLatencyMs, 1.0);
    EXPECT_LT(d.titanB.avgLatencyMs, 100.0);
}

TEST(Fidelity, TitanCClaims)
{
    const FidelityData &d = FidelityData::instance();
    // The transpose offload buys a substantial throughput multiple
    // (paper: ~2x over Titan B on the workload mean).
    const double over_b = d.titanC.throughput / d.titanB.throughput;
    EXPECT_GT(over_b, 1.3);
    EXPECT_LT(over_b, 3.0);
    // Better efficiency than the A9 (paper: >2.5x dynamic).
    EXPECT_GT(d.titanC.reqsPerJouleDynamic,
              d.a9_2w.reqsPerJouleDynamic);
    // Lower latency than Titan B at higher throughput.
    EXPECT_LT(d.titanC.avgLatencyMs, d.titanB.avgLatencyMs);
}

TEST(Fidelity, WorkloadTracksTable2)
{
    const FidelityData &d = FidelityData::instance();
    // Mix-weighted instruction count within 25% of the paper-derived
    // value, every response validated.
    EXPECT_NEAR(d.workload.mixWeightedInstructions / 331507.0, 1.0,
                0.25);
    for (const auto &tm : d.workload.perType)
        EXPECT_DOUBLE_EQ(tm.validationRate, 1.0);
}

TEST(Fidelity, ScalingMatchesSection62Magnitude)
{
    const FidelityData &d = FidelityData::instance();
    const double arm_core =
        evaluateCpu(armA9OneWorker(), d.workload.mixWeightedInstructions)
            .throughput;
    // Order of magnitude of the paper's 192-core figure against the
    // paper's Titan B throughput target.
    ScalingResult s =
        scaleToMatch("ARM A9", 1.5e6, arm_core, 1.0, 230.0);
    EXPECT_GT(s.coresNeeded, 120);
    EXPECT_LT(s.coresNeeded, 260);
}

} // namespace
} // namespace rhythm::platform
