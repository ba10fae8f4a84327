/**
 * @file
 * Tests for the observability layer: fixed-bucket histogram percentile
 * estimation, the metrics registry, span nesting in the tracer, the
 * Chrome trace_event JSON export, and the guarantee that everything is
 * inert — no metrics, no events — until explicitly enabled (what keeps
 * default figure outputs byte-identical to the seed).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "bench/common.hh"
#include "des/event_queue.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"

namespace rhythm::obs {
namespace {

// ---- FixedHistogram --------------------------------------------------

TEST(FixedHistogramTest, EmptyReturnsZero)
{
    FixedHistogram h({1.0, 2.0, 4.0});
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(50.0), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
}

TEST(FixedHistogramTest, PercentilesWithFineBuckets)
{
    // Unit-width buckets over [0, 100]: interpolation error < 1.
    std::vector<double> bounds;
    for (int i = 1; i <= 100; ++i)
        bounds.push_back(i);
    FixedHistogram h(bounds);
    for (int v = 1; v <= 100; ++v)
        h.add(v);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_NEAR(h.percentile(50.0), 50.0, 1.0);
    EXPECT_NEAR(h.percentile(95.0), 95.0, 1.0);
    EXPECT_NEAR(h.percentile(99.0), 99.0, 1.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_NEAR(h.mean(), 50.5, 1e-9);
}

TEST(FixedHistogramTest, PercentileClampedToObservedRange)
{
    FixedHistogram h({10.0, 100.0, 1000.0});
    h.add(42.0);
    h.add(43.0);
    // Every percentile of two nearby samples stays inside [min, max]
    // even though the owning bucket spans [10, 100].
    EXPECT_GE(h.percentile(1.0), 42.0);
    EXPECT_LE(h.percentile(99.0), 43.0);
}

TEST(FixedHistogramTest, OverflowBucketCatchesLargeSamples)
{
    FixedHistogram h({1.0, 2.0});
    h.add(1000.0);
    ASSERT_EQ(h.bucketCounts().size(), 3u);
    EXPECT_EQ(h.bucketCounts()[2], 1u);
    // The overflow bucket has no upper bound; the estimate clamps to
    // the observed max.
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 1000.0);
}

TEST(FixedHistogramTest, ExponentialBoundsAndReset)
{
    const auto bounds = FixedHistogram::exponentialBounds(1.0, 2.0, 4);
    ASSERT_EQ(bounds.size(), 4u);
    EXPECT_DOUBLE_EQ(bounds[0], 1.0);
    EXPECT_DOUBLE_EQ(bounds[3], 8.0);

    FixedHistogram h(bounds);
    h.add(3.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(50.0), 0.0);
}

// ---- MetricsRegistry -------------------------------------------------

TEST(MetricsRegistryTest, HandlesAreStableAndResettable)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("reqs");
    c.add(3);
    EXPECT_EQ(reg.counter("reqs").value(), 3u);
    EXPECT_EQ(&reg.counter("reqs"), &c);

    reg.gauge("depth").set(7.5);
    reg.histogram("lat").add(1.0);
    EXPECT_TRUE(reg.has("reqs"));
    EXPECT_TRUE(reg.has("depth"));
    EXPECT_FALSE(reg.has("nope"));

    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(reg.gauge("depth").value(), 0.0);
    EXPECT_EQ(reg.histogram("lat").count(), 0u);
    EXPECT_TRUE(reg.has("reqs")); // registrations survive reset
}

TEST(MetricsRegistryTest, FlattenUsesDottedHistogramKeys)
{
    MetricsRegistry reg;
    reg.counter("a").add(2);
    reg.gauge("b").set(4.0);
    reg.histogram("lat").add(10.0);

    std::map<std::string, double> flat;
    for (auto &[k, v] : reg.flatten())
        flat[k] = v;
    EXPECT_EQ(flat.at("a"), 2.0);
    EXPECT_EQ(flat.at("b"), 4.0);
    EXPECT_EQ(flat.at("lat.count"), 1.0);
    EXPECT_EQ(flat.at("lat.p99"), 10.0);
    EXPECT_EQ(flat.at("lat.max"), 10.0);
}

// ---- Tracer ----------------------------------------------------------

TEST(TracerTest, NestedSpansPairLifo)
{
    Tracer t;
    t.begin(1, "outer", "test", 100);
    t.begin(1, "inner", "test", 200);
    EXPECT_EQ(t.openSpans(1), 2u);
    t.end(1, 300); // closes "inner"
    t.end(1, 400); // closes "outer"
    EXPECT_EQ(t.openSpans(1), 0u);

    ASSERT_EQ(t.events().size(), 4u);
    EXPECT_EQ(t.events()[0].phase, TraceEvent::Phase::Begin);
    EXPECT_EQ(t.events()[0].name, "outer");
    EXPECT_EQ(t.events()[2].phase, TraceEvent::Phase::End);
    EXPECT_EQ(t.events()[3].phase, TraceEvent::Phase::End);
}

TEST(TracerTest, UnbalancedEndIsDropped)
{
    Tracer t;
    t.end(1, 100); // no open span: must not record an orphan "E"
    EXPECT_TRUE(t.events().empty());
}

TEST(TracerTest, CompleteAndInstantRecordArgs)
{
    Tracer t;
    t.complete(2, "kernel", "gpu", 100, 500,
               {{"warps", uint64_t{32}}, {"eff", 0.75}});
    t.instant(2, "fault", "err", 300, {{"site", std::string("pcie")}});
    ASSERT_EQ(t.events().size(), 2u);
    EXPECT_EQ(t.events()[0].dur, des::Time{400});
    ASSERT_EQ(t.events()[0].args.size(), 2u);
    EXPECT_TRUE(t.events()[1].args[0].isString);
}

/**
 * Minimal structural well-formedness scan: balanced braces/brackets
 * outside strings and no raw control characters inside strings — the
 * failure modes of hand-rolled JSON emitters.
 */
void
expectWellFormedJson(const std::string &s)
{
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : s) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            else
                EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
                    << "raw control character inside a JSON string";
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(s.find(",]"), std::string::npos) << "trailing comma";
    EXPECT_EQ(s.find(",}"), std::string::npos) << "trailing comma";
}

TEST(TracerTest, ChromeTraceExportIsWellFormed)
{
    Tracer t;
    t.setTrackName(1, "reader");
    // Names that need escaping must survive the export.
    t.begin(1, "has \"quotes\" and \\slashes\\", "test", 1'000'000);
    t.end(1, 2'000'000);
    t.complete(1, "line\nbreak", "test", 500'000, 800'000,
               {{"note", std::string("tab\there")}});
    t.instant(1, "mark", "test", 1'500'000);

    std::ostringstream out;
    t.writeChromeTrace(out);
    const std::string s = out.str();
    expectWellFormedJson(s);

    // The export wraps events in {"traceEvents": [...]} and emits a
    // thread_name metadata record for the named track.
    EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(s.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(s.find("\"reader\""), std::string::npos);
    EXPECT_NE(s.find("\\\"quotes\\\""), std::string::npos);
    EXPECT_NE(s.find("line\\nbreak"), std::string::npos);
    EXPECT_NE(s.find("tab\\there"), std::string::npos);
}

TEST(TracerTest, ExportSortsByTimestamp)
{
    Tracer t;
    t.complete(1, "late", "test", 3'000'000, 4'000'000);
    t.complete(1, "early", "test", 1'000'000, 2'000'000);
    std::ostringstream out;
    t.writeChromeTrace(out);
    const std::string s = out.str();
    EXPECT_LT(s.find("\"early\""), s.find("\"late\""));
}

// ---- Disabled-by-default guard ---------------------------------------

TEST(ObservabilityTest, MacrosAreInertWhenDisabled)
{
    Observability &o = global();
    ASSERT_FALSE(o.enabled()) << "observability must default to off";
    o.reset();

    // With obs off, the macros must record nothing: this is what keeps
    // the default driver/bench outputs byte-identical to the seed.
    OBS_COUNTER_ADD("guard.counter", 1);
    OBS_GAUGE_SET("guard.gauge", 1.0);
    OBS_HIST_ADD("guard.hist", 1.0);
    OBS_SPAN_BEGIN(1, "guard", "test");
    OBS_SPAN_END(1);
    OBS_INSTANT(1, "guard", "test");
    OBS_SPAN_COMPLETE(1, "guard", "test", 0, 1);

    EXPECT_FALSE(o.metrics().has("guard.counter"));
    EXPECT_FALSE(o.metrics().has("guard.gauge"));
    EXPECT_FALSE(o.metrics().has("guard.hist"));
    EXPECT_TRUE(o.tracer().events().empty());
}

TEST(ObservabilityTest, EnableBindsClockAndRecords)
{
    des::EventQueue queue;
    Observability &o = global();
    o.reset();
    o.enable(queue);

    OBS_COUNTER_ADD("on.counter", 2);
    OBS_SPAN_COMPLETE(1, "span", "test", 0, 100,
                      {"k", uint64_t{1}});
    EXPECT_EQ(o.metrics().counter("on.counter").value(), 2u);
    ASSERT_EQ(o.tracer().events().size(), 1u);
    EXPECT_EQ(o.now(), queue.now());

    o.disable();
    o.reset();
    OBS_COUNTER_ADD("off.counter", 1);
    EXPECT_FALSE(o.metrics().has("off.counter"));
    EXPECT_TRUE(o.tracer().events().empty());
}

// ---- bench::Reporter -------------------------------------------------

TEST(ReporterTest, SlugNormalizesDisplayNames)
{
    EXPECT_EQ(bench::slug("Titan C (paper best)"), "titan_c_paper_best");
    EXPECT_EQ(bench::slug("Core i5 4 workers"), "core_i5_4_workers");
    EXPECT_EQ(bench::slug("+HBM (2x bandwidth)"), "hbm_2x_bandwidth");
}

TEST(ReporterTest, DisabledWithoutFlagAndWritesSchema)
{
    const auto flags = [](std::vector<const char *> argv) {
        Flags f;
        EXPECT_TRUE(f.parse(static_cast<int>(argv.size()), argv.data()));
        EXPECT_TRUE(f.check(std::span(&bench::kCommonFlags, 1)));
        return f;
    };
    {
        bench::Reporter off("demo", flags({"bench"}));
        EXPECT_FALSE(off.enabled());
        EXPECT_TRUE(off.write()); // no-op success
    }

    const std::string path =
        testing::TempDir() + "/obs_test_reporter.json";
    const std::string flag = "--json=" + path;
    bench::Reporter rep("demo", flags({"bench", flag.c_str()}));
    EXPECT_TRUE(rep.enabled());
    rep.config("cohorts", 8.0);
    rep.config("workload", std::string("banking"));
    rep.metric("x.throughput", 123.5);
    ASSERT_TRUE(rep.write());

    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string s = buf.str();
    expectWellFormedJson(s);
    EXPECT_NE(s.find("\"bench\": \"demo\""), std::string::npos);
    EXPECT_NE(s.find("\"workload\": \"banking\""), std::string::npos);
    EXPECT_NE(s.find("\"x.throughput\": 123.5"), std::string::npos);
}

} // namespace
} // namespace rhythm::obs
