/**
 * @file
 * Tests for the observability layer: the tracer's spans and instants,
 * the Chrome trace_event JSON export, the bench JSON reporter, and the
 * guarantee that the instrumentation is inert — no events — until
 * explicitly enabled (what keeps default figure outputs byte-identical
 * to the seed).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "bench/common.hh"
#include "des/event_queue.hh"
#include "obs/json.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"

namespace rhythm::obs {
namespace {

// ---- Tracer ----------------------------------------------------------

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
    t.complete(1, "has \"quotes\" and \\slashes\\", "test", 1'000'000,
               2'000'000);
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
    OBS_TRACK_NAME(1, "guard");
    OBS_INSTANT(1, "guard", "test");
    OBS_SPAN_COMPLETE(1, "guard", "test", 0, 1);

    EXPECT_TRUE(o.tracer().events().empty());
    std::ostringstream out;
    o.tracer().writeChromeTrace(out);
    EXPECT_EQ(out.str().find("guard"), std::string::npos);
}

TEST(ObservabilityTest, EnableBindsClockAndRecords)
{
    des::EventQueue queue;
    Observability &o = global();
    o.reset();
    o.enable(queue);

    OBS_SPAN_COMPLETE(1, "span", "test", 0, 100,
                      {"k", uint64_t{1}});
    OBS_INSTANT(1, "mark", "test");
    ASSERT_EQ(o.tracer().events().size(), 2u);
    EXPECT_EQ(o.now(), queue.now());

    o.disable();
    o.reset();
    OBS_INSTANT(1, "off", "test");
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
