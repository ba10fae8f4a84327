/**
 * @file
 * Unit tests for src/util: rng, stats, strings, table, flags.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/flags.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace rhythm {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(3);
    bool lo_seen = false, hi_seen = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.nextRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        lo_seen |= v == -2;
        hi_seen |= v == 2;
    }
    EXPECT_TRUE(lo_seen);
    EXPECT_TRUE(hi_seen);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ExponentialMeanApproximates)
{
    Rng rng(13);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, BoolProbabilityEdges)
{
    Rng rng(17);
    EXPECT_FALSE(rng.nextBool(0.0));
    EXPECT_TRUE(rng.nextBool(1.0));
}

/** A mix-table row: MixSampler reads the share through a member. */
struct MixRow
{
    double share;
};

/**
 * The loop each workload generator ran before MixSampler: cumulative
 * shares over the total, the last pinned to 1.0, and the first row
 * whose cumulative share covers one nextDouble().
 */
size_t
referenceMixDraw(const std::vector<MixRow> &rows, Rng &rng)
{
    double total = 0.0;
    for (const MixRow &row : rows)
        total += row.share;
    std::vector<double> cumulative(rows.size());
    double acc = 0.0;
    for (size_t i = 0; i < rows.size(); ++i) {
        acc += rows[i].share / total;
        cumulative[i] = acc;
    }
    cumulative.back() = 1.0;
    const double u = rng.nextDouble();
    for (size_t i = 0; i < rows.size(); ++i) {
        if (u <= cumulative[i])
            return i;
    }
    return rows.size() - 1;
}

TEST(MixSampler, DrawsWhatTheGeneratorLoopsDrew)
{
    const std::vector<std::vector<MixRow>> tables = {
        // Table 2 (Banking), Chat, Search.
        {{28.17}, {19.77}, {1.47}, {18.18}, {2.92}, {1.60}, {11.06},
         {1.60}, {1.15}, {1.05}, {1.60}, {1.15}, {2.24}, {8.06}},
        {{5.0}, {25.0}, {15.0}, {55.0}},
        {{12.0}, {62.0}, {16.0}, {10.0}},
        // A zero share is never drawn; one row is always drawn.
        {{0.1}, {0.0}, {0.2}, {0.3}},
        {{7.0}},
    };
    for (const auto &rows : tables) {
        const MixSampler mix{std::span(rows), &MixRow::share};
        for (uint64_t seed = 1; seed <= 200; ++seed) {
            Rng drawn(seed);
            Rng reference(seed);
            for (int i = 0; i < 500; ++i)
                ASSERT_EQ(mix.draw(drawn), referenceMixDraw(rows, reference))
                    << "seed " << seed << " draw " << i;
            // One nextDouble() per draw, as before.
            EXPECT_EQ(drawn.state(), reference.state());
        }
    }
}

TEST(Summary, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 4.0, 1e-12);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
}

TEST(Summary, MergeMatchesCombined)
{
    Summary a, b, all;
    Rng rng(23);
    for (int i = 0; i < 500; ++i) {
        double v = rng.nextDouble() * 10;
        (i % 2 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Histogram, PercentilesOnKnownData)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.add(i);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
    EXPECT_NEAR(h.median(), 50.5, 1e-9);
    EXPECT_NEAR(h.percentile(99), 99.01, 1e-9);
}

TEST(Histogram, MeanAndClear)
{
    Histogram h;
    h.add(1);
    h.add(3);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(50), 0.0);
}

TEST(WeightedHarmonicMean, UniformWeightsMatchHarmonicMean)
{
    WeightedHarmonicMean whm;
    whm.add(1.0, 2.0);
    whm.add(1.0, 4.0);
    // Harmonic mean of {2, 4} = 2 / (1/2 + 1/4) = 8/3.
    EXPECT_NEAR(whm.value(), 8.0 / 3.0, 1e-12);
}

TEST(WeightedHarmonicMean, WeightsBias)
{
    WeightedHarmonicMean whm;
    whm.add(3.0, 2.0);
    whm.add(1.0, 4.0);
    EXPECT_NEAR(whm.value(), 4.0 / (3.0 / 2.0 + 1.0 / 4.0), 1e-12);
}

TEST(Strings, SplitKeepsEmptyParts)
{
    auto parts = split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim("\t\r\n"), "");
    EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, StartsWithAndIEquals)
{
    EXPECT_TRUE(startsWith("GET /login", "GET"));
    EXPECT_FALSE(startsWith("GE", "GET"));
    EXPECT_TRUE(iequals("Content-Length", "content-length"));
    EXPECT_FALSE(iequals("a", "ab"));
}

TEST(Strings, WithCommas)
{
    EXPECT_EQ(withCommas(0), "0");
    EXPECT_EQ(withCommas(999), "999");
    EXPECT_EQ(withCommas(1000), "1,000");
    EXPECT_EQ(withCommas(1234567), "1,234,567");
}

TEST(Strings, ParseU64)
{
    uint64_t v = 0;
    EXPECT_TRUE(parseU64("12345", v));
    EXPECT_EQ(v, 12345u);
    EXPECT_FALSE(parseU64("", v));
    EXPECT_FALSE(parseU64("12a", v));
    EXPECT_FALSE(parseU64("99999999999999999999999", v));
    EXPECT_TRUE(parseU64("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
}

TEST(Strings, HumanFormats)
{
    EXPECT_EQ(humanBytes(512), "512.0 B");
    EXPECT_EQ(humanBytes(26.4 * 1024), "26.4 KiB");
    EXPECT_EQ(humanCount(1530000), "1.53 M");
}

TEST(Table, AsciiAlignsColumns)
{
    TableWriter t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream os;
    t.printAscii(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| name   | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, CsvQuotesSpecials)
{
    TableWriter t({"a", "b"});
    t.addRow({"x,y", "q\"z"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"q\"\"z\"\n");
}

/** Parses @p argv (after a program name) into @p flags. */
bool
parseArgs(Flags &flags, std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "prog");
    return flags.parse(static_cast<int>(argv.size()), argv.data());
}

/** Checks @p flags against one table of @p specs. */
template <size_t N>
bool
checkAgainst(Flags &flags, const FlagSpec (&specs)[N])
{
    const FlagTable table{"test", specs};
    return flags.check(std::span(&table, 1));
}

TEST(Flags, ParsesAllForms)
{
    constexpr FlagSpec specs[] = {
        {"a", FlagKind::Count, "0", "a"},
        {"b", FlagKind::Text, "", "b"},
        {"switch", FlagKind::Switch, "off", "switch"},
        {"neg", FlagKind::Switch, "on", "neg"},
        {"d", FlagKind::Number, "0", "d"},
    };
    Flags flags;
    ASSERT_TRUE(parseArgs(
        flags, {"--a=1", "--b", "two", "--switch", "--no-neg", "--d=3.5"}));
    ASSERT_TRUE(checkAgainst(flags, specs));
    EXPECT_EQ(flags.count("a"), 1u);
    EXPECT_EQ(flags.text("b"), "two");
    EXPECT_TRUE(flags.on("switch"));
    EXPECT_FALSE(flags.on("neg"));
    EXPECT_DOUBLE_EQ(flags.number("d"), 3.5);

    // A stray argument is an error, not silently ignored.
    Flags stray;
    EXPECT_FALSE(parseArgs(stray, {"--a=1", "pos1"}));
    EXPECT_NE(stray.error().find("pos1"), std::string::npos);
}

TEST(Flags, FallbacksAndMalformedValues)
{
    constexpr FlagSpec specs[] = {
        {"n", FlagKind::Count, "7", "n"},
        {"f", FlagKind::Number, "2.5", "f"},
        {"b", FlagKind::Switch, "on", "b"},
        {"path", FlagKind::Text, "", "path"},
    };
    // Absent flags read their table default.
    Flags absent;
    ASSERT_TRUE(parseArgs(absent, {}));
    ASSERT_TRUE(checkAgainst(absent, specs));
    EXPECT_EQ(absent.count("n"), 7u);
    EXPECT_DOUBLE_EQ(absent.number("f"), 2.5);
    EXPECT_TRUE(absent.on("b"));
    EXPECT_EQ(absent.text("path"), "");
    EXPECT_FALSE(absent.has("n"));

    // A malformed value is an error, never read as the default.
    for (const char *bad : {"--n=abc", "--f=xyz", "--b=maybe", "--f=nan",
                            "--f=inf"}) {
        Flags flags;
        ASSERT_TRUE(parseArgs(flags, {bad}));
        EXPECT_FALSE(checkAgainst(flags, specs)) << bad;
        EXPECT_NE(flags.error().find(std::string_view(bad).substr(0, 3)),
                  std::string::npos)
            << flags.error();
    }
}

TEST(Flags, AllowOnlyDetectsUnknown)
{
    constexpr FlagSpec good[] = {{"good", FlagKind::Count, "0", "good"}};
    constexpr FlagSpec both[] = {{"good", FlagKind::Count, "0", "good"},
                                 {"bad", FlagKind::Count, "0", "bad"}};
    Flags flags;
    ASSERT_TRUE(parseArgs(flags, {"--good=1", "--bad=2"}));
    EXPECT_FALSE(checkAgainst(flags, good));
    EXPECT_NE(flags.error().find("bad"), std::string::npos);
    EXPECT_TRUE(checkAgainst(flags, both));
}

TEST(Flags, RequireNumbersRejectsUnparsableValues)
{
    Flags flags;
    ASSERT_TRUE(
        parseArgs(flags, {"--n=12", "--neg=-1", "--f=1e3", "--word=xyz"}));
    constexpr FlagSpec fine[] = {{"n", FlagKind::Count, "0", "n"},
                                 {"neg", FlagKind::Number, "0", "neg"},
                                 {"f", FlagKind::Number, "0", "f"},
                                 {"word", FlagKind::Text, "", "word"}};
    EXPECT_TRUE(checkAgainst(flags, fine));
    EXPECT_DOUBLE_EQ(flags.number("f"), 1000.0);
    constexpr FlagSpec negCount[] = {{"n", FlagKind::Count, "0", "n"},
                                     {"neg", FlagKind::Count, "0", "neg"},
                                     {"f", FlagKind::Number, "0", "f"},
                                     {"word", FlagKind::Text, "", "word"}};
    EXPECT_FALSE(checkAgainst(flags, negCount));
    EXPECT_NE(flags.error().find("--neg"), std::string::npos);
    constexpr FlagSpec wordNumber[] = {{"n", FlagKind::Count, "0", "n"},
                                       {"neg", FlagKind::Number, "0", "neg"},
                                       {"f", FlagKind::Number, "0", "f"},
                                       {"word", FlagKind::Number, "0", "w"}};
    EXPECT_FALSE(checkAgainst(flags, wordNumber));
    EXPECT_NE(flags.error().find("--word"), std::string::npos);
}

TEST(Flags, BareDoubleDashIsError)
{
    Flags flags;
    EXPECT_FALSE(parseArgs(flags, {"--"}));
    EXPECT_FALSE(flags.error().empty());
}

TEST(Flags, SwitchesTakeEverySpelling)
{
    constexpr FlagSpec specs[] = {{"x", FlagKind::Switch, "off", "x"}};
    for (const char *on : {"--x", "--x=on", "--x=true", "--x=1", "--x=yes"}) {
        Flags flags;
        ASSERT_TRUE(parseArgs(flags, {on}));
        ASSERT_TRUE(checkAgainst(flags, specs)) << on;
        EXPECT_TRUE(flags.on("x")) << on;
    }
    for (const char *off :
         {"--no-x", "--x=off", "--x=false", "--x=0", "--x=no"}) {
        Flags flags;
        ASSERT_TRUE(parseArgs(flags, {"--x", off}));
        ASSERT_TRUE(checkAgainst(flags, specs)) << off;
        EXPECT_FALSE(flags.on("x")) << off;
    }
}

TEST(Flags, RangesAndChoicesAreChecked)
{
    constexpr FlagSpec specs[] = {
        {"p", FlagKind::Number, "0", "p", kProbability},
        {"rate", FlagKind::Number, "1", "rate", kPositive},
        {"n", FlagKind::Count, "1", "n", kAtLeastOne},
        {"mode", FlagKind::Choice, "a", "mode", {}, "a|b"},
        {"crash", FlagKind::Number, "0", "crash", kProbability, {}, "journal"},
        {"journal", FlagKind::Switch, "off", "journal"},
    };
    const std::pair<const char *, const char *> cases[] = {
        {"--p=1.5", "--p must be in [0, 1], got: 1.5"},
        {"--p=-0.1", "--p must be in [0, 1], got: -0.1"},
        {"--rate=0", "--rate must be > 0, got: 0"},
        {"--n=0", "--n must be >= 1, got: 0"},
        {"--mode=c", "--mode must be one of a|b, got: c"},
        {"--crash=0.5", "--crash needs --journal"},
    };
    for (const auto &[arg, error] : cases) {
        Flags flags;
        ASSERT_TRUE(parseArgs(flags, {arg}));
        EXPECT_FALSE(checkAgainst(flags, specs)) << arg;
        EXPECT_EQ(flags.error(), error);
    }
    Flags edges;
    ASSERT_TRUE(parseArgs(edges, {"--p=1", "--rate=0.001", "--n=1",
                                  "--mode=b", "--crash=0.5", "--journal"}));
    EXPECT_TRUE(checkAgainst(edges, specs)) << edges.error();
    EXPECT_EQ(edges.text("mode"), "b");
}

TEST(Flags, OpenFamiliesKeepCommandLineOrder)
{
    constexpr FlagSpec specs[] = {
        {"deadline-ms", FlagKind::Number, "0", "one deadline"},
        {"deadline-ms-<type>", FlagKind::Number, "", "per-type deadline"},
        {"other", FlagKind::Count, "0", "other"},
    };
    const FlagTable table{"test", specs};
    Flags flags;
    ASSERT_TRUE(parseArgs(flags, {"--deadline-ms-zeta=3", "--other=1",
                                  "--deadline-ms-alpha=4", "--deadline-ms=5",
                                  "--deadline-ms-zeta=6"}));
    ASSERT_TRUE(flags.check(std::span(&table, 1))) << flags.error();
    // First-appearance order; a repeated flag keeps its last value.
    const std::vector<std::string> expected = {
        "deadline-ms-zeta", "other", "deadline-ms-alpha", "deadline-ms"};
    EXPECT_EQ(flags.given(table), expected);
    EXPECT_DOUBLE_EQ(flags.number("deadline-ms-zeta"), 6.0);
    EXPECT_DOUBLE_EQ(flags.number("deadline-ms"), 5.0);

    // The family needs a non-empty suffix.
    Flags bare;
    ASSERT_TRUE(parseArgs(bare, {"--deadline-ms-=1"}));
    EXPECT_FALSE(bare.check(std::span(&table, 1)));
}

TEST(Flags, UsageListsEveryFlagOnceWithItsDefault)
{
    constexpr FlagSpec specs[] = {
        {"count", FlagKind::Count, "3", "how many"},
        {"mode", FlagKind::Choice, "a", "which", {}, "a|b"},
        {"quiet", FlagKind::Switch, "off", "say less"},
        {"out", FlagKind::Text, "", "where", {}, "PATH"},
    };
    const FlagTable table{"section", specs};
    std::ostringstream os;
    Flags::usage(os, "prog", std::span(&table, 1));
    const std::string help = os.str();
    EXPECT_EQ(help.find("usage: prog"), 0u);
    EXPECT_NE(help.find("\nsection:\n"), std::string::npos);
    EXPECT_NE(help.find("--count=N"), std::string::npos);
    EXPECT_NE(help.find("how many (3)"), std::string::npos);
    EXPECT_NE(help.find("--mode=a|b"), std::string::npos);
    EXPECT_NE(help.find("--quiet[=on|off]"), std::string::npos);
    EXPECT_NE(help.find("--out=PATH"), std::string::npos);
    for (const FlagSpec &f : specs) {
        const std::string flag = "--" + std::string(f.name);
        EXPECT_EQ(help.find(flag), help.rfind(flag)) << flag;
    }
}

} // namespace
} // namespace rhythm
