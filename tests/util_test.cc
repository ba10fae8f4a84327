/**
 * @file
 * Unit tests for src/util: rng, stats, strings, table, flags, arena.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>

#include "util/arena.hh"
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

TEST(Flags, ParsesAllForms)
{
    const char *argv[] = {"prog",        "--a=1",     "--b", "two",
                          "--switch",    "--no-neg",  "pos1",
                          "--d=3.5",     "pos2"};
    Flags flags;
    ASSERT_TRUE(flags.parse(9, argv));
    EXPECT_EQ(flags.getU64("a", 0), 1u);
    EXPECT_EQ(flags.getString("b"), "two");
    EXPECT_TRUE(flags.getBool("switch", false));
    EXPECT_FALSE(flags.getBool("neg", true));
    EXPECT_DOUBLE_EQ(flags.getDouble("d", 0.0), 3.5);
    ASSERT_EQ(flags.positional().size(), 2u);
    EXPECT_EQ(flags.positional()[0], "pos1");
    EXPECT_EQ(flags.positional()[1], "pos2");
}

TEST(Flags, FallbacksAndMalformedValues)
{
    const char *argv[] = {"prog", "--n=abc", "--f=xyz", "--b=maybe"};
    Flags flags;
    ASSERT_TRUE(flags.parse(4, argv));
    EXPECT_EQ(flags.getU64("n", 7), 7u);
    EXPECT_DOUBLE_EQ(flags.getDouble("f", 2.5), 2.5);
    EXPECT_TRUE(flags.getBool("b", true));
    EXPECT_EQ(flags.getU64("missing", 9), 9u);
    EXPECT_FALSE(flags.has("missing"));
    EXPECT_TRUE(flags.has("n"));
}

TEST(Flags, AllowOnlyDetectsUnknown)
{
    const char *argv[] = {"prog", "--good=1", "--bad=2"};
    Flags flags;
    ASSERT_TRUE(flags.parse(3, argv));
    EXPECT_FALSE(flags.allowOnly({"good"}));
    EXPECT_NE(flags.error().find("bad"), std::string::npos);
    EXPECT_TRUE(flags.allowOnly({"good", "bad"}));
}

TEST(Flags, RequireNumbersRejectsUnparsableValues)
{
    const char *argv[] = {"prog", "--n=12", "--neg=-1", "--f=1e3",
                          "--word=xyz"};
    Flags flags;
    ASSERT_TRUE(flags.parse(5, argv));
    // Absent names pass; present ones must parse.
    EXPECT_TRUE(flags.requireU64({"n", "missing"}));
    EXPECT_TRUE(flags.requireDouble({"f", "n", "neg", "missing"}));
    EXPECT_FALSE(flags.requireU64({"n", "neg"}));
    EXPECT_NE(flags.error().find("--neg"), std::string::npos);
    EXPECT_FALSE(flags.requireDouble({"f", "word"}));
    EXPECT_NE(flags.error().find("--word"), std::string::npos);
}

TEST(Flags, BareDoubleDashIsError)
{
    const char *argv[] = {"prog", "--"};
    Flags flags;
    EXPECT_FALSE(flags.parse(2, argv));
    EXPECT_FALSE(flags.error().empty());
}

TEST(Arena, BumpAllocatesDisjointAlignedRanges)
{
    util::Arena arena(1024);
    char *a = arena.alloc(100);
    char *b = arena.alloc(100);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    // Alignment is relative to the block base: the second allocation
    // starts at the next 64-byte boundary past the first's end.
    EXPECT_EQ(b - a, 128);
    EXPECT_EQ(arena.usedBytes(), 228u); // 128 (padded) + 100
    char *c = arena.alloc(10, 8);
    EXPECT_EQ(c - a, 232); // 228 rounded up to the 8-byte boundary
}

TEST(Arena, ResetRecyclesBlocksInPlace)
{
    util::Arena arena(256);
    char *first = arena.alloc(200);
    const size_t cap = arena.capacityBytes();
    EXPECT_EQ(arena.epoch(), 0u);

    arena.reset();
    EXPECT_EQ(arena.epoch(), 1u);
    EXPECT_EQ(arena.usedBytes(), 0u);
    // Steady state: same block handed out again, no new backing memory.
    char *again = arena.alloc(200);
    EXPECT_EQ(again, first);
    EXPECT_EQ(arena.capacityBytes(), cap);
}

TEST(Arena, OversizedAllocationGetsDedicatedBlock)
{
    util::Arena arena(64);
    char *big = arena.alloc(1000);
    ASSERT_NE(big, nullptr);
    EXPECT_GE(arena.capacityBytes(), 1000u);
    // Writable end to end (asan would flag an undersized block).
    big[0] = 'a';
    big[999] = 'z';
    EXPECT_EQ(big[0], 'a');
    EXPECT_EQ(big[999], 'z');

    arena.reset();
    EXPECT_EQ(arena.alloc(1000), big); // recycled, not re-grown
}

TEST(Arena, UndersizedEmptyBlockIsGrownInPlace)
{
    util::Arena arena(64);
    arena.alloc(16);
    arena.reset(); // block 0: 64 bytes, empty again
    // A request the empty block cannot hold replaces it with a larger
    // block instead of leaking a chain of too-small blocks.
    char *big = arena.alloc(512);
    ASSERT_NE(big, nullptr);
    EXPECT_EQ(arena.capacityBytes(), 512u);
    big[0] = 'a';
    big[511] = 'z';
    EXPECT_EQ(big[511], 'z');

    arena.reset();
    EXPECT_EQ(arena.alloc(512), big); // the grown block is kept
}

} // namespace
} // namespace rhythm
