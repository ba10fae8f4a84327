/**
 * @file
 * Unit tests for the warp profile cache: fingerprint normalization
 * (translation invariance and its limits), null-lane aliasing, LRU
 * bookkeeping, and the memoization soundness property that equal
 * fingerprints imply bit-equal WarpStats.
 */

#include <gtest/gtest.h>

#include <vector>

#include "simt/profile_cache.hh"
#include "simt/warp.hh"

namespace rhythm::simt {
namespace {

/**
 * A representative warp: divergent control flow plus Global, Shared and
 * Constant traffic, with every Global address offset by @p base (the
 * cohort-slot translation the fingerprint must normalize away).
 */
std::vector<ThreadTrace>
makeWarp(uint64_t base, uint32_t lanes = 32)
{
    std::vector<ThreadTrace> traces(lanes);
    for (uint32_t l = 0; l < lanes; ++l) {
        RecordingTracer rec(traces[l]);
        rec.block(1, 100);
        rec.load(base + l * 4, 16, 4, 4);
        if (l % 2 == 0) {
            rec.block(2, 40 + l);
            rec.store(base + 4096 + l * 128, 8, 4, 4);
        }
        rec.block(3, 25);
        rec.load(l * 4, 4, 4, 4, MemSpace::Shared);
        rec.load(0x100, 1, 0, 4, MemSpace::Constant);
    }
    return traces;
}

std::vector<const ThreadTrace *>
ptrs(const std::vector<ThreadTrace> &traces)
{
    std::vector<const ThreadTrace *> p;
    for (const auto &t : traces)
        p.push_back(&t);
    return p;
}

TEST(WarpFingerprint, InvariantUnderSegmentMultipleTranslation)
{
    const WarpModel model;
    auto warp_a = makeWarp(0x6000'0000);
    auto warp_b = makeWarp(0x6000'0000 + 37ull * model.segmentBytes);
    auto pa = ptrs(warp_a);
    auto pb = ptrs(warp_b);
    EXPECT_EQ(warpFingerprint(pa, model), warpFingerprint(pb, model));
    // The property the cache relies on: equal keys, bit-equal stats.
    EXPECT_EQ(simulateWarp(pa, model), simulateWarp(pb, model));
}

TEST(WarpFingerprint, UnalignedBaseStillNormalizes)
{
    // Slot bases need not be segment-aligned themselves; only the
    // *difference* between equivalent warps is a segment multiple.
    const WarpModel model;
    auto warp_a = makeWarp(0x6000'0000 + 52);
    auto warp_b = makeWarp(0x6000'0000 + 52 + 1024ull * model.segmentBytes);
    auto pa = ptrs(warp_a);
    auto pb = ptrs(warp_b);
    EXPECT_EQ(warpFingerprint(pa, model), warpFingerprint(pb, model));
    EXPECT_EQ(simulateWarp(pa, model), simulateWarp(pb, model));
}

TEST(WarpFingerprint, IntraSegmentShiftChangesKey)
{
    // A 4-byte shift changes intra-segment alignment (straddle
    // behaviour can differ), so it must produce a different key.
    const WarpModel model;
    auto warp_a = makeWarp(0x6000'0000);
    auto warp_b = makeWarp(0x6000'0004);
    auto pa = ptrs(warp_a);
    auto pb = ptrs(warp_b);
    EXPECT_NE(warpFingerprint(pa, model), warpFingerprint(pb, model));
}

TEST(WarpFingerprint, SharedAddressesAreNotNormalized)
{
    // Shared-space bank mapping is absolute: shifting only the Shared
    // addresses must change the key even though Global content matches.
    const WarpModel model;
    ThreadTrace a, b;
    {
        RecordingTracer rec(a);
        rec.block(1, 10);
        rec.load(0, 4, 4, 4, MemSpace::Shared);
    }
    {
        RecordingTracer rec(b);
        rec.block(1, 10);
        rec.load(128, 4, 4, 4, MemSpace::Shared);
    }
    const ThreadTrace *la = &a;
    const ThreadTrace *lb = &b;
    EXPECT_NE(warpFingerprint({&la, 1}, model),
              warpFingerprint({&lb, 1}, model));
}

TEST(WarpFingerprint, NullLanesCannotAliasActiveOnes)
{
    const WarpModel model;
    auto warp = makeWarp(0, 2);
    const ThreadTrace *both[] = {&warp[0], &warp[1]};
    const ThreadTrace *first_only[] = {&warp[0], nullptr};
    const ThreadTrace *second_only[] = {nullptr, &warp[1]};
    const ThreadTrace *just_one[] = {&warp[0]};
    const WarpKey k_both = warpFingerprint(both, model);
    const WarpKey k_first = warpFingerprint(first_only, model);
    const WarpKey k_second = warpFingerprint(second_only, model);
    const WarpKey k_one = warpFingerprint(just_one, model);
    EXPECT_NE(k_both, k_first);
    EXPECT_NE(k_both, k_second);
    EXPECT_NE(k_first, k_second);
    EXPECT_NE(k_first, k_one); // lane count is part of the key
}

TEST(WarpFingerprint, ModelParametersArePartOfTheKey)
{
    auto warp = makeWarp(0);
    auto p = ptrs(warp);
    WarpModel base_model;
    WarpModel wide = base_model;
    wide.segmentBytes = 64;
    WarpModel window = base_model;
    window.reconvergenceWindow = 8;
    EXPECT_NE(warpFingerprint(p, base_model), warpFingerprint(p, wide));
    EXPECT_NE(warpFingerprint(p, base_model), warpFingerprint(p, window));
}

TEST(ProfileCache, FindCountsHitsAndReturnsExactStats)
{
    ProfileCache cache(4);
    auto warp = makeWarp(0);
    auto p = ptrs(warp);
    const WarpModel model;
    const WarpKey key = warpFingerprint(p, model);
    EXPECT_EQ(cache.find(key), nullptr);
    EXPECT_EQ(cache.stats().hits, 0u);

    const WarpStats fresh = simulateWarp(p, model);
    cache.insert(key, fresh);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);

    const WarpStats *cached = cache.find(key);
    ASSERT_NE(cached, nullptr);
    EXPECT_EQ(*cached, fresh);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ProfileCache, EvictsLeastRecentlyUsed)
{
    ProfileCache cache(2);
    const WarpKey a{1, 1}, b{2, 2}, c{3, 3};
    WarpStats s;
    s.issueSlots = 7;
    cache.insert(a, s);
    cache.insert(b, s);
    ASSERT_NE(cache.find(a), nullptr); // bump a to MRU
    cache.insert(c, s);                // evicts b, not a
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_NE(cache.find(a), nullptr);
    EXPECT_EQ(cache.find(b), nullptr);
    EXPECT_NE(cache.find(c), nullptr);
}

TEST(ProfileCache, ReinsertRefreshesRecencyWithoutGrowth)
{
    ProfileCache cache(2);
    const WarpKey a{1, 1}, b{2, 2}, c{3, 3};
    WarpStats s;
    cache.insert(a, s);
    cache.insert(b, s);
    cache.insert(a, s); // refresh, not a new entry
    EXPECT_EQ(cache.size(), 2u);
    cache.insert(c, s); // evicts b (a was refreshed)
    EXPECT_EQ(cache.find(b), nullptr);
    EXPECT_NE(cache.find(a), nullptr);
}

TEST(ProfileCache, ClearDropsEntriesButKeepsStats)
{
    ProfileCache cache(4);
    WarpStats s;
    cache.insert(WarpKey{1, 1}, s);
    ASSERT_NE(cache.find(WarpKey{1, 1}), nullptr);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.find(WarpKey{1, 1}), nullptr);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(ProfileCache, TraceBytesCountActiveLanesOnly)
{
    auto warp = makeWarp(0, 2);
    const ThreadTrace *with_null[] = {&warp[0], nullptr, &warp[1]};
    const ThreadTrace *active[] = {&warp[0], &warp[1]};
    EXPECT_EQ(warpTraceBytes(with_null), warpTraceBytes(active));
    EXPECT_GT(warpTraceBytes(active), 0u);
}

} // namespace
} // namespace rhythm::simt
