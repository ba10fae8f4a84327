/**
 * @file
 * Tests for the cohort buffer layout transforms (paper Section 4.3.2):
 * the transpose/untranspose round-trip on lane traces, the base-0
 * rebase of request traces and the analytic coalescing win of the
 * 4-byte interleaved layout.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "http/parser.hh"
#include "rhythm/buffers.hh"
#include "simt/warp.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace rhythm::core {
namespace {

using simt::MemOp;
using simt::MemSpace;
using simt::RecordingTracer;
using simt::ThreadTrace;
using simt::WarpModel;
using simt::WarpStats;

constexpr uint64_t kRegionBase = 0x6000'0000;
constexpr uint32_t kSlotBytes = 128;
constexpr uint32_t kCohort = 32;

void
expectSameOps(const ThreadTrace &a, const ThreadTrace &b)
{
    ASSERT_EQ(a.memOps.size(), b.memOps.size());
    for (size_t i = 0; i < a.memOps.size(); ++i) {
        const MemOp &x = a.memOps[i];
        const MemOp &y = b.memOps[i];
        EXPECT_EQ(x.addr, y.addr) << "op " << i;
        EXPECT_EQ(x.count, y.count) << "op " << i;
        EXPECT_EQ(x.stride, y.stride) << "op " << i;
        EXPECT_EQ(x.width, y.width) << "op " << i;
        EXPECT_EQ(x.space, y.space) << "op " << i;
        EXPECT_EQ(x.isStore, y.isStore) << "op " << i;
    }
}

TEST(RegionTranspose, UntransposeInvertsTransposeExactly)
{
    const uint32_t lane = 7;
    const uint64_t lane_base =
        kRegionBase + static_cast<uint64_t>(lane) * kSlotBytes;
    ThreadTrace t;
    {
        RecordingTracer rec(t);
        rec.block(1, 50);
        // Stride-4 row-major loads at several offsets within the slot,
        // bulk and single-element alike.
        rec.load(lane_base, 16, 4, 4);
        rec.load(lane_base + 64, 1, 4, 4);
        rec.load(lane_base + 100, 5, 4, 4);
        // Must survive untouched: a store inside the slot, a load
        // outside the region, and a load in another region entirely.
        rec.store(lane_base + 32, 4, 4, 4);
        rec.load(kRegionBase + static_cast<uint64_t>(kSlotBytes) * kCohort,
                 8, 4, 4);
        rec.load(0x7000'0000, 2, 4, 4);
    }
    const ThreadTrace original = t;

    transposeRegionLoads(t, kRegionBase, lane, kSlotBytes, kCohort);
    // The transpose must actually move the in-slot loads...
    EXPECT_NE(t.memOps[0].addr, original.memOps[0].addr);
    EXPECT_EQ(t.memOps[0].stride, kCohort * 4);
    // ...while leaving stores and out-of-region loads alone.
    EXPECT_EQ(t.memOps[3].addr, original.memOps[3].addr);
    EXPECT_EQ(t.memOps[4].addr, original.memOps[4].addr);
    EXPECT_EQ(t.memOps[5].addr, original.memOps[5].addr);

    untransposeRegionLoads(t, kRegionBase, lane, kSlotBytes, kCohort);
    expectSameOps(t, original);
}

TEST(RegionTranspose, UntransposeSkipsOtherLanesElements)
{
    // A transposed region interleaves all lanes; untransposing lane 3
    // must not move lane 5's elements even though they are in range.
    ThreadTrace t3, t5;
    {
        RecordingTracer rec(t3);
        rec.block(1, 10);
        rec.load(kRegionBase + 3 * kSlotBytes, 4, 4, 4);
    }
    {
        RecordingTracer rec(t5);
        rec.block(1, 10);
        rec.load(kRegionBase + 5 * kSlotBytes, 4, 4, 4);
    }
    transposeRegionLoads(t3, kRegionBase, 3, kSlotBytes, kCohort);
    transposeRegionLoads(t5, kRegionBase, 5, kSlotBytes, kCohort);
    const ThreadTrace t5_transposed = t5;

    untransposeRegionLoads(t3, kRegionBase, 3, kSlotBytes, kCohort);
    untransposeRegionLoads(t5, kRegionBase, 3, kSlotBytes, kCohort);
    EXPECT_EQ(t3.memOps[0].addr, kRegionBase + 3 * kSlotBytes);
    expectSameOps(t5, t5_transposed); // untouched: wrong lane
}

/** A warp of row-major readers: lane l reads its whole 128 B slot. */
std::vector<ThreadTrace>
rowMajorWarp()
{
    std::vector<ThreadTrace> traces(kCohort);
    for (uint32_t l = 0; l < kCohort; ++l) {
        RecordingTracer rec(traces[l]);
        rec.block(1, 100);
        rec.load(kRegionBase + static_cast<uint64_t>(l) * kSlotBytes,
                 kSlotBytes / 4, 4, 4);
    }
    return traces;
}

WarpStats
simulate(const std::vector<ThreadTrace> &traces)
{
    std::vector<const ThreadTrace *> lanes;
    for (const auto &t : traces)
        lanes.push_back(&t);
    return simt::simulateWarp(lanes, WarpModel{});
}

TEST(RegionTranspose, CoalescingMatchesAnalyticExpectation)
{
    // Row-major: each element group scatters 32 lanes across 32
    // distinct 128 B segments -> 32 words/lane * 32 transactions = 1024?
    // No: the 32 lanes' element-i addresses are l*128 + i*4, one
    // segment per lane, so every one of the 32 element groups costs 32
    // transactions: 32 * 32 = 1024 for a 128 B slot of 32 words.
    auto row = rowMajorWarp();
    const WarpStats uncoalesced = simulate(row);
    const uint32_t words = kSlotBytes / 4;
    EXPECT_EQ(uncoalesced.globalTransactions,
              static_cast<uint64_t>(words) * kCohort);

    // Transposed 4-byte interleave: element group i occupies one
    // aligned 128 B segment (32 lanes * 4 B), one transaction each.
    auto transposed = rowMajorWarp();
    for (uint32_t l = 0; l < kCohort; ++l)
        transposeRegionLoads(transposed[l], kRegionBase, l, kSlotBytes,
                             kCohort);
    const WarpStats coalesced = simulate(transposed);
    EXPECT_EQ(coalesced.globalTransactions, words);

    // The ratio is the full warp width: the Section 4.3.2 argument for
    // transposing request buffers before the parser kernel runs.
    EXPECT_EQ(uncoalesced.globalTransactions / coalesced.globalTransactions,
              kCohort);
    // Same bytes, same instructions -- layout only changes transactions.
    EXPECT_EQ(uncoalesced.globalBytes, coalesced.globalBytes);
    EXPECT_EQ(uncoalesced.issueSlots, coalesced.issueSlots);
}

TEST(RegionTranspose, ExactTileEdgeLanesAndOffsetsRoundTrip)
{
    // Edge lanes (0 and kCohort-1) at edge offsets (first word, last
    // word, and an unaligned tail byte) — the corners of the transpose
    // tile where an off-by-one in the address math would land the
    // element in a neighboring lane's column or the next element row.
    const uint32_t last = kCohort - 1;
    EXPECT_EQ(transposedRegionAddr(kRegionBase, 0, 0, kCohort),
              kRegionBase);
    EXPECT_EQ(transposedRegionAddr(kRegionBase, last, 0, kCohort),
              kRegionBase + static_cast<uint64_t>(last) * 4);
    // Last word of the slot: row (kSlotBytes/4 - 1), column `lane`.
    EXPECT_EQ(transposedRegionAddr(kRegionBase, last, kSlotBytes - 4,
                                   kCohort),
              kRegionBase +
                  (static_cast<uint64_t>(kSlotBytes) / 4 - 1) *
                      (kCohort * 4ull) +
                  static_cast<uint64_t>(last) * 4);
    // Unaligned offset keeps its byte position within the element.
    EXPECT_EQ(transposedRegionAddr(kRegionBase, 3, 9, kCohort),
              kRegionBase + 2 * (kCohort * 4ull) + 3 * 4 + 1);

    for (uint32_t lane : {0u, last}) {
        const uint64_t lane_base =
            kRegionBase + static_cast<uint64_t>(lane) * kSlotBytes;
        ThreadTrace t;
        {
            RecordingTracer rec(t);
            rec.block(1, 10);
            rec.load(lane_base, 1, 4, 4);
            rec.load(lane_base + kSlotBytes - 4, 1, 4, 4);
            rec.load(lane_base, kSlotBytes / 4, 4, 4);
        }
        const ThreadTrace original = t;
        transposeRegionLoads(t, kRegionBase, lane, kSlotBytes, kCohort);
        untransposeRegionLoads(t, kRegionBase, lane, kSlotBytes,
                               kCohort);
        expectSameOps(t, original);
    }
}

TEST(RegionRebase, MatchesRecordingAtTheSlotThenTransposing)
{
    // The request parser records each lane at base address 0 and moves
    // it into its slot with one rebase pass; the template cache replays
    // the same base-0 traces. Both rest on this identity with recording
    // at the slot's address and then (transposed layout only) running
    // the post-pass rewrite. 45 lanes is not a multiple of the warp
    // width, and the last lane's request is longer than its slot, so
    // its scans past the slot stay row-major.
    constexpr uint32_t kLanes = 45;
    constexpr uint32_t kRequestSlot = 256;
    const std::string short_req =
        "GET /bank/account_summary.php?userid=12 HTTP/1.1\r\n"
        "Host: bank\r\nCookie: SESSIONID=0123456789abcdef\r\n\r\n";
    const std::string long_req =
        "GET /bank/account_summary.php?userid=12 HTTP/1.1\r\n"
        "Host: bank\r\nX-Filler: " +
        std::string(300, 'b') +
        "\r\nCookie: SESSIONID=0123456789abcdef\r\n\r\n";
    ASSERT_GT(long_req.size(), kRequestSlot);
    for (const bool transpose : {false, true}) {
        for (const uint32_t lane : {0u, 13u, 32u, kLanes - 1}) {
            const std::string &raw =
                lane == kLanes - 1 ? long_req : short_req;
            const uint64_t slot_addr =
                kRegionBase + static_cast<uint64_t>(lane) * kRequestSlot;
            http::Request req;
            ThreadTrace at_slot;
            {
                RecordingTracer rec(at_slot);
                http::parseRequest(raw, slot_addr, rec, req);
            }
            if (transpose)
                transposeRegionLoads(at_slot, kRegionBase, lane,
                                     kRequestSlot, kLanes);
            ThreadTrace rebased;
            {
                RecordingTracer rec(rebased);
                http::parseRequest(raw, 0, rec, req);
            }
            const bool past_slot = std::any_of(
                rebased.memOps.begin(), rebased.memOps.end(),
                [](const MemOp &op) { return op.addr >= kRequestSlot; });
            EXPECT_EQ(past_slot, raw.size() > kRequestSlot);
            rebaseRegionTrace(rebased, kRegionBase, lane, kRequestSlot,
                              kLanes, transpose);

            SCOPED_TRACE(testing::Message() << "transpose " << transpose
                                            << " lane " << lane);
            expectSameOps(rebased, at_slot);
            ASSERT_EQ(rebased.blocks.size(), at_slot.blocks.size());
            for (size_t i = 0; i < rebased.blocks.size(); ++i) {
                EXPECT_EQ(rebased.blocks[i].blockId,
                          at_slot.blocks[i].blockId);
                EXPECT_EQ(rebased.blocks[i].instructions,
                          at_slot.blocks[i].instructions);
                EXPECT_EQ(rebased.blocks[i].memBegin,
                          at_slot.blocks[i].memBegin);
                EXPECT_EQ(rebased.blocks[i].memCount,
                          at_slot.blocks[i].memCount);
            }
        }
    }
}

TEST(CohortBufferZeroCopy, SpillPreservesContentOnSlotOverflow)
{
    CohortBufferConfig cfg;
    cfg.cohortSize = 4;
    cfg.laneBytes = 64;
    cfg.layout = BufferLayout::RowMajor;
    cfg.padToWarpMax = false;
    CohortBuffer buf(cfg);

    simt::ThreadTrace t;
    simt::RecordingTracer rec(t);
    auto &w = buf.writer(1, rec);
    const std::string long_text(100, 'x'); // 100 > 64: must spill
    w.appendStatic(1, "head:");
    w.appendDynamic(1, long_text);
    w.appendStatic(1, ":tail");

    EXPECT_TRUE(buf.spilled(1));
    EXPECT_EQ(buf.content(1), "head:" + long_text + ":tail");
    EXPECT_FALSE(buf.spilled(0));
    EXPECT_EQ(buf.content(0), "");

    // Patching a reservation works in the spilled representation too.
    const size_t off = w.reserve(1, 4);
    w.appendStatic(1, "!");
    w.patch(off, "42");
    const std::string_view c = buf.content(1);
    EXPECT_EQ(c.substr(off, 5), "42  !");
}

TEST(CohortBufferZeroCopy, PatchNarrowerThanReservationKeepsSpaces)
{
    // The Content-Length back-patch (Section 4.3.2): the reservation is
    // fixed-width, the patched value is often narrower, and the width
    // of the value can change between cohorts reusing the buffer. The
    // unpatched remainder must stay whitespace either way.
    CohortBufferConfig cfg;
    cfg.cohortSize = 2;
    cfg.laneBytes = 256;
    cfg.layout = BufferLayout::Transposed;
    CohortBuffer buf(cfg);

    simt::ThreadTrace t;
    simt::RecordingTracer rec(t);
    auto &w = buf.writer(0, rec);
    // Odd-length prefix: the reservation starts mid-word, so the
    // space fill and the patch both cross a 4-byte element boundary
    // of the transposed layout.
    w.appendStatic(1, "Len: ");
    const size_t off = w.reserve(1, 10);
    EXPECT_EQ(off, 5u);
    w.appendStatic(1, "\r\n");
    EXPECT_EQ(buf.content(0), "Len:           \r\n");

    w.patch(off, "7");
    EXPECT_EQ(buf.content(0), "Len: 7         \r\n");
    // Re-patch with the full width (a 10-digit length).
    w.patch(off, "1234567890");
    EXPECT_EQ(buf.content(0), "Len: 1234567890\r\n");
}

TEST(CohortBufferZeroCopy, ResetRecyclesSlots)
{
    CohortBufferConfig cfg;
    cfg.cohortSize = 2;
    cfg.laneBytes = 128;
    CohortBuffer buf(cfg);

    simt::ThreadTrace t;
    simt::RecordingTracer rec(t);
    buf.writer(0, rec).appendStatic(1, "first cohort content");
    EXPECT_EQ(buf.content(0), "first cohort content");
    const char *slot0 = buf.content(0).data();

    buf.reset();
    EXPECT_EQ(buf.content(0), "");

    simt::ThreadTrace t2;
    simt::RecordingTracer rec2(t2);
    buf.writer(0, rec2).appendStatic(1, "second");
    EXPECT_EQ(buf.content(0), "second");
    EXPECT_EQ(buf.content(0).data(), slot0); // the same slot, reused
    EXPECT_FALSE(buf.overflowed());
}

// ---- Store replay against a reference -------------------------------
//
// finalizeStores() walks each warp lane by lane: one pass takes the
// warp-max length of every append index, then each lane emits its own
// stores in order. The reference below is the loop it replaced: append
// index outermost, the warp's lanes inside, fed the appends the test
// made.

constexpr uint32_t kStorePassBlock = 5100; // buffers.cc's store pass
constexpr uint32_t kPadReduceInsts = 30;   // its butterfly reduction

/** What finalizeStores() leaves behind, besides the traces. */
struct ReplayTotals
{
    std::vector<size_t> paddedSize;
    uint64_t paddingBytes = 0;
    bool overflowed = false;
};

/**
 * Append-major store replay of a cohort whose lane l made appends of
 * lengths @p appends[l] (no entry for an unused lane), into @p traces.
 */
ReplayTotals
referenceReplay(const CohortBufferConfig &cfg,
                const std::vector<std::vector<uint32_t>> &appends,
                const std::vector<bool> &used,
                std::vector<ThreadTrace> &traces)
{
    const uint32_t n = cfg.cohortSize;
    const uint32_t width = static_cast<uint32_t>(cfg.warpWidth);
    const bool transposed = cfg.layout == BufferLayout::Transposed;
    ReplayTotals totals;
    totals.paddedSize.assign(n, 0);
    for (uint32_t base = 0; base < n; base += width) {
        const uint32_t warp_lanes = std::min(width, n - base);
        size_t max_appends = 0;
        for (uint32_t l = base; l < base + warp_lanes; ++l) {
            if (used[l])
                max_appends = std::max(max_appends, appends[l].size());
        }
        std::vector<size_t> offsets(n, 0);
        for (size_t j = 0; j < max_appends; ++j) {
            uint32_t max_len = 0;
            for (uint32_t l = base; l < base + warp_lanes; ++l) {
                if (used[l] && j < appends[l].size())
                    max_len = std::max(max_len, appends[l][j]);
            }
            for (uint32_t l = base; l < base + warp_lanes; ++l) {
                if (!used[l] || j >= appends[l].size())
                    continue;
                const uint32_t own = appends[l][j];
                const uint32_t stored = cfg.padToWarpMax ? max_len : own;
                ThreadTrace &t = traces[l];
                t.blocks.push_back(simt::BlockExec{
                    kStorePassBlock,
                    20 + stored * 2 +
                        (cfg.padToWarpMax ? kPadReduceInsts : 0),
                    static_cast<uint32_t>(t.memOps.size()), 0});
                if (stored > 0) {
                    const uint64_t addr =
                        transposed
                            ? transposedRegionAddr(cfg.deviceBase, l,
                                                   offsets[l], n)
                            : cfg.deviceBase +
                                  static_cast<uint64_t>(l) * cfg.laneBytes +
                                  offsets[l];
                    t.memOps.push_back(MemOp{addr, (stored + 3) / 4,
                                             transposed ? n * 4 : 4, 4,
                                             MemSpace::Global, true});
                    ++t.blocks.back().memCount;
                }
                totals.paddingBytes += stored - own;
                offsets[l] += stored;
            }
        }
        for (uint32_t l = base; l < base + warp_lanes; ++l) {
            if (!used[l])
                continue;
            totals.paddedSize[l] = offsets[l];
            if (offsets[l] > cfg.laneBytes)
                totals.overflowed = true;
        }
    }
    return totals;
}

/**
 * Random cohorts: sizes 1-300, warp widths 32, 64 and 24, both layouts,
 * padding on and off, unused lanes, zero-length appends (a store-pass
 * block with no store) and lanes that outgrow laneBytes. Each cohort is
 * replayed at 1 and at 8 sim threads.
 */
class StoreReplayMatchesReference : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(StoreReplayMatchesReference, TracesPaddingAndOverflow)
{
    const int kWidths[] = {32, 64, 24};
    for (unsigned threads : {1u, 8u}) {
        util::setSimThreads(threads);
        for (int c = 0; c < 6; ++c) {
            // The same cohorts at both thread counts.
            Rng rng(GetParam() * 100 + c);
            CohortBufferConfig cfg;
            cfg.cohortSize = static_cast<uint32_t>(rng.nextRange(1, 300));
            // Small slots overflow; 4 KiB holds any lane's appends.
            cfg.laneBytes = rng.nextBool(0.5)
                                ? static_cast<uint32_t>(rng.nextRange(64, 1024))
                                : 4096;
            cfg.layout = rng.nextBool(0.5) ? BufferLayout::Transposed
                                           : BufferLayout::RowMajor;
            cfg.padToWarpMax = rng.nextBool(0.5);
            cfg.warpWidth = kWidths[rng.nextBounded(3)];
            CohortBuffer buf(cfg);

            const uint32_t n = cfg.cohortSize;
            std::vector<ThreadTrace> traces(n);
            std::vector<std::vector<uint32_t>> appends(n);
            std::vector<bool> used(n, false);
            for (uint32_t l = 0; l < n; ++l) {
                if (rng.nextBool(0.2))
                    continue; // an unused lane
                simt::RecordingTracer rec(traces[l]);
                auto &w = buf.writer(l, rec);
                const int count = static_cast<int>(rng.nextRange(0, 10));
                used[l] = count > 0;
                for (int k = 0; k < count; ++k) {
                    const uint32_t block =
                        static_cast<uint32_t>(rng.nextRange(1, 9));
                    const size_t len = rng.nextBool(0.15)
                                           ? 0
                                           : static_cast<size_t>(
                                                 rng.nextRange(1, 300));
                    const std::string text(len, 'a');
                    switch (rng.nextBounded(3)) {
                      case 0:
                        w.appendStatic(block, text);
                        break;
                      case 1:
                        w.appendDynamic(block, text);
                        break;
                      default:
                        w.reserve(block, len);
                        break;
                    }
                    appends[l].push_back(static_cast<uint32_t>(len));
                }
            }
            std::vector<ThreadTrace> expected = traces;
            const ReplayTotals want =
                referenceReplay(cfg, appends, used, expected);
            buf.finalizeStores(traces);

            const std::string where = "cohort " + std::to_string(c) +
                                      " size " + std::to_string(n) +
                                      " threads " + std::to_string(threads);
            EXPECT_EQ(buf.paddingBytes(), want.paddingBytes) << where;
            EXPECT_EQ(buf.overflowed(), want.overflowed) << where;
            for (uint32_t l = 0; l < n; ++l) {
                EXPECT_EQ(buf.paddedSize(l), want.paddedSize[l])
                    << where << " lane " << l;
                const ThreadTrace &got = traces[l];
                const ThreadTrace &ref = expected[l];
                ASSERT_EQ(got.blocks.size(), ref.blocks.size())
                    << where << " lane " << l;
                for (size_t i = 0; i < got.blocks.size(); ++i) {
                    EXPECT_EQ(got.blocks[i].blockId, ref.blocks[i].blockId);
                    EXPECT_EQ(got.blocks[i].instructions,
                              ref.blocks[i].instructions);
                    EXPECT_EQ(got.blocks[i].memBegin,
                              ref.blocks[i].memBegin);
                    EXPECT_EQ(got.blocks[i].memCount,
                              ref.blocks[i].memCount);
                }
                expectSameOps(got, ref);
            }
        }
    }
    util::setSimThreads(1);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, StoreReplayMatchesReference,
                         ::testing::Range<uint64_t>(1, 17));

} // namespace
} // namespace rhythm::core
