/**
 * @file
 * Unit and property tests for the warp lockstep simulator and coalescer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <unordered_map>
#include <vector>

#include "simt/kernel.hh"
#include "simt/warp.hh"
#include "util/rng.hh"

namespace rhythm::simt {
namespace {

/// Builds a trace from (blockId, instructions) pairs.
ThreadTrace
makeTrace(std::initializer_list<std::pair<uint32_t, uint32_t>> blocks)
{
    ThreadTrace t;
    RecordingTracer rec(t);
    for (auto [id, insts] : blocks)
        rec.block(id, insts);
    return t;
}

std::vector<const ThreadTrace *>
ptrs(const std::vector<ThreadTrace> &traces)
{
    std::vector<const ThreadTrace *> p;
    for (const auto &t : traces)
        p.push_back(&t);
    return p;
}

TEST(Coalescer, SingleLaneSingleSegment)
{
    std::vector<uint64_t> addrs = {0};
    EXPECT_EQ(coalesceTransactions(addrs, 4, 128), 1u);
}

TEST(Coalescer, FullWarpContiguousIsOneTransaction)
{
    std::vector<uint64_t> addrs;
    for (int l = 0; l < 32; ++l)
        addrs.push_back(l * 4);
    EXPECT_EQ(coalesceTransactions(addrs, 4, 128), 1u);
}

TEST(Coalescer, StridedLanesAreSeparateTransactions)
{
    // 4 KiB apart: the row-major buffer layout before transpose.
    std::vector<uint64_t> addrs;
    for (int l = 0; l < 32; ++l)
        addrs.push_back(static_cast<uint64_t>(l) * 4096);
    EXPECT_EQ(coalesceTransactions(addrs, 4, 128), 32u);
}

TEST(Coalescer, StraddlingAccessCountsBothSegments)
{
    std::vector<uint64_t> addrs = {126};
    EXPECT_EQ(coalesceTransactions(addrs, 4, 128), 2u);
}

TEST(Coalescer, DuplicateAddressesMerge)
{
    std::vector<uint64_t> addrs = {0, 0, 0, 64, 64};
    EXPECT_EQ(coalesceTransactions(addrs, 4, 128), 1u);
}

TEST(Warp, IdenticalTracesExecuteOnce)
{
    std::vector<ThreadTrace> traces;
    for (int i = 0; i < 32; ++i)
        traces.push_back(makeTrace({{1, 100}, {2, 50}, {3, 25}}));
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.issueSlots, 175u);           // fetched once
    EXPECT_EQ(ws.laneInstructions, 32u * 175); // all lanes did the work
    EXPECT_EQ(ws.steps, 3u);
    EXPECT_DOUBLE_EQ(ws.simdEfficiency(32), 1.0);
}

TEST(Warp, FullyDivergentTracesSerialize)
{
    std::vector<ThreadTrace> traces;
    for (uint32_t i = 0; i < 8; ++i)
        traces.push_back(makeTrace({{100 + i, 10}}));
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.issueSlots, 80u); // each block fetched separately
    EXPECT_EQ(ws.laneInstructions, 80u);
    EXPECT_EQ(ws.steps, 8u);
    EXPECT_NEAR(ws.simdEfficiency(32), 1.0 / 32.0, 1e-12);
}

TEST(Warp, IfElseDivergenceReconverges)
{
    // Half the warp takes block 2, half takes block 3; all share 1 and 4.
    std::vector<ThreadTrace> traces;
    for (int i = 0; i < 32; ++i) {
        if (i % 2 == 0)
            traces.push_back(makeTrace({{1, 10}, {2, 20}, {4, 10}}));
        else
            traces.push_back(makeTrace({{1, 10}, {3, 20}, {4, 10}}));
    }
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    // Blocks: 1 (once), 2 and 3 (serialized), 4 (once) = 10+20+20+10.
    EXPECT_EQ(ws.issueSlots, 60u);
    EXPECT_EQ(ws.steps, 4u);
    EXPECT_EQ(ws.laneInstructions, 32u * 40);
}

TEST(Warp, DifferentTripWeightsPredicate)
{
    // Same block id, different dynamic weights (e.g. different string
    // lengths): the group runs for max(weight) slots.
    std::vector<ThreadTrace> traces;
    traces.push_back(makeTrace({{1, 10}}));
    traces.push_back(makeTrace({{1, 30}}));
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.issueSlots, 30u);
    EXPECT_EQ(ws.laneInstructions, 40u);
    EXPECT_EQ(ws.steps, 1u);
}

TEST(Warp, LoopTripCountDivergence)
{
    // Lane A loops 3 times over block 5, lane B twice; they re-merge.
    std::vector<ThreadTrace> traces;
    traces.push_back(makeTrace({{4, 1}, {5, 10}, {5, 10}, {5, 10}, {6, 1}}));
    traces.push_back(makeTrace({{4, 1}, {5, 10}, {5, 10}, {6, 1}}));
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    // 4 together, 5 ×2 together, 5 ×1 lane A alone, 6 together.
    EXPECT_EQ(ws.issueSlots, 1u + 30u + 1u);
    EXPECT_EQ(ws.steps, 5u);
}

TEST(Warp, NullLanesIgnored)
{
    ThreadTrace t = makeTrace({{1, 10}});
    std::vector<const ThreadTrace *> p = {&t, nullptr, &t, nullptr};
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.issueSlots, 10u);
    EXPECT_EQ(ws.laneInstructions, 20u);
}

TEST(Warp, EmptyWarp)
{
    std::vector<const ThreadTrace *> p;
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.issueSlots, 0u);
    EXPECT_EQ(ws.simdEfficiency(32), 0.0);
}

TEST(Warp, AllNullLaneWarp)
{
    // A fully padded tail warp (every lane idle) must cost nothing —
    // the shape the fusion packer eliminates.
    std::vector<const ThreadTrace *> p(32, nullptr);
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws, WarpStats{});
    EXPECT_EQ(ws.simdEfficiency(32), 0.0);
}

TEST(Warp, SingleActiveLaneAmongNulls)
{
    ThreadTrace t = makeTrace({{1, 10}, {2, 20}});
    std::vector<const ThreadTrace *> p(32, nullptr);
    p[17] = &t;
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.issueSlots, 30u);
    EXPECT_EQ(ws.laneInstructions, 30u);
    EXPECT_EQ(ws.steps, 2u);
    EXPECT_EQ(ws.activeLaneSteps, 2u);
    EXPECT_NEAR(ws.simdEfficiency(32), 1.0 / 32.0, 1e-12);
}

TEST(Warp, InterleavedNullLanesMatchCompactWarp)
{
    // Null lanes are pure padding: the schedule (and all memory
    // traffic) must be identical whether the active lanes are packed
    // contiguously or interleaved with idle slots.
    std::vector<ThreadTrace> traces;
    traces.push_back(makeTrace({{1, 10}, {2, 20}, {4, 10}}));
    traces.push_back(makeTrace({{1, 10}, {3, 20}, {4, 10}}));
    traces.push_back(makeTrace({{1, 10}, {2, 20}, {4, 10}}));
    std::vector<const ThreadTrace *> interleaved = {
        nullptr, &traces[0], nullptr, nullptr,
        &traces[1], nullptr, &traces[2], nullptr};
    std::vector<const ThreadTrace *> compact = {&traces[0], &traces[1],
                                                &traces[2]};
    EXPECT_EQ(simulateWarp(interleaved), simulateWarp(compact));
}

TEST(Warp, SharedBlockWithinWindowReconverges)
{
    // Mixed-type lane groups: two "type A" lanes reach merge block 9
    // immediately, two "type B" lanes detour through a short private
    // region first. The merge block is within the reconvergence window
    // of the B lanes, so A waits and block 9 issues once for all four.
    std::vector<ThreadTrace> traces;
    for (int i = 0; i < 2; ++i)
        traces.push_back(makeTrace({{7, 10}, {9, 50}}));
    for (int i = 0; i < 2; ++i) {
        ThreadTrace t;
        RecordingTracer rec(t);
        rec.block(7, 10);
        for (uint32_t f = 0; f < 8; ++f)
            rec.block(100 + f, 1);
        rec.block(9, 50);
        traces.push_back(std::move(t));
    }
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    // Block 7 together (10), 8 filler blocks (8), block 9 together (50).
    EXPECT_EQ(ws.issueSlots, 68u);
    EXPECT_EQ(ws.steps, 10u);
    // 4 lanes at 7, 2 per filler, 4 at 9.
    EXPECT_EQ(ws.activeLaneSteps, 4u + 8u * 2 + 4u);
}

TEST(Warp, SharedBlockBeyondWindowStaysDivergent)
{
    // Same shape, but the detour is longer than the reconvergence
    // window (512 trace entries): the scheduler no longer sees block 9
    // as a future merge point, so the type-A lanes run it alone and the
    // type-B lanes re-issue it later. This is the divergence cliff the
    // fusion similarity threshold guards against.
    const WarpModel model; // reconvergenceWindow = 512
    constexpr uint32_t kFiller = 600;
    std::vector<ThreadTrace> traces;
    for (int i = 0; i < 2; ++i)
        traces.push_back(makeTrace({{7, 10}, {9, 50}}));
    for (int i = 0; i < 2; ++i) {
        ThreadTrace t;
        RecordingTracer rec(t);
        rec.block(7, 10);
        for (uint32_t f = 0; f < kFiller; ++f)
            rec.block(100 + f, 1);
        rec.block(9, 50);
        traces.push_back(std::move(t));
    }
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p, model);
    // Block 7 together, fillers, then block 9 twice (A group, B group).
    EXPECT_EQ(ws.issueSlots, 10u + kFiller + 50u + 50u);
    EXPECT_EQ(ws.steps, 1u + kFiller + 2u);

    // Shrinking the window further must not resurrect the merge.
    WarpModel narrow = model;
    narrow.reconvergenceWindow = 4;
    WarpStats nw = simulateWarp(p, narrow);
    EXPECT_EQ(nw.issueSlots, ws.issueSlots);
}

/// Asserts mergeBlockSchedule() reproduces simulateWarp()'s scheduler
/// fields bit-for-bit while leaving every memory counter at zero.
void
expectScheduleMatches(std::span<const ThreadTrace *const> lanes,
                      const WarpModel &model = WarpModel{})
{
    const WarpStats full = simulateWarp(lanes, model);
    const WarpStats sched = mergeBlockSchedule(lanes, model);
    EXPECT_EQ(sched.issueSlots, full.issueSlots);
    EXPECT_EQ(sched.laneInstructions, full.laneInstructions);
    EXPECT_EQ(sched.steps, full.steps);
    EXPECT_EQ(sched.laneBlockExecs, full.laneBlockExecs);
    EXPECT_EQ(sched.activeLaneSteps, full.activeLaneSteps);
    EXPECT_EQ(sched.globalTransactions, 0u);
    EXPECT_EQ(sched.globalBytes, 0u);
    EXPECT_EQ(sched.sharedAccesses, 0u);
    EXPECT_EQ(sched.sharedReplaySlots, 0u);
    EXPECT_EQ(sched.constantAccesses, 0u);
}

TEST(Warp, MergeBlockScheduleMatchesSimulateWarp)
{
    // Control-flow-only traces: divergence, loops, nulls.
    {
        std::vector<ThreadTrace> traces;
        for (int i = 0; i < 32; ++i) {
            if (i % 2 == 0)
                traces.push_back(makeTrace({{1, 10}, {2, 20}, {4, 10}}));
            else
                traces.push_back(makeTrace({{1, 10}, {3, 20}, {4, 10}}));
        }
        auto p = ptrs(traces);
        expectScheduleMatches(p);
    }
    {
        ThreadTrace t = makeTrace({{4, 1}, {5, 10}, {5, 10}, {6, 1}});
        std::vector<const ThreadTrace *> p = {&t, nullptr, &t, nullptr};
        expectScheduleMatches(p);
    }
    // Traces with memory ops: the fields simulateWarp() derives from
    // them must not leak into the schedule.
    {
        std::vector<ThreadTrace> traces(8);
        for (int l = 0; l < 8; ++l) {
            RecordingTracer rec(traces[static_cast<size_t>(l)]);
            rec.block(1, 100);
            rec.load(static_cast<uint64_t>(l) * 4, 16, 4, 4);
            if (l % 2 == 0) {
                rec.block(2, 40 + static_cast<uint32_t>(l));
                rec.store(4096 + static_cast<uint64_t>(l) * 128, 8, 4, 4);
            }
            rec.block(3, 25);
            rec.load(static_cast<uint64_t>(l) * 4, 4, 4, 4,
                     MemSpace::Shared);
            rec.load(0x100, 1, 0, 4, MemSpace::Constant);
        }
        auto p = ptrs(traces);
        expectScheduleMatches(p);
        // And under a non-default model, since the window changes the
        // schedule itself.
        WarpModel narrow;
        narrow.reconvergenceWindow = 2;
        expectScheduleMatches(p, narrow);
    }
    {
        std::vector<const ThreadTrace *> p;
        expectScheduleMatches(p);
    }
}

TEST(Warp, CoalescedStoresAcrossLanes)
{
    // 32 lanes store 4 B each at consecutive addresses (transposed
    // layout): one transaction per element index.
    std::vector<ThreadTrace> traces(32);
    for (int l = 0; l < 32; ++l) {
        RecordingTracer rec(traces[static_cast<size_t>(l)]);
        rec.block(1, 10);
        // 16 elements, per-element stride = 128 (cohort row), lane offset 4.
        rec.store(static_cast<uint64_t>(l) * 4, 16, 128, 4);
    }
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.globalTransactions, 16u);
    EXPECT_EQ(ws.globalBytes, 32u * 16 * 4);
    EXPECT_DOUBLE_EQ(ws.coalescingEfficiency(), 1.0);
}

TEST(Warp, UncoalescedRowMajorStores)
{
    // Row-major: lane l writes its own contiguous 64 B buffer 4 KiB apart.
    std::vector<ThreadTrace> traces(32);
    for (int l = 0; l < 32; ++l) {
        RecordingTracer rec(traces[static_cast<size_t>(l)]);
        rec.block(1, 10);
        rec.store(static_cast<uint64_t>(l) * 4096, 16, 4, 4);
    }
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    // Each element index: 32 lanes in 32 distinct segments.
    EXPECT_EQ(ws.globalTransactions, 16u * 32);
    EXPECT_LT(ws.coalescingEfficiency(), 0.05);
}

TEST(Warp, SharedAndConstantProduceNoDramTraffic)
{
    std::vector<ThreadTrace> traces(4);
    for (int l = 0; l < 4; ++l) {
        RecordingTracer rec(traces[static_cast<size_t>(l)]);
        rec.block(1, 5);
        rec.load(0x100, 8, 4, 4, MemSpace::Shared);
        rec.load(0x200, 2, 0, 4, MemSpace::Constant);
    }
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.globalTransactions, 0u);
    EXPECT_EQ(ws.sharedAccesses, 4u * 8);
    EXPECT_EQ(ws.constantAccesses, 4u * 2);
}

TEST(Warp, BulkSampledPathMatchesExactForUniformPattern)
{
    // Uniform bulk ops on either side of the 4096-element limit past
    // which the coalescer once sampled a window and extrapolated: the
    // closed form counts both exactly.
    auto build = [](uint32_t count) {
        std::vector<ThreadTrace> traces(32);
        for (int l = 0; l < 32; ++l) {
            RecordingTracer rec(traces[static_cast<size_t>(l)]);
            rec.block(1, 1);
            rec.store(static_cast<uint64_t>(l) * 4, count, 128, 4);
        }
        return traces;
    };
    auto small = build(1024);
    auto big = build(8192);
    auto ps = ptrs(small);
    auto pb = ptrs(big);
    WarpStats s = simulateWarp(ps);
    WarpStats b = simulateWarp(pb);
    EXPECT_EQ(s.globalTransactions, 1024u);
    EXPECT_EQ(b.globalTransactions, 8192u);
}

// Property sweep: merged issue slots are bounded below by the longest
// lane and above by the sum of all lanes, for random trace populations.
class WarpMergeProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(WarpMergeProperty, SlotsBoundedByMaxAndSum)
{
    rhythm::Rng rng(GetParam());
    std::vector<ThreadTrace> traces;
    uint64_t sum = 0, max_one = 0;
    const int lanes = static_cast<int>(rng.nextRange(1, 32));
    for (int l = 0; l < lanes; ++l) {
        ThreadTrace t;
        RecordingTracer rec(t);
        uint64_t insts = 0;
        const int blocks = static_cast<int>(rng.nextRange(1, 20));
        for (int b = 0; b < blocks; ++b) {
            const uint32_t id = static_cast<uint32_t>(rng.nextRange(1, 6));
            const uint32_t w = static_cast<uint32_t>(rng.nextRange(1, 50));
            rec.block(id, w);
            insts += w;
        }
        sum += insts;
        max_one = std::max(max_one, insts);
        traces.push_back(std::move(t));
    }
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    EXPECT_GE(ws.issueSlots, max_one);
    EXPECT_LE(ws.issueSlots, sum);
    EXPECT_EQ(ws.laneInstructions, sum);
    // Every lane's block executions are consumed exactly once.
    uint64_t lane_blocks = 0;
    for (const auto &t : traces)
        lane_blocks += t.blocks.size();
    EXPECT_EQ(ws.laneBlockExecs, lane_blocks);
    EXPECT_GE(ws.activeLaneSteps, lane_blocks);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, WarpMergeProperty,
                         ::testing::Range<uint64_t>(1, 33));

TEST(KernelProfile, FromTracesPacksWarps)
{
    std::vector<ThreadTrace> traces;
    for (int i = 0; i < 70; ++i)
        traces.push_back(makeTrace({{1, 10}}));
    auto p = ptrs(traces);
    KernelProfile kp = KernelProfile::fromTraces(p, WarpModel{}, "t");
    EXPECT_EQ(kp.threads, 70u);
    EXPECT_EQ(kp.warps, 3u); // 32 + 32 + 6
    EXPECT_EQ(kp.totals.issueSlots, 30u);
    EXPECT_EQ(kp.totals.laneInstructions, 700u);
}

TEST(KernelProfile, StreamingIsMemoryBoundAndCoalesced)
{
    WarpModel model;
    KernelProfile kp =
        KernelProfile::streaming(4096, 1 << 20, 64, model, "transpose");
    EXPECT_EQ(kp.warps, 128u);
    EXPECT_EQ(kp.totals.globalTransactions, (1u << 20) / 128);
    DeviceConfig cfg;
    KernelCost cost = computeKernelCost(kp, cfg);
    EXPECT_TRUE(cost.memoryBound);
    EXPECT_GT(cost.deviceSeconds, 0.0);
}

TEST(KernelCost, OccupancyCapScalesWithWarps)
{
    DeviceConfig cfg;
    WarpModel model;
    KernelProfile small = KernelProfile::streaming(256, 1 << 16, 64, model);
    KernelProfile big = KernelProfile::streaming(4096, 1 << 20, 64, model);
    KernelCost cs = computeKernelCost(small, cfg);
    KernelCost cb = computeKernelCost(big, cfg);
    EXPECT_LT(cs.maxShare, cb.maxShare);
    EXPECT_DOUBLE_EQ(cb.maxShare, 1.0);
    EXPECT_NEAR(cs.maxShare, 8.0 / cfg.saturatingWarps(), 1e-12);
}

TEST(KernelCost, ComputeBoundKernel)
{
    WarpModel model;
    // Many instructions, almost no memory.
    KernelProfile kp = KernelProfile::streaming(4096, 128, 100000, model);
    DeviceConfig cfg;
    KernelCost cost = computeKernelCost(kp, cfg);
    EXPECT_FALSE(cost.memoryBound);
    const double expected = static_cast<double>(kp.totals.issueSlots) *
                            cfg.instructionExpansion /
                            cfg.issueSlotsPerSecond();
    EXPECT_NEAR(cost.deviceSeconds, expected, 1e-15);
    EXPECT_EQ(cost.memoryBytes, kp.totals.movedBytes());
}

TEST(SharedBanks, ConflictFreeStrideOne)
{
    // 32 lanes hit 32 consecutive 4-byte words: one word per bank.
    std::vector<uint64_t> addrs;
    for (int l = 0; l < 32; ++l)
        addrs.push_back(static_cast<uint64_t>(l) * 4);
    EXPECT_EQ(sharedBankReplays(addrs), 0u);
}

TEST(SharedBanks, BroadcastIsFree)
{
    std::vector<uint64_t> addrs(32, 128);
    EXPECT_EQ(sharedBankReplays(addrs), 0u);
}

TEST(SharedBanks, StrideThirtyTwoIsWorstCase)
{
    // All lanes hit bank 0 with distinct addresses: 31 replays.
    std::vector<uint64_t> addrs;
    for (int l = 0; l < 32; ++l)
        addrs.push_back(static_cast<uint64_t>(l) * 128);
    EXPECT_EQ(sharedBankReplays(addrs), 31u);
}

TEST(SharedBanks, TwoWayConflict)
{
    // Stride 2 words: lanes l and l+16 share a bank: 1 replay.
    std::vector<uint64_t> addrs;
    for (int l = 0; l < 32; ++l)
        addrs.push_back(static_cast<uint64_t>(l) * 8);
    EXPECT_EQ(sharedBankReplays(addrs), 1u);
}

TEST(SharedBanks, SixteenWayConflict)
{
    // Stride 16 words: lanes collapse onto banks 0 and 16: 15 replays.
    std::vector<uint64_t> addrs;
    for (int l = 0; l < 32; ++l)
        addrs.push_back(static_cast<uint64_t>(l) * 64);
    EXPECT_EQ(sharedBankReplays(addrs), 15u);
}

TEST(SharedBanks, ReplaysFlowIntoWarpStatsAndCost)
{
    // A warp whose shared accesses all collide must cost more compute
    // time than a conflict-free one.
    auto build = [](uint32_t stride) {
        std::vector<ThreadTrace> traces(32);
        for (int l = 0; l < 32; ++l) {
            RecordingTracer rec(traces[static_cast<size_t>(l)]);
            rec.block(1, 10);
            rec.load(static_cast<uint64_t>(l) * stride, 8, 4, 4,
                     MemSpace::Shared);
        }
        std::vector<const ThreadTrace *> p;
        for (auto &t : traces)
            p.push_back(&t);
        return KernelProfile::fromTraces(p, WarpModel{}, "t");
    };
    KernelProfile clean = build(4);     // conflict free
    KernelProfile dirty = build(128);   // 32-way conflicts
    EXPECT_EQ(clean.totals.sharedReplaySlots, 0u);
    EXPECT_EQ(dirty.totals.sharedReplaySlots, 8u * 31);
    DeviceConfig cfg;
    EXPECT_GT(computeKernelCost(dirty, cfg).deviceSeconds,
              computeKernelCost(clean, cfg).deviceSeconds);
}

// Regression: the segment scratch buffer used to be a fixed
// std::array<uint64_t, 128> that silently dropped segments beyond its
// capacity, under-counting transactions for wide bulk accesses. The
// count must be exact for any number of distinct segments.
TEST(Coalescer, MoreThan128DistinctSegmentsAreAllCounted)
{
    std::vector<uint64_t> addrs;
    for (uint64_t i = 0; i < 256; ++i)
        addrs.push_back(i * 128);
    EXPECT_EQ(coalesceTransactions(addrs, 4, 128), 256u);
}

TEST(Coalescer, StraddlingAccessesBeyondCapSpillExactly)
{
    // 100 accesses, each straddling a 128 B boundary: 200 distinct
    // segments, beyond the old 128-entry cap.
    std::vector<uint64_t> addrs;
    for (uint64_t i = 0; i < 100; ++i)
        addrs.push_back(i * 256 + 126);
    EXPECT_EQ(coalesceTransactions(addrs, 4, 128), 200u);
}

TEST(Coalescer, WideWarpModelExceedsOldSegmentCap)
{
    // A 256-wide warp model with 200 lanes each touching its own
    // segment: one warp-level access must produce one transaction per
    // lane. With the old 128-entry scratch array the access-level
    // count clamped at 128 (and the 64-entry lane buffers clamped
    // earlier still).
    std::vector<ThreadTrace> traces;
    for (uint64_t l = 0; l < 200; ++l) {
        ThreadTrace t;
        RecordingTracer rec(t);
        rec.block(1, 10);
        rec.load(l * 128, 1, 0, 4);
        traces.push_back(std::move(t));
    }
    auto p = ptrs(traces);
    WarpModel model;
    model.warpWidth = 256;
    WarpStats ws = simulateWarp(p, model);
    EXPECT_EQ(ws.globalTransactions, 200u);
}

// Regression: sharedBankReplays sorted same-bank addresses into a fixed
// std::array<uint64_t, 64>, silently dropping distinct addresses beyond
// 64 and under-counting replays.
TEST(SharedBanks, MoreThan64DistinctSameBankAddressesAllReplay)
{
    // 70 distinct addresses, all in bank 0 (addr/4 % 32 == 0): replays
    // are distinct-count minus one. The old cap reported 63.
    std::vector<uint64_t> addrs;
    for (uint64_t i = 0; i < 70; ++i)
        addrs.push_back(i * 128);
    EXPECT_EQ(sharedBankReplays(addrs), 69u);
}

TEST(SharedBanks, DuplicatesBeyondCapStillBroadcast)
{
    // 80 same-bank accesses but only 66 distinct addresses: broadcast
    // dedup must survive the spill path.
    std::vector<uint64_t> addrs;
    for (uint64_t i = 0; i < 66; ++i)
        addrs.push_back(i * 128);
    for (uint64_t i = 0; i < 14; ++i)
        addrs.push_back(i * 128);
    EXPECT_EQ(sharedBankReplays(addrs), 65u);
}

// ---- Coalescer against a reference ---------------------------------
//
// simulateWarp() sorts a bulk op's lanes once, merges their byte
// intervals into runs and counts every element's segments in closed
// form (a floor sum per run end). The reference below is the
// straightforward algorithm: every element on its own, every active
// lane's segment ids materialized, sorted and deduplicated.

/** One lane's bulk global access in a coalescer test group. */
struct BulkLane
{
    uint64_t addr = 0;
    uint32_t count = 1;
    uint32_t stride = 0;
    uint16_t width = 4;
};

/**
 * Reference transaction count of @p group: per element, the distinct
 * segment ids of the active lanes. An element access has one width, the
 * last active lane's.
 */
uint64_t
referenceTransactions(const std::vector<BulkLane> &group,
                      uint32_t segment_bytes)
{
    uint32_t max_count = 0;
    for (const BulkLane &lane : group)
        max_count = std::max(max_count, lane.count);
    uint64_t total = 0;
    std::vector<uint64_t> segments;
    for (uint32_t i = 0; i < max_count; ++i) {
        uint16_t width = 4;
        for (const BulkLane &lane : group) {
            if (i < lane.count)
                width = lane.width;
        }
        segments.clear();
        for (const BulkLane &lane : group) {
            if (i >= lane.count)
                continue;
            const uint64_t addr =
                lane.addr + static_cast<uint64_t>(i) * lane.stride;
            for (uint64_t seg = addr / segment_bytes;
                 seg <= (addr + width - 1) / segment_bytes; ++seg)
                segments.push_back(seg);
        }
        std::sort(segments.begin(), segments.end());
        total += static_cast<uint64_t>(
            std::unique(segments.begin(), segments.end()) -
            segments.begin());
    }
    return total;
}

/** simulateWarp()'s transaction count for @p group issued as one warp. */
uint64_t
simulatedTransactions(const std::vector<BulkLane> &group,
                      uint32_t segment_bytes)
{
    std::vector<ThreadTrace> traces(group.size());
    for (size_t l = 0; l < group.size(); ++l) {
        RecordingTracer rec(traces[l]);
        rec.block(1, 1);
        rec.load(group[l].addr, group[l].count, group[l].stride,
                 group[l].width);
    }
    auto p = ptrs(traces);
    WarpModel model;
    model.warpWidth = static_cast<int>(group.size());
    model.segmentBytes = segment_bytes;
    return simulateWarp(p, model).globalTransactions;
}

/** Lanes at base + l * spacing, all sharing count, stride and width. */
std::vector<BulkLane>
uniformGroup(size_t lanes, uint64_t base, uint64_t spacing, uint32_t count,
             uint32_t stride, uint16_t width)
{
    std::vector<BulkLane> group(lanes);
    for (size_t l = 0; l < lanes; ++l)
        group[l] = BulkLane{base + l * spacing, count, stride, width};
    return group;
}

// The two shapes the old sampled extrapolation (ops past 4096 elements)
// got wrong: it scaled a 128-element window, which is not a whole number
// of periods in general.
TEST(Coalescer, StrideFourPastOldLimitIsExact)
{
    // 32 lanes cover [4i, 4i + 128): one segment when 4i is aligned
    // (every 32nd element), else two. 4097 = 128 periods of 63 plus one
    // aligned element. The sampled path gave 8066.
    const auto group = uniformGroup(32, 0, 4, 4097, 4, 4);
    EXPECT_EQ(referenceTransactions(group, 128), 8065u);
    EXPECT_EQ(simulatedTransactions(group, 128), 8065u);
}

TEST(Coalescer, StrideHundredOn96ByteSegmentsIsExact)
{
    // Period 96 / gcd(100 mod 96, 96) = 24 elements, which the sampled
    // 128-element window did not divide. The sampled path gave 11368.
    const auto group = uniformGroup(32, 0, 4, 5000, 100, 4);
    EXPECT_EQ(referenceTransactions(group, 96), 11456u);
    EXPECT_EQ(simulatedTransactions(group, 96), 11456u);
}

TEST(Coalescer, MatchesReferenceAcrossSegmentsStridesAndWidths)
{
    // Every segment size against stride classes (zero, below, straddling
    // and multiples of the segment) and widths (sub-word to
    // multi-segment); 300 elements cover a full period (at most 256)
    // plus a tail.
    for (uint32_t seg : {32u, 96u, 128u, 256u}) {
        for (uint32_t stride : {0u, 1u, 4u, 100u, 511u, 600u, seg, 4 * seg}) {
            for (uint16_t width : {1, 4, 70, 300}) {
                const auto group =
                    uniformGroup(32, 1000, width, 300, stride, width);
                EXPECT_EQ(simulatedTransactions(group, seg),
                          referenceTransactions(group, seg))
                    << "segment " << seg << " stride " << stride
                    << " width " << width;
            }
        }
    }
}

TEST(Coalescer, RunsSharingASegmentAcrossAGapCountOnce)
{
    // Lanes at 0 and 64 are two runs 61 bytes apart. Element i offsets
    // both by 32i: elements 0 and 1 keep them in segment 0 (one
    // transaction each), elements 2 and 3 put a boundary between them
    // (two each).
    const std::vector<BulkLane> group = {{0, 4, 32, 4}, {64, 4, 32, 4}};
    EXPECT_EQ(referenceTransactions(group, 128), 6u);
    EXPECT_EQ(simulatedTransactions(group, 128), 6u);
}

TEST(Coalescer, PieceOffsetPastFourGigabytesIsExact)
{
    // Store replay into a transposed 4096-lane buffer: stride 16 KiB.
    // The last piece holds lane 0 alone from element 299,999, whose
    // offset lo × stride is past 2^32. On 96-byte segments its 4-byte
    // store straddles a boundary at the true offset; a product taken
    // mod 2^32 is 2^32 short, which moves the store 32 bytes along the
    // segment, off the boundary, and counts one segment.
    const uint64_t base = (1ull << 32) + 93;
    const std::vector<BulkLane> group = {{base, 300000, 16384, 4},
                                         {base + 4, 299999, 16384, 4}};
    EXPECT_EQ(referenceTransactions(group, 128), 300000u);
    EXPECT_EQ(simulatedTransactions(group, 128), 300000u);
    const std::vector<BulkLane> last = {{base + 299999ull * 16384, 1, 0, 4}};
    EXPECT_EQ(referenceTransactions(last, 96), 2u);
    EXPECT_EQ(simulatedTransactions(group, 96),
              referenceTransactions(group, 96));
}

// Random groups: uniform and mixed counts, shared and mixed strides and
// widths, counts past the old 4096-element limit and warps past the
// 64-lane inline buffers.
class CoalescerReferenceProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CoalescerReferenceProperty, SimulatedMatchesReference)
{
    rhythm::Rng rng(GetParam());
    const uint32_t kSegments[] = {32, 96, 128, 256};
    auto draw_stride = [&](uint32_t seg) -> uint32_t {
        const uint64_t pick = rng.nextBounded(10);
        if (pick == 0)
            return 0;
        if (pick < 7)
            return static_cast<uint32_t>(rng.nextRange(1, 600));
        return seg * static_cast<uint32_t>(rng.nextRange(1, 6));
    };
    auto draw_width = [&]() -> uint16_t {
        return static_cast<uint16_t>(rng.nextBool(0.5)
                                         ? rng.nextRange(1, 16)
                                         : rng.nextRange(1, 300));
    };
    for (int g = 0; g < 12; ++g) {
        const uint32_t seg = kSegments[rng.nextBounded(4)];
        const int kind = g % 6;
        size_t lanes = static_cast<size_t>(rng.nextRange(1, 32));
        if (kind == 4)
            lanes = static_cast<size_t>(rng.nextRange(1, 8));
        if (kind == 5)
            lanes = static_cast<size_t>(rng.nextRange(65, 256));
        const uint32_t stride = draw_stride(seg);
        const uint16_t width =
            kind == 4 ? static_cast<uint16_t>(rng.nextRange(1, 16))
                      : draw_width();
        // Keep the reference's per-group work near 150k segment ids.
        const uint64_t per_element = lanes * (width / seg + 2);
        const uint32_t count_cap = static_cast<uint32_t>(
            std::clamp<uint64_t>(150000 / per_element, 1, 10000));
        const uint32_t count =
            kind == 4 ? static_cast<uint32_t>(rng.nextRange(4097, 10000))
                      : static_cast<uint32_t>(rng.nextRange(1, count_cap));
        // Transposed (lane-contiguous), row-major or scattered bases;
        // scattered ones may collide.
        const uint64_t spacing_pick = rng.nextBounded(3);
        const uint64_t base = rng.nextBounded(1u << 20);
        std::vector<BulkLane> group(lanes);
        for (size_t l = 0; l < lanes; ++l) {
            BulkLane &lane = group[l];
            lane.addr = spacing_pick == 0   ? base + l * width
                        : spacing_pick == 1 ? base + l * 4096
                                            : rng.nextBounded(1u << 16);
            lane.count = count;
            lane.stride = stride;
            lane.width = width;
            if (kind == 2 || kind == 3)
                lane.count = static_cast<uint32_t>(rng.nextRange(1, count));
            if (kind == 3) {
                lane.stride = draw_stride(seg);
                lane.width = draw_width();
            }
        }
        EXPECT_EQ(simulatedTransactions(group, seg),
                  referenceTransactions(group, seg))
            << "group " << g << " kind " << kind << " lanes " << lanes
            << " segment " << seg << " count " << count;
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, CoalescerReferenceProperty,
                         ::testing::Range<uint64_t>(1, 17));

// The shape of CohortBuffer::finalizeStores() on a transposed buffer of
// n lanes: a subset of the lanes stores 4-byte words from byte offset
// off of its buffer, at base + (off / 4) · 4n + 4l + off % 4 with stride
// 4n. An odd n makes the period 32 elements; an unaligned off makes
// neighbouring lanes' words overlap, so they merge into runs.
class StoreReplayCoalescerProperty
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(StoreReplayCoalescerProperty, SimulatedMatchesReference)
{
    rhythm::Rng rng(GetParam());
    const uint32_t kSegments[] = {32, 96, 128, 256};
    for (int g = 0; g < 8; ++g) {
        const uint32_t seg = kSegments[rng.nextBounded(4)];
        const uint32_t n = static_cast<uint32_t>(rng.nextRange(1, 4096));
        const uint64_t base = (1ull << 32) + rng.nextBounded(1u << 24);
        const size_t lanes = static_cast<size_t>(
            rng.nextRange(1, std::min<int64_t>(n, 48)));
        const bool shared_off = rng.nextBool(0.5);
        const bool shared_count = rng.nextBool(0.5);
        const uint32_t count =
            static_cast<uint32_t>(rng.nextRange(1, 10000));
        auto draw_off = [&] {
            return 4 * rng.nextBounded(64) +
                   static_cast<uint64_t>(rng.nextRange(1, 3));
        };
        const uint64_t off = draw_off();
        // A random subset of the n lanes, in lane order.
        std::vector<uint32_t> subset;
        for (uint32_t l = 0; l < n && subset.size() < lanes; ++l) {
            if (rng.nextBounded(n - l) < lanes - subset.size())
                subset.push_back(l);
        }
        std::vector<BulkLane> group;
        for (uint32_t l : subset) {
            const uint64_t o = shared_off ? off : draw_off();
            group.push_back(BulkLane{
                base + o / 4 * 4ull * n + 4ull * l + o % 4,
                shared_count ? count
                             : static_cast<uint32_t>(rng.nextRange(1, count)),
                4 * n, 4});
        }
        EXPECT_EQ(simulatedTransactions(group, seg),
                  referenceTransactions(group, seg))
            << "group " << g << " n " << n << " lanes " << group.size()
            << " segment " << seg << " count " << count;
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, StoreReplayCoalescerProperty,
                         ::testing::Range<uint64_t>(1, 17));

// ---- Lockstep scheduler against a reference ------------------------
//
// simulateWarp() numbers a warp's block ids densely and keeps the
// per-lane window counts and per-block holder counts in flat arrays,
// making one pass over the lanes per step. The reference below is the
// scheduler it replaced: a hash-map window per lane, every candidate's
// lanes counted by a full scan and "another lane will reach it" probed
// in every other lane's window.

/**
 * The memory side of one reference step: the ops @p group issues at its
 * current blocks. simulateWarp() of a one-block warp built from those
 * blocks runs one step over every lane in lane order, so its memory
 * counters are exactly the coalescer's for this group.
 */
WarpStats
groupMemoryStats(std::span<const ThreadTrace *const> lanes,
                 const std::vector<size_t> &group,
                 const std::vector<size_t> &pos, const WarpModel &model)
{
    std::vector<ThreadTrace> step(group.size());
    for (size_t g = 0; g < group.size(); ++g) {
        const ThreadTrace &t = *lanes[group[g]];
        const BlockExec &be = t.blocks[pos[group[g]]];
        step[g].blocks.push_back(
            BlockExec{be.blockId, be.instructions, 0, be.memCount});
        step[g].memOps.assign(t.memOps.begin() + be.memBegin,
                              t.memOps.begin() + be.memBegin + be.memCount);
    }
    auto p = ptrs(step);
    const WarpStats all = simulateWarp(p, model);
    WarpStats mem;
    mem.globalTransactions = all.globalTransactions;
    mem.globalBytes = all.globalBytes;
    mem.sharedAccesses = all.sharedAccesses;
    mem.sharedReplaySlots = all.sharedReplaySlots;
    mem.constantAccesses = all.constantAccesses;
    return mem;
}

/** The replaced scheduler; memory ops are coalesced when @p mem_ops. */
WarpStats
referenceWarp(std::span<const ThreadTrace *const> lanes,
              const WarpModel &model, bool mem_ops)
{
    WarpStats stats;
    const size_t n = lanes.size();
    std::vector<size_t> pos(n, 0);
    std::vector<size_t> group;
    for (size_t l = 0; l < n; ++l) {
        if (lanes[l]) {
            stats.laneBlockExecs += lanes[l]->blocks.size();
            stats.laneInstructions += lanes[l]->totalInstructions();
        }
    }
    // Multiset of block ids at trace entries [pos+1, pos+window].
    const size_t window = model.reconvergenceWindow;
    std::vector<std::unordered_map<uint32_t, uint32_t>> future(n);
    for (size_t l = 0; l < n; ++l) {
        if (!lanes[l])
            continue;
        const size_t limit = std::min(lanes[l]->blocks.size(), 1 + window);
        for (size_t k = 1; k < limit; ++k)
            ++future[l][lanes[l]->blocks[k].blockId];
    }
    auto advance_lane = [&](size_t l) {
        const size_t p = pos[l];
        const auto &blocks = lanes[l]->blocks;
        if (p + 1 < blocks.size()) {
            auto it = future[l].find(blocks[p + 1].blockId);
            if (it != future[l].end() && --it->second == 0)
                future[l].erase(it);
        }
        if (p + 1 + window < blocks.size())
            ++future[l][blocks[p + 1 + window].blockId];
        pos[l] = p + 1;
    };
    auto at = [&](size_t l) -> const BlockExec * {
        if (!lanes[l] || pos[l] >= lanes[l]->blocks.size())
            return nullptr;
        return &lanes[l]->blocks[pos[l]];
    };
    auto shared_in_future = [&](uint32_t id) {
        for (size_t m = 0; m < n; ++m) {
            if (at(m) && at(m)->blockId != id && future[m].contains(id))
                return true;
        }
        return false;
    };
    for (;;) {
        uint32_t best_id = 0;
        size_t best_count = 0;
        bool best_shared = true;
        bool best_valid = false;
        for (size_t l = 0; l < n; ++l) {
            if (!at(l))
                continue;
            const uint32_t id = at(l)->blockId;
            size_t count = 0;
            for (size_t m = 0; m < n; ++m)
                count += at(m) && at(m)->blockId == id;
            const bool shared = shared_in_future(id);
            bool better = !best_valid;
            if (best_valid && shared != best_shared)
                better = !shared;
            else if (best_valid && count != best_count)
                better = count > best_count;
            else if (best_valid)
                better = id < best_id;
            if (better) {
                best_count = count;
                best_id = id;
                best_shared = shared;
                best_valid = true;
            }
        }
        if (!best_valid)
            break;
        group.clear();
        uint32_t max_insts = 0;
        for (size_t l = 0; l < n; ++l) {
            if (at(l) && at(l)->blockId == best_id) {
                group.push_back(l);
                max_insts = std::max(max_insts, at(l)->instructions);
            }
        }
        stats.issueSlots += max_insts;
        stats.steps += 1;
        stats.activeLaneSteps += group.size();
        if (mem_ops)
            stats.merge(groupMemoryStats(lanes, group, pos, model));
        for (size_t l : group)
            advance_lane(l);
    }
    return stats;
}

// Random warps: partial and full warps of width 32 and 256, null lanes
// and empty traces, small dense or sparse 32-bit block ids, lanes that
// follow one program with divergent branches and loop trip counts, and
// per-block memory ops of every space with shapes that differ between
// lanes. Every reconvergence window the model treats specially.
class WarpSchedulerReferenceProperty
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(WarpSchedulerReferenceProperty, MatchesReferenceScheduler)
{
    rhythm::Rng rng(GetParam());
    for (int w = 0; w < 10; ++w) {
        WarpModel model;
        model.warpWidth = rng.nextBool(0.3) ? 256 : 32;
        const uint32_t kWindows[] = {0, 1, 2, 4, 512};
        model.reconvergenceWindow = kWindows[rng.nextBounded(5)];
        model.segmentBytes = rng.nextBool(0.5) ? 128 : 32;

        // Block ids: dense small, or sparse across the 32-bit range.
        const size_t num_ids = static_cast<size_t>(rng.nextRange(1, 24));
        const bool sparse = rng.nextBool(0.5);
        std::vector<uint32_t> ids(num_ids);
        for (uint32_t &id : ids)
            id = sparse ? static_cast<uint32_t>(rng.next())
                        : static_cast<uint32_t>(rng.nextRange(0, 30));
        if (sparse && rng.nextBool(0.3))
            ids[0] = UINT32_MAX;
        // One program of straight runs and loops (a body of ids
        // repeated); each lane runs it with branch and trip-count
        // divergence.
        struct Segment
        {
            std::vector<uint32_t> body;
            uint32_t trips = 1;
        };
        std::vector<Segment> program(
            static_cast<size_t>(rng.nextRange(1, 12)));
        for (Segment &seg : program) {
            seg.body.resize(static_cast<size_t>(rng.nextRange(1, 4)));
            for (uint32_t &id : seg.body)
                id = ids[rng.nextBounded(num_ids)];
            seg.trips = rng.nextBool(0.4)
                            ? static_cast<uint32_t>(rng.nextRange(2, 12))
                            : 1;
        }
        auto memop = [&](RecordingTracer &rec) {
            const uint64_t pick = rng.nextBounded(10);
            const MemSpace space = pick < 7   ? MemSpace::Global
                                   : pick < 9 ? MemSpace::Shared
                                              : MemSpace::Constant;
            const uint64_t addr = rng.nextBounded(1u << 14);
            const uint32_t count =
                static_cast<uint32_t>(rng.nextRange(1, 40));
            const uint32_t stride =
                rng.nextBool(0.5) ? 4
                                  : static_cast<uint32_t>(rng.nextRange(0, 300));
            const uint16_t width = rng.nextBool(0.6)
                                       ? 4
                                       : static_cast<uint16_t>(
                                             rng.nextRange(1, 64));
            if (rng.nextBool(0.5))
                rec.load(addr, count, stride, width, space);
            else
                rec.store(addr, count, stride, width, space);
        };

        const size_t lanes_n = static_cast<size_t>(
            rng.nextRange(0, static_cast<uint64_t>(model.warpWidth)));
        std::vector<ThreadTrace> traces(lanes_n);
        std::vector<const ThreadTrace *> lanes(lanes_n, nullptr);
        const double diverge = rng.nextBool(0.5) ? 0.05 : 0.3;
        for (size_t l = 0; l < lanes_n; ++l) {
            if (rng.nextBool(0.1))
                continue; // null lane
            lanes[l] = &traces[l];
            if (rng.nextBool(0.05))
                continue; // empty trace
            RecordingTracer rec(traces[l]);
            for (const Segment &seg : program) {
                if (rng.nextBool(diverge))
                    continue; // branch not taken
                uint32_t trips = seg.trips;
                if (trips > 1 && rng.nextBool(diverge))
                    trips = static_cast<uint32_t>(rng.nextRange(1, 14));
                for (uint32_t t = 0; t < trips; ++t) {
                    for (uint32_t id : seg.body) {
                        const uint32_t block = rng.nextBool(diverge / 2)
                                                   ? ids[rng.nextBounded(num_ids)]
                                                   : id;
                        rec.block(block,
                                  static_cast<uint32_t>(rng.nextRange(1, 40)));
                        const uint64_t ops = rng.nextBounded(4);
                        for (uint64_t k = 0; k < ops; ++k)
                            memop(rec);
                    }
                }
            }
        }
        const std::span<const ThreadTrace *const> span(lanes);
        EXPECT_EQ(simulateWarp(span, model), referenceWarp(span, model, true))
            << "warp " << w << " width " << model.warpWidth << " window "
            << model.reconvergenceWindow << " lanes " << lanes_n;
        EXPECT_EQ(mergeBlockSchedule(span, model),
                  referenceWarp(span, model, false))
            << "warp " << w << " width " << model.warpWidth << " window "
            << model.reconvergenceWindow << " lanes " << lanes_n;
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, WarpSchedulerReferenceProperty,
                         ::testing::Range<uint64_t>(1, 25));

} // namespace
} // namespace rhythm::simt
