/**
 * @file
 * Warp-level lockstep execution of thread traces.
 *
 * This is the heart of the SIMT substrate: given the per-thread traces of
 * up to warpWidth requests, simulateWarp() merges them in lockstep the way
 * SIMT hardware would — threads positioned at the same basic block execute
 * together under one instruction fetch, divergent subsets serialize, and
 * every warp-level memory access is decomposed into 128-byte DRAM
 * transactions by the coalescer. Identical traces therefore yield linear
 * speedup (the paper's Figure 2 observation) and divergent traces degrade
 * smoothly toward serial execution.
 */

#ifndef RHYTHM_SIMT_WARP_HH
#define RHYTHM_SIMT_WARP_HH

#include <cstdint>
#include <span>

#include "simt/trace.hh"

namespace rhythm::simt {

/** Aggregate execution statistics for one warp (or a sum over warps). */
struct WarpStats
{
    /** Warp-instruction issue slots consumed (serialized execution cost). */
    uint64_t issueSlots = 0;
    /** Sum of all lanes' dynamic instructions (useful work). */
    uint64_t laneInstructions = 0;
    /** Merged basic-block execution steps. */
    uint64_t steps = 0;
    /** Sum of per-lane trace lengths (block executions). */
    uint64_t laneBlockExecs = 0;
    /** Sum over steps of the number of lanes active in that step. */
    uint64_t activeLaneSteps = 0;
    /** 128-byte DRAM transactions issued by the coalescer. */
    uint64_t globalTransactions = 0;
    /** Useful global-memory bytes (sum of count × width). */
    uint64_t globalBytes = 0;
    /** Shared-memory accesses (element granularity). */
    uint64_t sharedAccesses = 0;
    /**
     * Extra issue slots consumed replaying shared-memory bank
     * conflicts (32 4-byte banks, same-address broadcast is free).
     */
    uint64_t sharedReplaySlots = 0;
    /** Constant-memory accesses (element granularity). */
    uint64_t constantAccesses = 0;

    /**
     * Field-wise equality. All fields are integers, so equality is
     * exact — the parallel engine's equivalence tests rely on this.
     */
    bool operator==(const WarpStats &) const = default;

    /** Accumulates another stats record into this one. */
    void merge(const WarpStats &other);

    /**
     * SIMD efficiency: useful lane instructions over issued slot-lanes.
     * 1.0 means every issue slot had all @p warp_width lanes doing useful
     * work; 1/warp_width means fully serialized execution.
     */
    double simdEfficiency(int warp_width) const;

    /** DRAM bytes actually moved (transactions × segment size). */
    uint64_t movedBytes(uint32_t segment_bytes = 128) const;

    /** Fraction of moved DRAM bytes that were useful (0 when none). */
    double coalescingEfficiency(uint32_t segment_bytes = 128) const;
};

/** Tuning knobs for the warp model. */
struct WarpModel
{
    int warpWidth = 32;
    uint32_t segmentBytes = 128;
    /**
     * Lookahead window (trace entries) used to detect reconvergence:
     * a front block that reappears in another lane's next @c
     * reconvergenceWindow entries is deferred so the lanes can rejoin,
     * approximating stack-based reconvergence on structured control
     * flow.
     */
    uint32_t reconvergenceWindow = 512;
};

/**
 * Executes one warp of thread traces in lockstep.
 *
 * Scheduling policy: at each step the scheduler selects, among the basic
 * blocks at the front of each unfinished lane, the block shared by the
 * most lanes (ties broken by smallest block id) and executes it for that
 * subset; this models stack-based reconvergence closely for structured
 * control flow and is deterministic.
 *
 * @param lanes Traces of the warp's threads; at most model.warpWidth,
 *        fewer for a partial warp. Null entries are permitted and denote
 *        inactive lanes.
 * @param model Warp model parameters.
 */
WarpStats simulateWarp(std::span<const ThreadTrace *const> lanes,
                       const WarpModel &model = WarpModel{});

/**
 * Block-schedule-only variant of simulateWarp(): runs the identical
 * lockstep scheduler but skips memory-op coalescing, so only the
 * control-flow fields (issueSlots, laneInstructions, steps,
 * laneBlockExecs, activeLaneSteps) are produced; all memory counters
 * stay zero. Because the scheduler never consults memOps, those five
 * fields are bit-equal to simulateWarp()'s on the same lanes — which
 * is what lets the online similarity fingerprint (src/analysis) stay
 * off the coalescer's cost on the dispatch path.
 */
WarpStats mergeBlockSchedule(std::span<const ThreadTrace *const> lanes,
                             const WarpModel &model = WarpModel{});

/**
 * Counts the distinct segments touched by one warp-level element access:
 * the addresses are sorted and the accesses' segment intervals merged in
 * one linear pass. simulateWarp() counts the elements of a bulk op this
 * way when its lanes differ in stride or width. Lanes sharing both are
 * sorted once per op, merged into runs of touching intervals and
 * counted over all elements in closed form, a floor sum per run end
 * (docs/SIMULATOR.md, "Memory system").
 *
 * Exposed for unit testing of the coalescer.
 *
 * @param addrs Per-active-lane byte addresses.
 * @param width Access width in bytes.
 * @param segment_bytes Transaction segment size.
 */
uint32_t coalesceTransactions(std::span<const uint64_t> addrs, uint16_t width,
                              uint32_t segment_bytes);

/**
 * Computes the replay count of one warp-level shared-memory access:
 * the worst bank's number of *distinct* addresses minus one (identical
 * addresses broadcast for free). 32 banks, 4-byte interleave.
 *
 * Exposed for unit testing of the bank-conflict model.
 */
uint32_t sharedBankReplays(std::span<const uint64_t> addrs);

} // namespace rhythm::simt

#endif // RHYTHM_SIMT_WARP_HH
