#include "simt/warp.hh"

#include <algorithm>
#include <array>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "util/logging.hh"

namespace rhythm::simt {
namespace {

/**
 * Scratch array sized to one warp-level access: inline for up to 64
 * lanes (the hot path stays allocation-free), on the heap beyond, so
 * warp models wider than the inline capacity stay exact.
 */
template <typename T>
class LaneScratch
{
  public:
    explicit LaneScratch(size_t n)
    {
        if (n > inline_.size())
            heap_.resize(n);
    }

    T *data() { return heap_.empty() ? inline_.data() : heap_.data(); }

  private:
    std::array<T, 64> inline_;
    std::vector<T> heap_;
};

/**
 * Counts the distinct segments touched by accesses of @p width bytes at
 * `sorted[k] + offset`, with @p sorted ascending. Sharing one width, the
 * accesses' first and last segments are both non-decreasing along the
 * span, so one linear interval-union pass counts the union exactly:
 * no segment ids are materialized or sorted.
 */
uint64_t
countSegments(std::span<const uint64_t> sorted, uint64_t offset,
              uint16_t width, uint32_t segment_bytes)
{
    uint64_t count = 0;
    uint64_t next = 0; // lowest segment not yet counted
    for (uint64_t base : sorted) {
        const uint64_t addr = base + offset;
        const uint64_t first = std::max(addr / segment_bytes, next);
        const uint64_t last = (addr + width - 1) / segment_bytes;
        if (last >= first) {
            count += last - first + 1;
            next = last + 1;
        }
    }
    return count;
}

/**
 * Sums countSegments() over elements [lo, hi) of lanes that share
 * @p stride and @p width (element i adds i × stride to every base in
 * @p sorted). With P = segment / gcd(stride mod segment, segment),
 * P × stride is a whole number of segments: element i + P is element i
 * translated by whole segments and touches as many. So one period is
 * evaluated and multiplied out, plus the tail — exact for any stride,
 * and a single element for segment-multiple strides (P = 1).
 */
uint64_t
stridedSegments(std::span<const uint64_t> sorted, uint32_t lo, uint32_t hi,
                uint32_t stride, uint16_t width, uint32_t segment_bytes)
{
    const uint64_t period =
        segment_bytes / std::gcd(stride % segment_bytes, segment_bytes);
    const uint64_t n = hi - lo;
    const uint64_t tail = n % period;
    uint64_t period_sum = 0;
    uint64_t tail_sum = 0;
    for (uint64_t k = 0; k < std::min(n, period); ++k) {
        if (k == tail)
            tail_sum = period_sum;
        period_sum += countSegments(sorted, (lo + k) * stride, width,
                                    segment_bytes);
    }
    if (n < period)
        return period_sum;
    return n / period * period_sum + tail_sum;
}

} // namespace

void
WarpStats::merge(const WarpStats &other)
{
    issueSlots += other.issueSlots;
    laneInstructions += other.laneInstructions;
    steps += other.steps;
    laneBlockExecs += other.laneBlockExecs;
    activeLaneSteps += other.activeLaneSteps;
    globalTransactions += other.globalTransactions;
    globalBytes += other.globalBytes;
    sharedAccesses += other.sharedAccesses;
    sharedReplaySlots += other.sharedReplaySlots;
    constantAccesses += other.constantAccesses;
}

double
WarpStats::simdEfficiency(int warp_width) const
{
    if (issueSlots == 0)
        return 0.0;
    return static_cast<double>(laneInstructions) /
           (static_cast<double>(issueSlots) * warp_width);
}

uint64_t
WarpStats::movedBytes(uint32_t segment_bytes) const
{
    return globalTransactions * segment_bytes;
}

double
WarpStats::coalescingEfficiency(uint32_t segment_bytes) const
{
    const uint64_t moved = movedBytes(segment_bytes);
    if (moved == 0)
        return 0.0;
    return static_cast<double>(globalBytes) / static_cast<double>(moved);
}

uint32_t
coalesceTransactions(std::span<const uint64_t> addrs, uint16_t width,
                     uint32_t segment_bytes)
{
    RHYTHM_ASSERT(segment_bytes > 0);
    LaneScratch<uint64_t> scratch(addrs.size());
    uint64_t *sorted = scratch.data();
    std::copy(addrs.begin(), addrs.end(), sorted);
    std::sort(sorted, sorted + addrs.size());
    return static_cast<uint32_t>(
        countSegments(std::span<const uint64_t>(sorted, addrs.size()), 0,
                      width, segment_bytes));
}

uint32_t
sharedBankReplays(std::span<const uint64_t> addrs)
{
    // Count distinct addresses per bank; replays = worst bank - 1.
    LaneScratch<uint64_t> scratch(addrs.size());
    uint64_t *sorted = scratch.data();
    std::copy(addrs.begin(), addrs.end(), sorted);
    std::sort(sorted, sorted + addrs.size());
    uint64_t *const end = std::unique(sorted, sorted + addrs.size());

    std::array<uint32_t, 32> bank_counts{};
    uint32_t worst = 1;
    for (const uint64_t *it = sorted; it != end; ++it) {
        const uint32_t bank = static_cast<uint32_t>((*it / 4) % 32);
        worst = std::max(worst, ++bank_counts[bank]);
    }
    return worst - 1;
}

namespace {

/**
 * Coalesces one aligned group memory operation: the lanes in @p group all
 * issued the MemOp at the same program point. Element i of lane l touches
 * address op.addr + i * op.stride; the coalescer merges lanes at each
 * element index. No inter-element DRAM reuse is assumed (Kepler-style
 * uncached global accesses), which is precisely what makes the row-major
 * layout expensive and motivates the buffer transpose (Section 4.3.2).
 */
void
coalesceGroupOp(std::span<const MemOp *const> ops, const WarpModel &model,
                WarpStats &stats)
{
    // Non-global spaces have no DRAM traffic; account and return.
    const MemSpace space = ops[0]->space;
    bool uniform_space = true;
    for (const MemOp *op : ops) {
        if (op->space != space)
            uniform_space = false;
    }

    if (uniform_space && space == MemSpace::Shared) {
        uint32_t max_count = 0;
        for (const MemOp *op : ops) {
            stats.sharedAccesses += op->count;
            max_count = std::max(max_count, op->count);
        }
        // Bank conflicts serialize the access into replays.
        LaneScratch<uint64_t> scratch(ops.size());
        uint64_t *addrs = scratch.data();
        for (uint32_t i = 0; i < max_count; ++i) {
            size_t n = 0;
            for (const MemOp *op : ops) {
                if (i < op->count)
                    addrs[n++] = op->addr +
                                 static_cast<uint64_t>(i) * op->stride;
            }
            stats.sharedReplaySlots += sharedBankReplays(
                std::span<const uint64_t>(addrs, n));
        }
        return;
    }
    if (uniform_space && space == MemSpace::Constant) {
        for (const MemOp *op : ops)
            stats.constantAccesses += op->count;
        return;
    }

    // The global lanes of the group; in a mixed-space group the others
    // move no DRAM bytes.
    uint32_t max_count = 0;
    size_t lanes = 0;
    const MemOp *first = nullptr;
    bool same_shape = true; // one stride and one width across the lanes
    for (const MemOp *op : ops) {
        if (op->space != MemSpace::Global)
            continue;
        stats.globalBytes += static_cast<uint64_t>(op->count) * op->width;
        max_count = std::max(max_count, op->count);
        if (!first)
            first = op;
        same_shape = same_shape && op->stride == first->stride &&
                     op->width == first->width;
        ++lanes;
    }
    if (max_count == 0)
        return;
    const uint32_t segment = model.segmentBytes;
    RHYTHM_ASSERT(segment > 0);
    LaneScratch<uint64_t> scratch(lanes);
    uint64_t *addrs = scratch.data();

    if (same_shape) {
        // Every element adds the same offset to every lane, so the
        // lanes' address order holds at every element: sort them once.
        // Between count boundaries the active lanes are fixed, and each
        // such piece is evaluated in closed form.
        struct Lane
        {
            uint64_t addr;
            uint32_t count;
        };
        LaneScratch<Lane> lane_scratch(lanes);
        Lane *by_addr = lane_scratch.data();
        size_t k = 0;
        for (const MemOp *op : ops) {
            if (op->space == MemSpace::Global)
                by_addr[k++] = Lane{op->addr, op->count};
        }
        std::sort(by_addr, by_addr + lanes,
                  [](const Lane &a, const Lane &b) { return a.addr < b.addr; });
        for (uint32_t lo = 0; lo < max_count;) {
            uint32_t hi = max_count;
            size_t n = 0;
            for (size_t l = 0; l < lanes; ++l) {
                if (by_addr[l].count > lo) {
                    addrs[n++] = by_addr[l].addr;
                    hi = std::min(hi, by_addr[l].count);
                }
            }
            stats.globalTransactions += stridedSegments(
                std::span<const uint64_t>(addrs, n), lo, hi, first->stride,
                first->width, segment);
            lo = hi;
        }
        return;
    }

    // Lanes differ in stride or width, so their address order can change
    // from element to element: sort each element on its own. An element
    // access has one width, the last active lane's.
    for (uint32_t i = 0; i < max_count; ++i) {
        size_t n = 0;
        uint16_t width = 4;
        for (const MemOp *op : ops) {
            if (op->space == MemSpace::Global && i < op->count) {
                addrs[n++] = op->addr + static_cast<uint64_t>(i) * op->stride;
                width = op->width;
            }
        }
        std::sort(addrs, addrs + n);
        stats.globalTransactions += countSegments(
            std::span<const uint64_t>(addrs, n), 0, width, segment);
    }
}

/**
 * Shared lockstep scheduler. The @p kMemOps = false instantiation skips
 * the per-group memory-op alignment loop (the only consumer of MemOp
 * data), so the control-flow fields it produces are bit-equal to the
 * full simulation's by construction: the scheduler itself never
 * consults memOps.
 */
template <bool kMemOps>
WarpStats
simulateWarpImpl(std::span<const ThreadTrace *const> lanes,
                 const WarpModel &model)
{
    RHYTHM_ASSERT(static_cast<int>(lanes.size()) <= model.warpWidth,
                  "more lanes than the warp width");

    WarpStats stats;
    const size_t n = lanes.size();
    std::vector<size_t> pos(n, 0);
    std::vector<size_t> group;
    std::vector<const MemOp *> group_ops;
    group.reserve(n);

    for (size_t l = 0; l < n; ++l) {
        if (lanes[l]) {
            stats.laneBlockExecs += lanes[l]->blocks.size();
            stats.laneInstructions += lanes[l]->totalInstructions();
        }
    }

    // Sliding-window multiset of upcoming block ids per lane, covering
    // trace entries [pos+1, pos+reconvergenceWindow]. Used to detect
    // future merge points: a front block that another lane will reach
    // soon is deferred so the lanes can reconverge there (approximating
    // stack-based reconvergence on structured control flow).
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
    // True if any lane not currently at @p id will reach it soon.
    auto shared_in_future = [&](uint32_t id) {
        for (size_t m = 0; m < n; ++m) {
            if (!lanes[m] || pos[m] >= lanes[m]->blocks.size())
                continue;
            if (lanes[m]->blocks[pos[m]].blockId == id)
                continue; // lane is already at the block
            if (future[m].contains(id))
                return true;
        }
        return false;
    };

    for (;;) {
        // Candidate = a distinct front block. Selection priority:
        //  1. divergent-only blocks (no other lane will reach them soon)
        //     run first, so lanes do not execute past a merge point;
        //  2. larger lane count (amortize the fetch over more lanes);
        //  3. lowest id (determinism).
        uint32_t best_id = 0;
        size_t best_count = 0;
        bool best_shared = true;
        bool best_valid = false;
        for (size_t l = 0; l < n; ++l) {
            if (!lanes[l] || pos[l] >= lanes[l]->blocks.size())
                continue;
            const uint32_t id = lanes[l]->blocks[pos[l]].blockId;
            if (best_valid && id == best_id)
                continue;
            size_t count = 0;
            for (size_t m = 0; m < n; ++m) {
                if (lanes[m] && pos[m] < lanes[m]->blocks.size() &&
                    lanes[m]->blocks[pos[m]].blockId == id)
                    ++count;
            }
            const bool shared = shared_in_future(id);
            bool better = false;
            if (!best_valid) {
                better = true;
            } else if (shared != best_shared) {
                better = !shared;
            } else if (count != best_count) {
                better = count > best_count;
            } else {
                better = id < best_id;
            }
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
        uint32_t max_ops = 0;
        for (size_t l = 0; l < n; ++l) {
            if (lanes[l] && pos[l] < lanes[l]->blocks.size() &&
                lanes[l]->blocks[pos[l]].blockId == best_id) {
                group.push_back(l);
                const BlockExec &be = lanes[l]->blocks[pos[l]];
                max_insts = std::max(max_insts, be.instructions);
                max_ops = std::max(max_ops, be.memCount);
            }
        }

        // One fetch/issue sequence covers the whole group; lanes with
        // shorter dynamic weights are predicated off for the tail.
        stats.issueSlots += max_insts;
        stats.steps += 1;
        stats.activeLaneSteps += group.size();

        // Align memory ops by index within the block across the group.
        if constexpr (kMemOps) {
            for (uint32_t j = 0; j < max_ops; ++j) {
                group_ops.clear();
                for (size_t l : group) {
                    const BlockExec &be = lanes[l]->blocks[pos[l]];
                    if (j < be.memCount)
                        group_ops.push_back(
                            &lanes[l]->memOps[be.memBegin + j]);
                }
                if (!group_ops.empty())
                    coalesceGroupOp(std::span<const MemOp *const>(
                                        group_ops.data(), group_ops.size()),
                                    model, stats);
            }
        } else {
            (void)max_ops;
        }

        for (size_t l : group)
            advance_lane(l);
    }

    return stats;
}

} // namespace

WarpStats
simulateWarp(std::span<const ThreadTrace *const> lanes,
             const WarpModel &model)
{
    return simulateWarpImpl<true>(lanes, model);
}

WarpStats
mergeBlockSchedule(std::span<const ThreadTrace *const> lanes,
                   const WarpModel &model)
{
    return simulateWarpImpl<false>(lanes, model);
}

} // namespace rhythm::simt
