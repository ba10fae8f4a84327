#include "simt/warp.hh"

#include <algorithm>
#include <array>
#include <bit>
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
 * Σ_{j=0}^{n-1} ⌊(a·j + b) / m⌋ modulo 2^64, by the Euclid-like
 * floor-sum recursion: O(log m) steps. Requires 1 <= m < 2^32 and
 * n < 2^32, so that n(n-1) and a·n + b (after reducing a and b below m)
 * fit in 64 bits. Terms past 2^64 wrap, which callers cancel by using
 * only differences of sums that share n, a and m.
 */
uint64_t
floorSum(uint64_t n, uint64_t m, uint64_t a, uint64_t b)
{
    uint64_t sum = 0;
    while (true) {
        if (a >= m) {
            sum += n * (n - 1) / 2 * (a / m);
            a %= m;
        }
        if (b >= m) {
            sum += n * (b / m);
            b %= m;
        }
        const uint64_t top = a * n + b;
        if (top < m)
            return sum;
        n = top / m;
        b = top % m;
        std::swap(m, a);
    }
}

/**
 * Sums countSegments() over elements [lo, hi) of lanes that share
 * @p stride and @p width (element i adds i × stride to every base in
 * @p sorted), in closed form. The lanes' byte intervals merge into
 * disjoint runs [x, y]; with F(b) = Σ_i ⌊(i·stride + b) / S⌋ over the
 * elements, a run touches F(y) - F(x) + N segments in all (N = hi - lo),
 * and two consecutive runs less than S apart share a segment exactly
 * when no segment boundary falls between them, N - (F(x_m) - F(y_{m-1}))
 * times. Cost O(lanes + runs · log S), whatever the count and stride
 * (docs/SIMULATOR.md, "Memory system").
 */
uint64_t
stridedSegments(std::span<const uint64_t> sorted, uint32_t lo, uint32_t hi,
                uint32_t stride, uint16_t width, uint32_t segment_bytes)
{
    const uint64_t seg = segment_bytes;
    const uint64_t n = hi - lo;
    // Only differences of F are used, so the terms every F shares drop
    // out: ⌊lo·stride / S⌋ and the whole segments of stride. What is
    // left of element lo's offset is its remainder mod S.
    const uint64_t step = stride % seg;
    const uint64_t rem = static_cast<uint64_t>(lo) * stride % seg;
    auto F = [&](uint64_t b) {
        return n * (b / seg) + floorSum(n, seg, step, rem + b % seg);
    };
    uint64_t total = 0;
    uint64_t prev_y = 0;
    uint64_t prev_fy = 0;
    for (size_t k = 0; k < sorted.size();) {
        // The run starting at lane k: intervals that overlap or touch.
        const bool first = k == 0;
        const uint64_t x = sorted[k];
        uint64_t y = x + width - 1;
        for (++k; k < sorted.size() && sorted[k] <= y + 1; ++k)
            y = std::max(y, sorted[k] + width - 1);
        const uint64_t fx = F(x);
        const uint64_t fy = F(y);
        total += fy - fx + n;
        if (!first && x - prev_y < seg)
            total -= n - (fx - prev_fy);
        prev_y = y;
        prev_fy = fy;
    }
    return total;
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
        // Transposed stores arrive in address order already.
        auto lower = [](const Lane &a, const Lane &b) {
            return a.addr < b.addr;
        };
        if (!std::is_sorted(by_addr, by_addr + lanes, lower))
            std::sort(by_addr, by_addr + lanes, lower);
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
 * Dense numbering of one warp's block ids: a flat open-addressing table
 * (linear probing, Fibonacci hashing) mapping each distinct id to
 * 0, 1, 2, ... in first-seen order. Cleared in O(distinct ids), so one
 * table serves every warp a thread simulates.
 */
class BlockNumbering
{
  public:
    BlockNumbering() { grow(); }

    /** Dense number of @p id, assigning the next one on first sight. */
    uint32_t
    number(uint32_t id)
    {
        if ((ids_.size() + 1) * 2 > slots_.size())
            grow();
        for (size_t s = slotOf(id);; s = (s + 1) & (slots_.size() - 1)) {
            Slot &slot = slots_[s];
            if (slot.dense == kEmpty) {
                slot = Slot{id, static_cast<uint32_t>(ids_.size())};
                ids_.push_back(id);
                return slot.dense;
            }
            if (slot.id == id)
                return slot.dense;
        }
    }

    /** Original id of dense number @p dense. */
    uint32_t id(uint32_t dense) const { return ids_[dense]; }

    /** Distinct ids numbered so far. */
    uint32_t size() const { return static_cast<uint32_t>(ids_.size()); }

    /** Forgets every id, keeping the table's capacity. */
    void
    clear()
    {
        for (uint32_t id : ids_)
            slots_[find(id)].dense = kEmpty;
        ids_.clear();
    }

  private:
    static constexpr uint32_t kEmpty = UINT32_MAX;

    struct Slot
    {
        uint32_t id = 0;
        uint32_t dense = kEmpty;
    };

    size_t
    slotOf(uint32_t id) const
    {
        return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    size_t
    find(uint32_t id) const
    {
        size_t s = slotOf(id);
        while (slots_[s].id != id || slots_[s].dense == kEmpty)
            s = (s + 1) & (slots_.size() - 1);
        return s;
    }

    /** Doubles the table (64 slots at first) and re-inserts every id. */
    void
    grow()
    {
        const size_t capacity = std::max<size_t>(64, slots_.size() * 2);
        shift_ = 64 - std::countr_zero(capacity);
        slots_.assign(capacity, Slot{});
        for (uint32_t dense = 0; dense < ids_.size(); ++dense) {
            size_t s = slotOf(ids_[dense]);
            while (slots_[s].dense != kEmpty)
                s = (s + 1) & (capacity - 1);
            slots_[s] = Slot{ids_[dense], dense};
        }
    }

    std::vector<Slot> slots_;
    std::vector<uint32_t> ids_; //!< Original id by dense number.
    int shift_ = 0; //!< 64 - log2(table size), set by grow().
};

/**
 * One thread's scheduler state, reused across warps so the hot path
 * does not allocate. Blocks are the warp's dense block numbers.
 */
struct SchedulerScratch
{
    BlockNumbering numbering;
    /** Every lane's trace as dense numbers, lane after lane. */
    std::vector<uint32_t> trace;
    std::vector<size_t> begin; //!< Lane's first entry in `trace`.
    std::vector<uint32_t> len; //!< Lane's trace length.
    std::vector<uint32_t> pos; //!< Lane's front position.
    /** Lanes × blocks: how often the block occurs in the lane's window. */
    std::vector<uint32_t> window;
    /** Per block: lanes whose window holds it. */
    std::vector<uint32_t> holders;
    /** Per block, this step only: lanes at it, and those of them whose
     *  own window also holds it. */
    std::vector<uint32_t> atFront;
    std::vector<uint32_t> frontHolders;
    /** Unfinished lanes in lane order, and each one's front block. */
    std::vector<uint32_t> active;
    std::vector<uint32_t> front;
    /** This step's distinct front blocks. */
    std::vector<uint32_t> fronts;
    /** This step's group (lanes at the chosen block, in lane order)
     *  and one aligned memory op of it. */
    std::vector<size_t> group;
    std::vector<const MemOp *> groupOps;
};

/** The calling thread's scheduler scratch. */
SchedulerScratch &
schedulerScratch()
{
    thread_local SchedulerScratch scratch;
    return scratch;
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
    SchedulerScratch &sc = schedulerScratch();
    std::vector<size_t> &group = sc.group;
    std::vector<const MemOp *> &group_ops = sc.groupOps;

    // Number the warp's distinct blocks densely and lay every lane's
    // trace out as dense numbers.
    sc.numbering.clear();
    sc.trace.clear();
    sc.begin.assign(n, 0);
    sc.len.assign(n, 0);
    sc.pos.assign(n, 0);
    sc.active.clear();
    for (size_t l = 0; l < n; ++l) {
        if (!lanes[l])
            continue;
        stats.laneBlockExecs += lanes[l]->blocks.size();
        stats.laneInstructions += lanes[l]->totalInstructions();
        sc.begin[l] = sc.trace.size();
        sc.len[l] = static_cast<uint32_t>(lanes[l]->blocks.size());
        for (const BlockExec &be : lanes[l]->blocks)
            sc.trace.push_back(sc.numbering.number(be.blockId));
        if (sc.len[l] > 0)
            sc.active.push_back(static_cast<uint32_t>(l));
    }
    const size_t blocks = sc.numbering.size();

    // Sliding window of upcoming blocks per lane, covering trace
    // entries [pos+1, pos+reconvergenceWindow], as per-lane counts.
    // Used to detect future merge points: a front block that another
    // lane will reach soon is deferred so the lanes can reconverge there
    // (approximating stack-based reconvergence on structured control
    // flow). `holders` counts, per block, the unfinished lanes whose
    // window holds it.
    const size_t window = model.reconvergenceWindow;
    sc.window.assign(n * blocks, 0);
    sc.holders.assign(blocks, 0);
    sc.atFront.assign(blocks, 0);
    sc.frontHolders.assign(blocks, 0);
    auto enter = [&](size_t l, uint32_t b) {
        if (sc.window[l * blocks + b]++ == 0)
            ++sc.holders[b];
    };
    for (uint32_t l : sc.active) {
        const uint32_t *trace = &sc.trace[sc.begin[l]];
        const size_t limit = std::min<size_t>(sc.len[l], 1 + window);
        for (size_t k = 1; k < limit; ++k)
            enter(l, trace[k]);
    }
    // Steps lane @p l past its front block: entry p + 1 leaves the
    // window, dropped only if the window holds it, and entry
    // p + 1 + window enters. At reconvergenceWindow 0 both are the
    // block the lane moves to, so the window comes to hold every block
    // the lane has reached after its first. A finished lane stops
    // counting as a holder.
    auto advance_lane = [&](size_t l) {
        const size_t p = sc.pos[l];
        const uint32_t *trace = &sc.trace[sc.begin[l]];
        uint32_t *counts = &sc.window[l * blocks];
        if (p + 1 < sc.len[l] && counts[trace[p + 1]] > 0 &&
            --counts[trace[p + 1]] == 0)
            --sc.holders[trace[p + 1]];
        if (p + 1 + window < sc.len[l])
            enter(l, trace[p + 1 + window]);
        sc.pos[l] = static_cast<uint32_t>(p + 1);
        if (p + 1 == sc.len[l]) {
            for (size_t b = 0; b < blocks; ++b) {
                if (counts[b] > 0)
                    --sc.holders[b];
            }
        }
    };

    while (!sc.active.empty()) {
        // One pass over the unfinished lanes finds the distinct front
        // blocks, the lanes at each, and how many of those lanes hold
        // the block in their own window. Another lane will reach block
        // b soon iff some lane not at b holds it: holders[b] >
        // frontHolders[b].
        sc.front.resize(sc.active.size());
        sc.fronts.clear();
        for (size_t k = 0; k < sc.active.size(); ++k) {
            const uint32_t l = sc.active[k];
            const uint32_t b = sc.trace[sc.begin[l] + sc.pos[l]];
            sc.front[k] = b;
            if (sc.atFront[b]++ == 0)
                sc.fronts.push_back(b);
            if (sc.window[l * blocks + b] > 0)
                ++sc.frontHolders[b];
        }
        // Selection priority:
        //  1. divergent-only blocks (no other lane will reach them soon)
        //     run first, so lanes do not execute past a merge point;
        //  2. larger lane count (amortize the fetch over more lanes);
        //  3. lowest original block id (determinism).
        auto shared = [&](uint32_t b) {
            return sc.holders[b] > sc.frontHolders[b];
        };
        uint32_t best = sc.fronts[0];
        for (uint32_t b : sc.fronts) {
            if (shared(b) != shared(best)) {
                if (!shared(b))
                    best = b;
            } else if (sc.atFront[b] != sc.atFront[best]) {
                if (sc.atFront[b] > sc.atFront[best])
                    best = b;
            } else if (sc.numbering.id(b) < sc.numbering.id(best)) {
                best = b;
            }
        }
        for (uint32_t b : sc.fronts)
            sc.atFront[b] = sc.frontHolders[b] = 0;

        // The group, in lane order: the mixed-shape coalescer takes the
        // last active lane's width.
        group.clear();
        uint32_t max_insts = 0;
        uint32_t max_ops = 0;
        for (size_t k = 0; k < sc.active.size(); ++k) {
            if (sc.front[k] != best)
                continue;
            const size_t l = sc.active[k];
            group.push_back(l);
            const BlockExec &be = lanes[l]->blocks[sc.pos[l]];
            max_insts = std::max(max_insts, be.instructions);
            max_ops = std::max(max_ops, be.memCount);
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
                    const BlockExec &be = lanes[l]->blocks[sc.pos[l]];
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

        bool finished = false;
        for (size_t l : group) {
            advance_lane(l);
            finished = finished || sc.pos[l] == sc.len[l];
        }
        if (finished)
            std::erase_if(sc.active, [&](uint32_t l) {
                return sc.pos[l] == sc.len[l];
            });
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
