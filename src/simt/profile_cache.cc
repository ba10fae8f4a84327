#include "simt/profile_cache.hh"

#include <limits>

#include "util/hash.hh"
#include "util/logging.hh"

namespace rhythm::simt {
namespace {

/** Streams one word into both halves of the 128-bit fingerprint. */
struct KeyHasher
{
    util::Fnv1a64 fnv;
    util::Mix64 mix;

    void update(uint64_t word)
    {
        fnv.update(word);
        mix.update(word);
    }

    WarpKey digest() const { return WarpKey{fnv.digest(), mix.digest()}; }
};

/** Sentinel folded in for inactive (null) lanes. */
constexpr uint64_t kNullLaneMarker = 0xdeadbeef'00000001ull;

} // namespace

WarpKey
warpFingerprint(std::span<const ThreadTrace *const> lanes,
                const WarpModel &model)
{
    RHYTHM_ASSERT(model.segmentBytes > 0);

    // Normalization base: the warp's minimum Global address, aligned
    // down to the coalescing segment so intra-segment alignment is
    // preserved (see the file comment for the invariance argument).
    uint64_t min_global = std::numeric_limits<uint64_t>::max();
    for (const ThreadTrace *lane : lanes) {
        if (!lane)
            continue;
        for (const MemOp &op : lane->memOps) {
            if (op.space == MemSpace::Global && op.addr < min_global)
                min_global = op.addr;
        }
    }
    const uint64_t base =
        min_global == std::numeric_limits<uint64_t>::max()
            ? 0
            : min_global - min_global % model.segmentBytes;

    KeyHasher h;
    h.update(static_cast<uint64_t>(model.warpWidth));
    h.update(model.segmentBytes);
    h.update(model.reconvergenceWindow);
    h.update(lanes.size());
    for (const ThreadTrace *lane : lanes) {
        if (!lane) {
            h.update(kNullLaneMarker);
            continue;
        }
        h.update(lane->blocks.size());
        for (const BlockExec &b : lane->blocks) {
            h.update((static_cast<uint64_t>(b.blockId) << 32) |
                     b.instructions);
            h.update((static_cast<uint64_t>(b.memBegin) << 32) |
                     b.memCount);
        }
        h.update(lane->memOps.size());
        for (const MemOp &op : lane->memOps) {
            const uint64_t addr =
                op.space == MemSpace::Global ? op.addr - base : op.addr;
            h.update(addr);
            h.update((static_cast<uint64_t>(op.count) << 32) | op.stride);
            h.update((static_cast<uint64_t>(op.width) << 16) |
                     (static_cast<uint64_t>(op.space) << 8) |
                     (op.isStore ? 1 : 0));
        }
    }
    return h.digest();
}

uint64_t
warpTraceBytes(std::span<const ThreadTrace *const> lanes)
{
    uint64_t bytes = 0;
    for (const ThreadTrace *lane : lanes) {
        if (!lane)
            continue;
        bytes += lane->blocks.size() * sizeof(BlockExec) +
                 lane->memOps.size() * sizeof(MemOp);
    }
    return bytes;
}

ProfileCache::ProfileCache(size_t max_entries)
    : maxEntries_(max_entries)
{
    RHYTHM_ASSERT(maxEntries_ >= 1);
}

const WarpStats *
ProfileCache::find(const WarpKey &key)
{
    auto it = map_.find(key);
    if (it == map_.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return &it->second->second;
}

void
ProfileCache::insert(const WarpKey &key, const WarpStats &stats)
{
    auto it = map_.find(key);
    if (it != map_.end()) {
        // Refresh: equal keys imply equal stats, so only recency moves.
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    if (map_.size() >= maxEntries_) {
        map_.erase(lru_.back().first);
        lru_.pop_back();
        ++stats_.evictions;
    }
    lru_.emplace_front(key, stats);
    map_.emplace(key, lru_.begin());
    ++stats_.insertions;
}

void
ProfileCache::clear()
{
    map_.clear();
    lru_.clear();
}

} // namespace rhythm::simt
