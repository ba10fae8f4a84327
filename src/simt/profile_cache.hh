/**
 * @file
 * Warp-equivalence memoization for the SIMT engine.
 *
 * Cohort scheduling makes warps control-flow-similar (paper Sections
 * 3-4): within one steady-state run the engine re-simulates warps whose
 * 32 lane traces are identical — across stages of repeated cohorts of
 * the same request type, and across whole launches when the workload
 * generator cycles through a bounded session pool. simulateWarp() is a
 * pure function of (lane traces, WarpModel) with integer-valued
 * results, so those results are safely memoizable: this file provides
 * the canonical content fingerprint and the bounded cross-launch LRU
 * cache the engine keys on.
 *
 * Fingerprint normalization. Lane traces of equivalent warps differ
 * only by the device base address of their cohort slot, so a raw
 * content hash would never match across warps. The fingerprint
 * therefore translates every Global-space address by the warp's
 * minimum Global address aligned *down* to WarpModel::segmentBytes.
 * WarpStats is invariant under exactly that translation:
 *
 *  - coalescing divides Global addresses by segmentBytes; shifting all
 *    of them by one common multiple of segmentBytes shifts every
 *    segment index by the same amount, leaving distinct-segment counts
 *    unchanged (alignment *within* a segment is preserved because the
 *    base is aligned down);
 *  - Shared-space addresses are hashed untranslated, so the bank
 *    mapping (addr/4 % 32) is compared exactly;
 *  - Constant accesses are count-only.
 *
 * Equal fingerprints (128 bits, two independent hashes — see
 * util/hash.hh) therefore imply bit-equal WarpStats, which is what
 * lets the engine replicate cached stats verbatim without breaking the
 * determinism contract (DESIGN.md Section 6e).
 */

#ifndef RHYTHM_SIMT_PROFILE_CACHE_HH
#define RHYTHM_SIMT_PROFILE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <utility>

#include "simt/trace.hh"
#include "simt/warp.hh"

namespace rhythm::simt {

/** 128-bit content key of one warp's simulation inputs. */
struct WarpKey
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    bool operator==(const WarpKey &) const = default;
};

/** Hash adaptor for unordered containers (the key is already mixed). */
struct WarpKeyHash
{
    size_t operator()(const WarpKey &key) const noexcept
    {
        return static_cast<size_t>(key.hi ^ (key.lo * 0x9e3779b97f4a7c15ull));
    }
};

/**
 * Computes the canonical fingerprint of one warp: all lane traces
 * (Global addresses normalized as described above) plus the warp-model
 * parameters. Null lanes (inactive) are folded in as explicit markers
 * so partial warps cannot alias full ones.
 */
WarpKey warpFingerprint(std::span<const ThreadTrace *const> lanes,
                        const WarpModel &model);

/**
 * Bytes of trace input a simulation of this warp would consume —
 * the bytes-saved accounting unit for cache hits.
 */
uint64_t warpTraceBytes(std::span<const ThreadTrace *const> lanes);

/**
 * Bounded LRU map from WarpKey to WarpStats, shared across launches.
 *
 * Not thread-safe: the engine consults it only on the calling (DES)
 * thread, in canonical warp order, which also makes the LRU state —
 * and therefore hit/miss/eviction counts — independent of
 * --sim-threads.
 */
class ProfileCache
{
  public:
    /** Cache effectiveness counters (all monotonically increasing). */
    struct Stats
    {
        /** Cross-launch lookups served from the cache. */
        uint64_t hits = 0;
        /** Warps actually simulated (equivalence-class representatives
         *  not found in the cache). */
        uint64_t misses = 0;
        /** Intra-launch replications from a class representative. */
        uint64_t intraHits = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
        /** Trace bytes whose re-simulation was avoided. */
        uint64_t bytesSaved = 0;
    };

    /** @param max_entries LRU capacity (>= 1). */
    explicit ProfileCache(size_t max_entries = 4096);

    /**
     * Looks up a key, bumping it to most-recently-used and counting a
     * hit on success. Returns null on miss (no miss is counted here:
     * a missing warp may still be replicated intra-launch; the engine
     * attributes it to misses or intraHits once classified).
     */
    const WarpStats *find(const WarpKey &key);

    /**
     * Inserts (or refreshes) a key, evicting the least-recently-used
     * entry when full.
     */
    void insert(const WarpKey &key, const WarpStats &stats);

    size_t size() const { return map_.size(); }
    size_t capacity() const { return maxEntries_; }

    const Stats &stats() const { return stats_; }
    /** Mutable stats: the engine attributes misses/intra-hits/bytes. */
    Stats &stats() { return stats_; }

    /** Drops all entries (stats are preserved). */
    void clear();

  private:
    using LruList = std::list<std::pair<WarpKey, WarpStats>>;

    size_t maxEntries_;
    LruList lru_; //!< Front = most recently used.
    std::unordered_map<WarpKey, LruList::iterator, WarpKeyHash> map_;
    Stats stats_;
};

} // namespace rhythm::simt

#endif // RHYTHM_SIMT_PROFILE_CACHE_HH
