/**
 * @file
 * Parallel SM execution engine.
 *
 * The engine simulates the independent warps of a kernel launch (and of
 * whole batches of launches) concurrently on a host worker pool, while
 * producing results byte-identical to the serial path for any thread
 * count. The determinism contract (see DESIGN.md "Parallel engine"):
 *
 *  - simulateWarp() is a pure function of one warp's traces, and every
 *    WarpStats field is an integer, so per-warp results are exact and
 *    thread-placement-independent.
 *  - Each warp writes only its own pre-sized result slot; aggregation
 *    happens after the fork/join barrier, on the calling thread, in
 *    canonical order: launch index, then warp index within the launch.
 *    Integer merges in a fixed order are bit-exact, so the aggregate is
 *    the same whether warps were simulated by 1 thread or 8.
 *  - Per-SM accounting assigns warp w of a launch to SM (w % numSms) —
 *    the round-robin rasterization of blocks onto SMs — and merges into
 *    the SM counters in the same canonical order.
 *
 * Parallelism lives strictly *between* DES events: the engine runs
 * inside one event callback (profiling a cohort's stage before the
 * launch command is enqueued), joins before returning, and never touches
 * the event queue from a worker. The DES schedule is therefore
 * unaffected by the thread count; EventQueue::orderHash() audits this.
 *
 * Warp-equivalence memoization: with a ProfileCache attached
 * (setProfileCache), the engine fingerprints every warp, simulates one
 * representative per equivalence class, replicates its WarpStats to
 * the other members, and serves repeated classes straight from the
 * cross-launch LRU. Because equal fingerprints imply bit-equal
 * WarpStats (see profile_cache.hh), every downstream result is
 * byte-identical to the uncached path; classification and cache
 * mutation happen serially in canonical warp order, so hit/miss
 * sequences are --sim-threads-invariant too.
 */

#ifndef RHYTHM_SIMT_ENGINE_HH
#define RHYTHM_SIMT_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "simt/kernel.hh"
#include "simt/profile_cache.hh"
#include "simt/warp.hh"
#include "util/thread_pool.hh"

namespace rhythm::simt {

/** Parallel warp-simulation engine with per-SM deterministic accounting. */
class Engine
{
  public:
    /** Deterministic per-SM accounting, merged in canonical order. */
    struct SmCounters
    {
        /** Launches that placed at least one warp on this SM. */
        uint64_t launches = 0;
        /** Warps simulated on this SM. */
        uint64_t warps = 0;
        /** Aggregate warp statistics of this SM's warps. */
        WarpStats stats;

        bool operator==(const SmCounters &) const = default;
    };

    /** One kernel launch to profile; inputs are borrowed, not owned. */
    struct Launch
    {
        const std::vector<const ThreadTrace *> *traces = nullptr;
        const WarpModel *model = nullptr;
        std::string name;
    };

    /**
     * Creates an engine for a device with @p num_sms SMs. When @p pool
     * is null the engine uses util::simPool() (resolved at each region,
     * so a later setSimThreads() takes effect).
     */
    explicit Engine(int num_sms, util::ThreadPool *pool = nullptr);

    /** SMs this engine accounts across. */
    int numSms() const { return numSms_; }

    /**
     * Profiles one kernel launch, simulating its warps in parallel.
     * Byte-identical to KernelProfile::fromTraces for any thread count.
     */
    KernelProfile profile(const std::vector<const ThreadTrace *> &traces,
                          const WarpModel &model, std::string name = "");

    /**
     * Profiles a batch of independent launches in one parallel region
     * (all warps of all launches form a single index space, so small
     * launches cannot strand workers). Results are in launch order.
     */
    std::vector<KernelProfile> profileMany(const std::vector<Launch> &launches);

    /** Per-SM counters, indexed by SM; stable across thread counts. */
    const std::vector<SmCounters> &smCounters() const { return sms_; }

    /** Total launches profiled since construction. */
    uint64_t launches() const { return launches_; }

    /** Total warps simulated since construction. */
    uint64_t warps() const { return warps_; }

    /**
     * Attaches a warp profile cache (not owned; nullptr detaches, the
     * default). The cache may be shared by several engines and
     * outlives every profile call that uses it.
     */
    void setProfileCache(ProfileCache *cache) { cache_ = cache; }

  private:
    util::ThreadPool &pool() const;

    int numSms_;
    util::ThreadPool *pool_;
    ProfileCache *cache_ = nullptr;
    std::vector<SmCounters> sms_;
    uint64_t launches_ = 0;
    uint64_t warps_ = 0;
};

} // namespace rhythm::simt

#endif // RHYTHM_SIMT_ENGINE_HH
