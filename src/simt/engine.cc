#include "simt/engine.hh"

#include <algorithm>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>

#include "util/logging.hh"

namespace rhythm::simt {
namespace {

/** One warp's slice of a launch's trace array. */
struct WarpWork
{
    const ThreadTrace *const *lanes = nullptr;
    size_t laneCount = 0;
    const WarpModel *model = nullptr;

    std::span<const ThreadTrace *const> span() const
    {
        return std::span<const ThreadTrace *const>(lanes, laneCount);
    }
};

/**
 * Memoized warp simulation (see engine.hh and profile_cache.hh):
 * parallel fingerprinting, serial canonical classification against the
 * cross-launch LRU plus an intra-batch equivalence map, parallel
 * simulation of class representatives only, then serial replication
 * and cache publication. Every serial step walks warps in canonical
 * (flattened) order, so cache state and cache accounting are
 * identical for any worker count — and the filled slots are bit-equal
 * to the uncached path's.
 */
void
profileMemoized(util::ThreadPool &pool, ProfileCache &cache,
                const std::vector<WarpWork> &work,
                std::vector<WarpStats> &slots)
{
    std::vector<WarpKey> keys(work.size());
    pool.parallelFor(work.size(), [&work, &keys](size_t i) {
        keys[i] = warpFingerprint(work[i].span(), *work[i].model);
    });

    // Classification: cross-launch hits fill their slots immediately;
    // the rest form intra-batch equivalence classes keyed on the
    // fingerprint, each represented by its first (canonical) member.
    constexpr size_t kFromCache = std::numeric_limits<size_t>::max();
    ProfileCache::Stats &cs = cache.stats();
    std::vector<size_t> rep(work.size());
    std::vector<size_t> to_sim;
    std::unordered_map<WarpKey, size_t, WarpKeyHash> classes;
    for (size_t i = 0; i < work.size(); ++i) {
        if (const WarpStats *hit = cache.find(keys[i])) {
            slots[i] = *hit;
            rep[i] = kFromCache;
            cs.bytesSaved += warpTraceBytes(work[i].span());
            continue;
        }
        auto [it, inserted] = classes.try_emplace(keys[i], i);
        rep[i] = it->second;
        if (inserted) {
            to_sim.push_back(i);
        } else {
            ++cs.intraHits;
            cs.bytesSaved += warpTraceBytes(work[i].span());
        }
    }
    cs.misses += to_sim.size();

    pool.parallelFor(to_sim.size(), [&work, &slots, &to_sim](size_t j) {
        const size_t i = to_sim[j];
        slots[i] = simulateWarp(work[i].span(), *work[i].model);
    });

    for (size_t i = 0; i < work.size(); ++i) {
        if (rep[i] != kFromCache && rep[i] != i)
            slots[i] = slots[rep[i]];
    }
    for (size_t i : to_sim)
        cache.insert(keys[i], slots[i]);
}

} // namespace

Engine::Engine(int num_sms, util::ThreadPool *pool)
    : numSms_(num_sms), pool_(pool)
{
    RHYTHM_ASSERT(numSms_ >= 1);
    sms_.resize(static_cast<size_t>(numSms_));
}

util::ThreadPool &
Engine::pool() const
{
    return pool_ ? *pool_ : util::simPool();
}

KernelProfile
Engine::profile(const std::vector<const ThreadTrace *> &traces,
                const WarpModel &model, std::string name)
{
    Launch launch;
    launch.traces = &traces;
    launch.model = &model;
    launch.name = std::move(name);
    std::vector<KernelProfile> profiles = profileMany({std::move(launch)});
    return std::move(profiles.front());
}

std::vector<KernelProfile>
Engine::profileMany(const std::vector<Launch> &launches)
{
    // Flatten every warp of every launch into one index space so the
    // pool load-balances across launch boundaries.
    std::vector<WarpWork> work;
    std::vector<size_t> warpBase(launches.size() + 1, 0);
    for (size_t li = 0; li < launches.size(); ++li) {
        const Launch &l = launches[li];
        RHYTHM_ASSERT(l.traces != nullptr && l.model != nullptr);
        const auto &traces = *l.traces;
        const size_t width = static_cast<size_t>(l.model->warpWidth);
        RHYTHM_ASSERT(width >= 1);
        for (size_t base = 0; base < traces.size(); base += width) {
            work.push_back(WarpWork{traces.data() + base,
                                    std::min(width, traces.size() - base),
                                    l.model});
        }
        warpBase[li + 1] = work.size();
    }

    // Fork: each warp writes only its own slot. Which worker simulates
    // which warp is irrelevant — the slots are merged canonically below.
    std::vector<WarpStats> slots(work.size());
    if (cache_ && !work.empty()) {
        profileMemoized(pool(), *cache_, work, slots);
    } else {
        pool().parallelFor(work.size(), [&work, &slots](size_t i) {
            slots[i] = simulateWarp(work[i].span(), *work[i].model);
        });
    }

    // Join done; merge on the calling thread in canonical order:
    // launch index, then warp index within the launch.
    std::vector<KernelProfile> profiles;
    profiles.reserve(launches.size());
    for (size_t li = 0; li < launches.size(); ++li) {
        const size_t begin = warpBase[li];
        const size_t end = warpBase[li + 1];
        const std::span<const WarpStats> launchStats(slots.data() + begin,
                                                     end - begin);
        profiles.push_back(KernelProfile::fromWarpStats(
            launchStats, launches[li].traces->size(), launches[li].name));
        // Per-SM accounting: warp w of a launch runs on SM (w % numSms).
        for (size_t w = 0; w < launchStats.size(); ++w) {
            SmCounters &sm = sms_[w % static_cast<size_t>(numSms_)];
            ++sm.warps;
            sm.stats.merge(launchStats[w]);
        }
        const size_t touched =
            std::min(launchStats.size(), static_cast<size_t>(numSms_));
        for (size_t s = 0; s < touched; ++s)
            ++sms_[s].launches;
        ++launches_;
        warps_ += launchStats.size();
    }
    return profiles;
}

} // namespace rhythm::simt
