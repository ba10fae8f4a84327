#include "simt/kernel.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rhythm::simt {

KernelProfile
KernelProfile::fromTraces(const std::vector<const ThreadTrace *> &traces,
                          const WarpModel &model, std::string name)
{
    std::vector<WarpStats> warp_stats;
    const size_t width = static_cast<size_t>(model.warpWidth);
    warp_stats.reserve((traces.size() + width - 1) / width);
    for (size_t base = 0; base < traces.size(); base += width) {
        const size_t lanes = std::min(width, traces.size() - base);
        warp_stats.push_back(simulateWarp(
            std::span<const ThreadTrace *const>(traces.data() + base, lanes),
            model));
    }
    return fromWarpStats(warp_stats, traces.size(), std::move(name));
}

KernelProfile
KernelProfile::fromWarpStats(std::span<const WarpStats> warp_stats,
                             uint64_t threads, std::string name)
{
    KernelProfile profile;
    profile.name = std::move(name);
    profile.threads = threads;
    profile.warps = warp_stats.size();
    for (const WarpStats &ws : warp_stats)
        profile.totals.merge(ws);
    return profile;
}

KernelProfile
KernelProfile::streaming(uint64_t threads, uint64_t bytes_moved,
                         uint32_t insts_per_thread, const WarpModel &model,
                         std::string name)
{
    KernelProfile profile;
    profile.name = std::move(name);
    profile.threads = threads;
    profile.warps = (threads + model.warpWidth - 1) / model.warpWidth;
    profile.totals.issueSlots = profile.warps * insts_per_thread;
    profile.totals.laneInstructions = threads * insts_per_thread;
    profile.totals.steps = profile.warps;
    profile.totals.laneBlockExecs = threads;
    profile.totals.activeLaneSteps = threads;
    profile.totals.globalBytes = bytes_moved;
    profile.totals.globalTransactions =
        (bytes_moved + model.segmentBytes - 1) / model.segmentBytes;
    return profile;
}

KernelCost
computeKernelCost(const KernelProfile &profile, const DeviceConfig &config)
{
    KernelCost cost;
    // Shared-memory bank-conflict replays occupy issue slots too.
    const double compute_seconds =
        (static_cast<double>(profile.totals.issueSlots) *
             config.instructionExpansion +
         static_cast<double>(profile.totals.sharedReplaySlots)) /
        config.issueSlotsPerSecond();
    const double memory_seconds =
        static_cast<double>(profile.totals.movedBytes()) /
        (config.memBandwidthGBs * config.memoryEfficiency * 1e9);
    cost.deviceSeconds = std::max(compute_seconds, memory_seconds);
    cost.memoryBound = memory_seconds > compute_seconds;
    cost.memoryBytes = profile.totals.movedBytes();
    const double saturating = config.saturatingWarps();
    RHYTHM_ASSERT(saturating > 0);
    cost.maxShare = std::min(
        1.0, static_cast<double>(profile.warps) / saturating);
    if (profile.warps == 0)
        cost.maxShare = 0.0;
    cost.name = profile.name;
    cost.warps = profile.warps;
    cost.simdEfficiency = profile.simdEfficiency(config.warpModel.warpWidth);
    cost.globalTransactions = profile.totals.globalTransactions;
    return cost;
}

} // namespace rhythm::simt
