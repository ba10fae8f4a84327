#include "analysis/fingerprint.hh"

#include <algorithm>

#include "analysis/similarity.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace rhythm::analysis {
namespace {

/**
 * Collects up to @p limit non-null lanes from @p lanes into @p out.
 * The prefix order is canonical (launch lane order), so the sample —
 * and everything derived from it — is a pure function of the launch.
 */
void
sampleLanes(std::span<const simt::ThreadTrace *const> lanes, uint32_t limit,
            std::vector<const simt::ThreadTrace *> &out)
{
    for (const simt::ThreadTrace *lane : lanes) {
        if (out.size() >= limit)
            break;
        if (lane)
            out.push_back(lane);
    }
}

/** Content hash of a sample's block sequences (memo key). */
uint64_t
blockContentHash(const std::vector<const simt::ThreadTrace *> &lanes)
{
    util::Fnv1a64 h;
    h.update(lanes.size());
    for (const simt::ThreadTrace *lane : lanes) {
        h.update(lane->blocks.size());
        for (const simt::BlockExec &b : lane->blocks)
            h.update((static_cast<uint64_t>(b.blockId) << 32) |
                     b.instructions);
    }
    return h.digest();
}

} // namespace

FingerprintTracker::FingerprintTracker(uint32_t num_types,
                                       const FingerprintConfig &config)
    : numTypes_(num_types), config_(config),
      self_(num_types, Ewma(config.alpha)),
      pair_(static_cast<size_t>(num_types) * num_types,
            Ewma(config.alpha))
{
    RHYTHM_ASSERT(config_.alpha > 0.0 && config_.alpha <= 1.0);
    RHYTHM_ASSERT(config_.sampleLanes >= 2);
}

double
FingerprintTracker::sampledSimilarity(
    std::span<const simt::ThreadTrace *const> lanes,
    std::span<const simt::ThreadTrace *const> extra_lanes)
{
    std::vector<const simt::ThreadTrace *> sample;
    sample.reserve(config_.sampleLanes);
    if (extra_lanes.empty()) {
        sampleLanes(lanes, config_.sampleLanes, sample);
    } else {
        // Mixed observation: half the budget per side, so the sample
        // stays the same size as a self sample and each type is
        // represented evenly.
        const uint32_t half = std::max<uint32_t>(1, config_.sampleLanes / 2);
        sampleLanes(lanes, half, sample);
        sampleLanes(extra_lanes,
                    half + static_cast<uint32_t>(sample.size()), sample);
    }
    if (sample.size() < 2)
        return 1.0; // A lone trace merges with itself perfectly.

    const uint64_t key = blockContentHash(sample);
    if (auto it = memo_.find(key); it != memo_.end()) {
        ++memoHits_;
        return it->second;
    }

    // The Figure 2 metric over the widened warp, scheduler fields only
    // (bit-equal to the offline merge).
    const double normalized = measureSimilarityFast(sample).normalizedSpeedup;

    if (memo_.size() >= config_.memoEntries)
        memo_.clear();
    memo_.emplace(key, normalized);
    return normalized;
}

void
FingerprintTracker::observeLaunch(
    uint32_t type, std::span<const simt::ThreadTrace *const> lanes)
{
    RHYTHM_ASSERT(type < numTypes_);
    ++observations_;
    self_[type].add(sampledSimilarity(lanes, {}));
}

void
FingerprintTracker::observePair(
    uint32_t a, std::span<const simt::ThreadTrace *const> a_lanes,
    uint32_t b, std::span<const simt::ThreadTrace *const> b_lanes)
{
    RHYTHM_ASSERT(a < numTypes_ && b < numTypes_);
    ++observations_;
    const double measured = sampledSimilarity(a_lanes, b_lanes);
    pair_[static_cast<size_t>(a) * numTypes_ + b].add(measured);
    if (a != b)
        pair_[static_cast<size_t>(b) * numTypes_ + a].add(measured);
}

double
FingerprintTracker::typeSimilarity(uint32_t type) const
{
    RHYTHM_ASSERT(type < numTypes_);
    const Ewma &e = self_[type];
    return e.empty() ? 1.0 : e.value();
}

double
FingerprintTracker::pairSimilarity(uint32_t a, uint32_t b) const
{
    RHYTHM_ASSERT(a < numTypes_ && b < numTypes_);
    const Ewma &measured =
        pair_[static_cast<size_t>(a) * numTypes_ + b];
    if (!measured.empty())
        return measured.value();
    const Ewma &sa = self_[a];
    const Ewma &sb = self_[b];
    if (sa.empty() || sb.empty())
        return 1.0; // Optimistic bootstrap: the first fusion measures it.
    return std::min(sa.value(), sb.value());
}

} // namespace rhythm::analysis
