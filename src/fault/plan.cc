#include "fault/plan.hh"

#include "util/logging.hh"

namespace rhythm::fault {
namespace {

/// splitmix64 step used to derive independent per-site seeds.
uint64_t
mix(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

bool
FaultConfig::allQuiet() const
{
    for (const SiteSchedule &s : sites) {
        if (s.probability > 0.0)
            return false;
    }
    return true;
}

FaultPlan::FaultPlan(const FaultConfig &config) : config_(config)
{
    for (size_t i = 0; i < kNumSites; ++i) {
        RHYTHM_ASSERT(config_.sites[i].probability >= 0.0 &&
                          config_.sites[i].probability <= 1.0,
                      "fault probability outside [0, 1]");
        RHYTHM_ASSERT(config_.sites[i].factor >= 1.0,
                      "degradation factor below 1");
        state_[i].rng = Rng(mix(config_.seed + 0x5157ull * (i + 1)));
    }
}

Decision
FaultPlan::at(Site site, des::Time now)
{
    SiteState &st = state_[static_cast<size_t>(site)];
    const SiteSchedule &sched = config_.at(site);
    const uint64_t ordinal = st.consultations++;

    // Always draw the same two variates so the stream stays aligned
    // whether or not this consultation fires.
    const double roll = st.rng.nextDouble();
    const double mean =
        sched.meanDelay > 0 ? des::toSeconds(sched.meanDelay) : 1.0;
    const double delay_s = st.rng.nextExponential(mean);

    Decision d;
    const bool targeted = st.scheduled.erase(ordinal) > 0;
    const bool windowed = now >= sched.activeFrom && now < sched.activeUntil;
    if (!targeted && !(windowed && roll < sched.probability))
        return d;

    d.fire = true;
    if (sched.meanDelay > 0)
        d.delay = des::fromSeconds(delay_s);
    d.factor = sched.factor;
    ++st.injected;
    return d;
}

void
FaultPlan::scheduleFault(Site site, uint64_t ordinal)
{
    state_[static_cast<size_t>(site)].scheduled.insert(ordinal);
}

uint64_t
FaultPlan::consultations(Site site) const
{
    return state_[static_cast<size_t>(site)].consultations;
}

uint64_t
FaultPlan::injected(Site site) const
{
    return state_[static_cast<size_t>(site)].injected;
}

uint64_t
FaultPlan::totalInjected() const
{
    uint64_t total = 0;
    for (const SiteState &st : state_)
        total += st.injected;
    return total;
}

} // namespace rhythm::fault
