#include "net/arrival.hh"

#include <cmath>
#include <numbers>

#include "util/logging.hh"

namespace rhythm::net {
namespace {

/** Smallest inter-arrival gap, in seconds (1 ps: the des::Time tick). */
constexpr double kMinGapSeconds = 1e-12;

/** Salt separating a schedule's type stream from its time stream. */
constexpr uint64_t kTypeStreamSalt = 0x7ad5'1e57'9e37'79b9ull;

} // namespace

std::string_view
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Closed:
        return "closed";
      case ArrivalKind::Poisson:
        return "poisson";
      case ArrivalKind::Diurnal:
        return "diurnal";
      case ArrivalKind::Flash:
        return "flash";
    }
    return "unknown";
}

std::optional<ArrivalKind>
parseArrivalKind(std::string_view name)
{
    if (name == "closed")
        return ArrivalKind::Closed;
    if (name == "poisson")
        return ArrivalKind::Poisson;
    if (name == "diurnal")
        return ArrivalKind::Diurnal;
    if (name == "flash")
        return ArrivalKind::Flash;
    return std::nullopt;
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig &config)
    : config_(config), rng_(config.seed)
{
    RHYTHM_ASSERT(config_.rate > 0.0);
    if (config_.kind == ArrivalKind::Diurnal) {
        RHYTHM_ASSERT(config_.diurnalPeriodSec > 0.0);
        RHYTHM_ASSERT(config_.diurnalTroughFraction > 0.0 &&
                      config_.diurnalTroughFraction <= 1.0);
    }
    if (config_.kind == ArrivalKind::Flash) {
        RHYTHM_ASSERT(config_.flashMultiplier >= 1.0);
        RHYTHM_ASSERT(config_.flashDurationSec >= 0.0);
    }
}

double
ArrivalProcess::rateAt(double t) const
{
    switch (config_.kind) {
      case ArrivalKind::Closed:
      case ArrivalKind::Poisson:
        return config_.rate;
      case ArrivalKind::Diurnal: {
        // Raised cosine between the trough (t = 0 mod period) and the
        // peak (mid-period): monotone non-decreasing over the first
        // half of each period and non-increasing over the second half.
        const double trough = config_.rate * config_.diurnalTroughFraction;
        const double phase = 2.0 * std::numbers::pi *
                             (t / config_.diurnalPeriodSec);
        return trough +
               (config_.rate - trough) * 0.5 * (1.0 - std::cos(phase));
      }
      case ArrivalKind::Flash: {
        const bool in_spike =
            t >= config_.flashStartSec &&
            t < config_.flashStartSec + config_.flashDurationSec;
        return in_spike ? config_.rate * config_.flashMultiplier
                        : config_.rate;
      }
    }
    return config_.rate;
}

double
ArrivalProcess::peakRate() const
{
    if (config_.kind == ArrivalKind::Flash)
        return config_.rate * config_.flashMultiplier;
    return config_.rate;
}

double
ArrivalProcess::nextArrivalSeconds()
{
    // Lewis-Shedler thinning: candidate gaps at the envelope peak
    // rate, each candidate accepted with probability rate(t)/peak.
    // Homogeneous kinds accept every candidate, so they consume one
    // uniform variate less per arrival — the streams are deliberately
    // kind-specific but seed-deterministic.
    const double peak = peakRate();
    const bool homogeneous = config_.kind == ArrivalKind::Closed ||
                             config_.kind == ArrivalKind::Poisson;
    for (;;) {
        const double gap =
            std::max(rng_.nextExponential(1.0 / peak), kMinGapSeconds);
        lastSeconds_ += gap;
        if (homogeneous ||
            rng_.nextDouble() * peak < rateAt(lastSeconds_))
            return lastSeconds_;
    }
}

des::Time
ArrivalProcess::nextGap()
{
    const des::Time at = des::fromSeconds(nextArrivalSeconds());
    // Quantization to integer picoseconds may collapse a sub-ps gap to
    // zero; clamp so consecutive schedule points never tie (a tie
    // would make the DES event order depend on scheduling internals).
    const des::Time gap = at > lastTick_ ? at - lastTick_ : 1;
    lastTick_ += gap;
    return gap;
}

void
ArrivalProcess::drive(des::EventQueue &queue, uint64_t count,
                      std::function<void(uint64_t)> inject)
{
    queue_ = &queue;
    count_ = count;
    next_ = 0;
    inject_ = std::move(inject);
    queue.scheduleAfter(nextGap(), [this] { arrive(); });
}

void
ArrivalProcess::arrive()
{
    if (next_ >= count_)
        return;
    inject_(next_++);
    if (next_ < count_)
        queue_->scheduleAfter(nextGap(), [this] { arrive(); });
}

std::vector<ScheduleEntry>
buildSchedule(const ArrivalConfig &config,
              std::span<const double> typeWeights, uint64_t count)
{
    RHYTHM_ASSERT(!typeWeights.empty());
    double total = 0.0;
    for (double w : typeWeights) {
        RHYTHM_ASSERT(w >= 0.0);
        total += w;
    }
    RHYTHM_ASSERT(total > 0.0);

    ArrivalProcess arrivals(config);
    // Independent type stream: same seed family, different stream, so
    // changing the mix never perturbs the arrival times (and vice
    // versa).
    Rng type_rng(config.seed ^ kTypeStreamSalt);

    std::vector<ScheduleEntry> schedule;
    schedule.reserve(count);
    des::Time at = 0;
    for (uint64_t i = 0; i < count; ++i) {
        at += arrivals.nextGap();
        const double pick = type_rng.nextDouble() * total;
        double cumulative = 0.0;
        uint32_t type = static_cast<uint32_t>(typeWeights.size()) - 1;
        for (size_t t = 0; t < typeWeights.size(); ++t) {
            cumulative += typeWeights[t];
            if (pick < cumulative) {
                type = static_cast<uint32_t>(t);
                break;
            }
        }
        schedule.push_back(ScheduleEntry{at, type});
    }
    return schedule;
}

} // namespace rhythm::net
