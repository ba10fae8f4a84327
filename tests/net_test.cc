/**
 * @file
 * Property tests for the open-loop traffic generators (src/net,
 * DESIGN.md Section 6i). Four families of properties:
 *
 *  - Seeded determinism: the same ArrivalConfig always reproduces the
 *    identical arrival stream; different seeds diverge.
 *  - Empirical rate: a long sample's mean rate lands within a tolerance
 *    band of the configured mean (Poisson exactly; diurnal/flash
 *    against their analytic envelope averages).
 *  - Envelope shape: the diurnal rate curve is monotone trough→peak→
 *    trough within each half-period; the flash envelope is exactly
 *    base rate outside the window and multiplied inside.
 *  - Gap positivity: no generated gap is ever zero or negative, under
 *    a fuzz sweep of seeds, rates and shapes — the DES driving loop
 *    would livelock on a zero gap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "des/event_queue.hh"
#include "net/arrival.hh"

namespace {

using namespace rhythm;

net::ArrivalConfig
poissonConfig(double rate, uint64_t seed)
{
    net::ArrivalConfig cfg;
    cfg.kind = net::ArrivalKind::Poisson;
    cfg.rate = rate;
    cfg.seed = seed;
    return cfg;
}

// ---- seeded determinism ------------------------------------------------

TEST(NetArrival, SameSeedSameStream)
{
    for (net::ArrivalKind kind :
         {net::ArrivalKind::Poisson, net::ArrivalKind::Diurnal,
          net::ArrivalKind::Flash}) {
        net::ArrivalConfig cfg = poissonConfig(120e3, 7);
        cfg.kind = kind;
        net::ArrivalProcess a(cfg);
        net::ArrivalProcess b(cfg);
        for (int i = 0; i < 5000; ++i)
            ASSERT_EQ(a.nextGap(), b.nextGap())
                << "kind " << net::arrivalKindName(kind) << " arrival "
                << i;
    }
}

TEST(NetArrival, DifferentSeedsDiverge)
{
    net::ArrivalProcess a(poissonConfig(120e3, 1));
    net::ArrivalProcess b(poissonConfig(120e3, 2));
    bool diverged = false;
    for (int i = 0; i < 100 && !diverged; ++i)
        diverged = a.nextGap() != b.nextGap();
    EXPECT_TRUE(diverged);
}

// ---- empirical rate ----------------------------------------------------

/** Mean empirical rate over @p n arrivals. */
double
empiricalRate(net::ArrivalProcess &p, uint64_t n)
{
    double last = 0.0;
    for (uint64_t i = 0; i < n; ++i)
        last = p.nextArrivalSeconds();
    return static_cast<double>(n) / last;
}

TEST(NetArrival, PoissonEmpiricalRateWithinTolerance)
{
    for (double rate : {30e3, 150e3, 400e3}) {
        net::ArrivalProcess p(poissonConfig(rate, 17));
        const double got = empiricalRate(p, 40000);
        // 40k samples: the sample mean's sigma is rate/sqrt(40k), so a
        // 3% band is > 5 sigma — deterministic seeds keep this stable.
        EXPECT_NEAR(got / rate, 1.0, 0.03) << "rate " << rate;
    }
}

TEST(NetArrival, DiurnalEmpiricalRateMatchesEnvelopeAverage)
{
    net::ArrivalConfig cfg = poissonConfig(200e3, 23);
    cfg.kind = net::ArrivalKind::Diurnal;
    cfg.diurnalTroughFraction = 0.25;
    net::ArrivalProcess p(cfg);
    // Raised cosine between trough and peak: the long-run average is
    // the midpoint of the two rates.
    const double expected = cfg.rate * (1.0 + cfg.diurnalTroughFraction) / 2.0;
    const double got = empiricalRate(p, 40000);
    EXPECT_NEAR(got / expected, 1.0, 0.04);
}

TEST(NetArrival, FlashEmpiricalRateOutsideAndInsideWindow)
{
    net::ArrivalConfig cfg = poissonConfig(100e3, 29);
    cfg.kind = net::ArrivalKind::Flash;
    cfg.flashStartSec = 0.10;
    cfg.flashDurationSec = 0.05;
    cfg.flashMultiplier = 6.0;
    net::ArrivalProcess p(cfg);
    uint64_t before = 0, inside = 0;
    double t = 0.0;
    while (t < cfg.flashStartSec + cfg.flashDurationSec) {
        t = p.nextArrivalSeconds();
        if (t < cfg.flashStartSec)
            ++before;
        else if (t < cfg.flashStartSec + cfg.flashDurationSec)
            ++inside;
    }
    const double base_rate =
        static_cast<double>(before) / cfg.flashStartSec;
    const double flash_rate =
        static_cast<double>(inside) / cfg.flashDurationSec;
    EXPECT_NEAR(base_rate / cfg.rate, 1.0, 0.06);
    EXPECT_NEAR(flash_rate / (cfg.rate * cfg.flashMultiplier), 1.0,
                0.06);
}

// ---- envelope shape ----------------------------------------------------

TEST(NetArrival, DiurnalEnvelopeMonotoneWithinHalfPeriods)
{
    net::ArrivalConfig cfg = poissonConfig(200e3, 1);
    cfg.kind = net::ArrivalKind::Diurnal;
    cfg.diurnalPeriodSec = 0.2;
    cfg.diurnalTroughFraction = 0.25;
    net::ArrivalProcess p(cfg);
    const double half = cfg.diurnalPeriodSec / 2.0;
    // Rising half: trough -> peak, monotone non-decreasing.
    double prev = p.rateAt(0.0);
    EXPECT_NEAR(prev, cfg.rate * cfg.diurnalTroughFraction,
                cfg.rate * 1e-9);
    for (int i = 1; i <= 100; ++i) {
        const double r = p.rateAt(half * i / 100.0);
        ASSERT_GE(r, prev - 1e-9) << "rising sample " << i;
        prev = r;
    }
    EXPECT_NEAR(prev, cfg.rate, cfg.rate * 1e-9);
    // Falling half: peak -> trough, monotone non-increasing.
    for (int i = 1; i <= 100; ++i) {
        const double r = p.rateAt(half + half * i / 100.0);
        ASSERT_LE(r, prev + 1e-9) << "falling sample " << i;
        prev = r;
    }
    // Periodicity: one full period later the curve repeats.
    EXPECT_NEAR(p.rateAt(0.03), p.rateAt(0.03 + cfg.diurnalPeriodSec),
                cfg.rate * 1e-9);
    // The envelope never exceeds the thinning bound.
    for (int i = 0; i <= 200; ++i)
        ASSERT_LE(p.rateAt(cfg.diurnalPeriodSec * i / 200.0),
                  p.peakRate() + 1e-9);
}

TEST(NetArrival, FlashEnvelopeStepsExactlyAtWindow)
{
    net::ArrivalConfig cfg = poissonConfig(80e3, 1);
    cfg.kind = net::ArrivalKind::Flash;
    cfg.flashStartSec = 0.05;
    cfg.flashDurationSec = 0.02;
    cfg.flashMultiplier = 8.0;
    net::ArrivalProcess p(cfg);
    EXPECT_DOUBLE_EQ(p.rateAt(0.0), cfg.rate);
    EXPECT_DOUBLE_EQ(p.rateAt(0.049999), cfg.rate);
    EXPECT_DOUBLE_EQ(p.rateAt(0.05), cfg.rate * 8.0);
    EXPECT_DOUBLE_EQ(p.rateAt(0.069999), cfg.rate * 8.0);
    EXPECT_DOUBLE_EQ(p.rateAt(0.07), cfg.rate);
    EXPECT_DOUBLE_EQ(p.peakRate(), cfg.rate * 8.0);
}

TEST(NetArrival, PoissonEnvelopeIsFlat)
{
    net::ArrivalProcess p(poissonConfig(120e3, 1));
    for (double t : {0.0, 0.01, 0.5, 3.0})
        EXPECT_DOUBLE_EQ(p.rateAt(t), 120e3);
    EXPECT_DOUBLE_EQ(p.peakRate(), 120e3);
}

// ---- gap positivity (fuzz) ---------------------------------------------

TEST(NetArrival, FuzzNoZeroOrNegativeGaps)
{
    // Sweep seeds x kinds x extreme rates; every gap must be >= 1 ps
    // and arrival seconds strictly increasing. Extremely high rates
    // force sub-ps raw gaps, exercising the clamp.
    for (uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
        for (double rate : {1e3, 500e3, 5e9}) {
            for (net::ArrivalKind kind :
                 {net::ArrivalKind::Poisson, net::ArrivalKind::Diurnal,
                  net::ArrivalKind::Flash}) {
                net::ArrivalConfig cfg = poissonConfig(rate, seed);
                cfg.kind = kind;
                cfg.flashMultiplier = 16.0;
                net::ArrivalProcess p(cfg);
                for (int i = 0; i < 2000; ++i)
                    ASSERT_GE(p.nextGap(), des::Time(1))
                        << net::arrivalKindName(kind) << " seed " << seed
                        << " rate " << rate << " arrival " << i;
            }
        }
    }
}

TEST(NetArrival, ArrivalSecondsStrictlyIncrease)
{
    for (net::ArrivalKind kind :
         {net::ArrivalKind::Poisson, net::ArrivalKind::Diurnal,
          net::ArrivalKind::Flash}) {
        net::ArrivalConfig cfg = poissonConfig(300e3, 9);
        cfg.kind = kind;
        net::ArrivalProcess p(cfg);
        double prev = 0.0;
        for (int i = 0; i < 5000; ++i) {
            const double t = p.nextArrivalSeconds();
            ASSERT_GT(t, prev)
                << net::arrivalKindName(kind) << " arrival " << i;
            prev = t;
        }
    }
}

// ---- driving injections on an event queue -------------------------------

TEST(NetArrival, DriveInjectsEachRequestOnceAtTheProcessTimes)
{
    des::EventQueue queue;
    net::ArrivalProcess driven(poissonConfig(1e5, 9));
    net::ArrivalProcess reference(poissonConfig(1e5, 9));
    std::vector<std::pair<uint64_t, des::Time>> injected;
    driven.drive(queue, 5, [&](uint64_t i) {
        injected.emplace_back(i, queue.now());
    });
    queue.run();
    ASSERT_EQ(injected.size(), 5u);
    des::Time at = 0;
    for (uint64_t i = 0; i < 5; ++i) {
        at += reference.nextGap(); // the first arrival is one gap out
        EXPECT_EQ(injected[i].first, i);
        EXPECT_EQ(injected[i].second, at);
    }
    // One event per arrival: the last schedules no successor.
    EXPECT_EQ(queue.dispatched(), 5u);
}

TEST(NetArrival, DriveWithNothingToSendFiresOneEmptyArrival)
{
    des::EventQueue queue;
    net::ArrivalProcess driven(poissonConfig(1e5, 9));
    uint64_t calls = 0;
    driven.drive(queue, 0, [&](uint64_t) { ++calls; });
    queue.run();
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(queue.dispatched(), 1u);
}

// ---- name round-trips --------------------------------------------------

TEST(NetArrival, KindNamesRoundTrip)
{
    for (net::ArrivalKind kind :
         {net::ArrivalKind::Closed, net::ArrivalKind::Poisson,
          net::ArrivalKind::Diurnal, net::ArrivalKind::Flash}) {
        const auto parsed =
            net::parseArrivalKind(net::arrivalKindName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(net::parseArrivalKind("bursty").has_value());
    EXPECT_FALSE(net::parseArrivalKind("").has_value());
}

} // namespace
