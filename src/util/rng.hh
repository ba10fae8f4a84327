/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the library (request mixes, arrival
 * processes, session identifiers, synthetic database population) flows
 * through Rng so that every experiment is reproducible from a seed.
 */

#ifndef RHYTHM_UTIL_RNG_HH
#define RHYTHM_UTIL_RNG_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/logging.hh"

namespace rhythm {

/**
 * A small, fast, deterministic generator (xoshiro256**).
 *
 * Not cryptographic; used only for workload synthesis and sampling.
 */
class Rng
{
  public:
    /** Constructs a generator from a 64-bit seed via splitmix64. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Returns the next 64 random bits. */
    uint64_t next();

    /** Returns a uniform integer in [0, bound). Requires bound > 0. */
    uint64_t nextBounded(uint64_t bound);

    /** Returns a uniform integer in [lo, hi]. Requires lo <= hi. */
    int64_t nextRange(int64_t lo, int64_t hi);

    /** Returns a uniform double in [0, 1). */
    double nextDouble();

    /** Returns true with the given probability (clamped to [0, 1]). */
    bool nextBool(double probability);

    /**
     * Samples an exponential inter-arrival gap with the given mean.
     * @param mean Mean of the distribution; must be positive.
     */
    double nextExponential(double mean);

    /**
     * Raw generator state, for snapshot/restore (crash-recovery
     * checkpoints must capture every deterministic input, and session
     * id probing draws from an Rng). A restored generator continues
     * the exact variate stream of the captured one.
     */
    std::array<uint64_t, 4> state() const
    {
        return {state_[0], state_[1], state_[2], state_[3]};
    }

    /** Restores state captured with state(). */
    void setState(const std::array<uint64_t, 4> &s)
    {
        for (size_t i = 0; i < 4; ++i)
            state_[i] = s[i];
    }

  private:
    uint64_t state_[4];
};

/**
 * Samples rows of a mix table (request types and their shares of the
 * traffic): the running sums of the shares over their total, the last
 * pinned to 1.0. A draw takes one nextDouble() and returns the first
 * row whose running share covers it.
 */
class MixSampler
{
  public:
    /** Builds from the member @p share of each row of @p rows. */
    template <class Row, size_t Extent>
    MixSampler(std::span<const Row, Extent> rows, double Row::*share)
    {
        RHYTHM_ASSERT(!rows.empty());
        double total = 0.0;
        for (const Row &row : rows)
            total += row.*share;
        double acc = 0.0;
        for (const Row &row : rows) {
            acc += row.*share / total;
            cumulative_.push_back(acc);
        }
        cumulative_.back() = 1.0;
    }

    /** Draws one row index from @p rng. */
    size_t
    draw(Rng &rng) const
    {
        const double u = rng.nextDouble();
        size_t row = 0;
        while (u > cumulative_[row])
            ++row;
        return row;
    }

  private:
    std::vector<double> cumulative_;
};

} // namespace rhythm

#endif // RHYTHM_UTIL_RNG_HH
