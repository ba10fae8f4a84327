/**
 * @file
 * Statistics collection: counters, streaming summaries and histograms.
 *
 * These are the measurement primitives used by the simulator, the server
 * pipeline and the benchmark harness (mean/percentile latency, throughput
 * and energy accounting).
 */

#ifndef RHYTHM_UTIL_STATS_HH
#define RHYTHM_UTIL_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace rhythm {

/**
 * Streaming scalar summary: count, sum, min, max, mean and variance
 * (Welford's online algorithm).
 */
class Summary
{
  public:
    /** Records one sample. */
    void add(double value);

    /** Merges another summary into this one. */
    void merge(const Summary &other);

    /** Number of samples recorded. */
    uint64_t count() const { return count_; }

    /** Sum of all samples (0 when empty). */
    double sum() const { return sum_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /** Minimum sample (+inf when empty). */
    double min() const { return min_; }

    /** Maximum sample (-inf when empty). */
    double max() const { return max_; }

    /** Population variance (0 for fewer than two samples). */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 1.0 / 0.0;
    double max_ = -1.0 / 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/**
 * An exact-percentile histogram that retains all samples.
 *
 * Intended for offline experiment analysis where sample counts are in the
 * millions at most; percentile queries sort lazily and cache the order.
 */
class Histogram
{
  public:
    /** Records one sample. */
    void add(double value);

    /** Number of samples recorded. */
    uint64_t count() const { return samples_.size(); }

    /** Arithmetic mean (0 when empty). */
    double mean() const;

    /**
     * Returns the given percentile via nearest-rank interpolation.
     * @param p Percentile in [0, 100]. Returns 0 when empty.
     */
    double percentile(double p) const;

    /** Convenience: the 50th percentile. */
    double median() const { return percentile(50.0); }

    /** Removes all samples. */
    void clear();

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * A fixed-window percentile tracker over the most recent samples.
 *
 * The load shedder needs "observed p99 latency right now", not the
 * whole-run percentile a Histogram gives: after a brownout clears, old
 * slow samples must age out so the server exits degraded mode. Keeps a
 * ring of the last `window` samples; percentile queries select over the
 * ring (O(window)) with the result cached until the next add.
 */
class WindowedPercentile
{
  public:
    /** @param window Samples retained; must be positive. */
    explicit WindowedPercentile(size_t window = 512);

    /** Records one sample, evicting the oldest beyond the window. */
    void add(double value);

    /** Samples ever recorded (not capped by the window). */
    uint64_t totalCount() const { return total_; }

    /**
     * Returns the given percentile over the current window via
     * nearest-rank selection. @param p Percentile in [0, 100].
     * Returns 0 when the window is empty.
     */
    double percentile(double p) const;

  private:
    size_t window_;
    std::vector<double> ring_;
    size_t next_ = 0;
    uint64_t total_ = 0;
    mutable bool cacheValid_ = false;
    mutable double cachedP_ = -1.0;
    mutable double cachedValue_ = 0.0;
    mutable std::vector<double> scratch_;
};

/**
 * An exponentially weighted moving average.
 *
 * The adaptive cohort batcher (DESIGN.md Section 6i) models the
 * launch+PCIe+kernel cost of a cohort as an EWMA of recent pipeline
 * times; the smoothing keeps the slack test responsive to load shifts
 * without chasing single-cohort noise.
 */
class Ewma
{
  public:
    /** @param alpha Smoothing factor in (0, 1]; 1 = last sample only. */
    explicit Ewma(double alpha = 0.25);

    /** Records one sample (the first sample seeds the average). */
    void add(double sample);

    /** True before any sample was recorded. */
    bool empty() const { return count_ == 0; }

    /** Samples recorded. */
    uint64_t count() const { return count_; }

    /** Current average (0 when empty). */
    double value() const { return value_; }

  private:
    double alpha_;
    double value_ = 0.0;
    uint64_t count_ = 0;
};

/**
 * A weighted-harmonic-mean accumulator.
 *
 * The paper combines per-request-type efficiencies into a workload
 * efficiency using a weighted harmonic mean (Section 5.3.1); this class
 * implements that combination rule.
 */
class WeightedHarmonicMean
{
  public:
    /**
     * Adds one component.
     * @param weight Relative weight (e.g. request-mix fraction); > 0.
     * @param value Component value (e.g. requests/Joule); > 0.
     */
    void add(double weight, double value);

    /** The weighted harmonic mean, or 0 when no components were added. */
    double value() const;

  private:
    double weightSum_ = 0.0;
    double weightedReciprocals_ = 0.0;
};

} // namespace rhythm

#endif // RHYTHM_UTIL_STATS_HH
