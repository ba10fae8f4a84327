/**
 * @file
 * The observability context and the OBS_* instrumentation macro layer.
 *
 * One process-wide Observability object binds the span tracer to a DES
 * clock. It is DISABLED by default: every OBS_* macro compiles to a
 * single branch on one global bool, so the instrumented hot paths
 * (server stages, kernel launches, PCIe transfers) cost nothing
 * measurable when observability is off and the default figure outputs
 * stay byte-identical to the seed.
 *
 * Counts are not kept here: each lives once, in its component's stats
 * (RhythmStats, Device::Stats, RecoveryStats, ...), and rhythm_sim and
 * the benches read them from there. A program that wants a trace calls
 *
 *     obs::global().enable(queue);   // right after creating the queue
 *     ... run the simulation ...
 *     obs::global().tracer().writeChromeTrace(out);
 *     obs::global().disable();       // and reset() between runs
 *
 * Defining RHYTHM_OBS_DISABLED at compile time removes the
 * instrumentation entirely (the macros expand to nothing) for builds
 * that want provably-zero overhead.
 */

#ifndef RHYTHM_OBS_OBS_HH
#define RHYTHM_OBS_OBS_HH

#include <atomic>

#include "des/event_queue.hh"
#include "obs/trace.hh"

namespace rhythm::obs {

/** Fixed track ids used by the built-in instrumentation. */
namespace track {
/** Pipeline-stage tracks. */
inline constexpr uint32_t kReader = 1;
inline constexpr uint32_t kParser = 2;
/** Per-cohort-context tracks: kCohortBase + context id. */
inline constexpr uint32_t kCohortBase = 100;
/** Per-hardware-work-queue tracks: kHwqBase + queue index. */
inline constexpr uint32_t kHwqBase = 300;
/** PCIe DMA engine tracks. */
inline constexpr uint32_t kPcieH2D = 500;
inline constexpr uint32_t kPcieD2H = 501;
/** Per-copy-engine tracks (overlapped copy model, DESIGN.md 6h):
 *  kPcieH2DEngineBase + engine index / kPcieD2HEngineBase + index. */
inline constexpr uint32_t kPcieH2DEngineBase = 510;
inline constexpr uint32_t kPcieD2HEngineBase = 550;
/** Instant events: faults, shedding, degradation transitions. */
inline constexpr uint32_t kEvents = 600;
/**
 * Per-stream track offset stride: the tracks of DES stream s live at
 * s * kDeviceStride + base, which the Chrome exporter renders as
 * process s (see trace.hh kTrackPidStride). A fleet runs device i on
 * stream i + 1 and names that process "dev<i>". All base tracks above
 * are < kDeviceStride, so blocks never collide.
 */
inline constexpr uint32_t kDeviceStride = kTrackPidStride;
} // namespace track

/** The process-wide observability context. */
class Observability
{
  public:
    /**
     * True when instrumentation is recording. Readable from engine
     * pool workers (relaxed atomic); enable()/disable() happen on the
     * DES thread outside parallel regions.
     */
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /**
     * Starts recording against @p clock. The clock must outlive the
     * enabled period (disable() before destroying the queue).
     */
    void enable(const des::EventQueue &clock)
    {
        clock_ = &clock;
        enabled_ = true;
        tracer_.setTrackName(track::kReader, "reader");
        tracer_.setTrackName(track::kParser, "parser");
        tracer_.setTrackName(track::kEvents, "events");
    }

    /** Stops recording (data is retained until reset()). */
    void disable()
    {
        enabled_ = false;
        clock_ = nullptr;
    }

    /** Clears trace events. */
    void reset() { tracer_.clear(); }

    /** Current simulated time (0 when no clock is bound). */
    des::Time now() const { return clock_ ? clock_->now() : 0; }

    /** Nothing to clear: track blocks follow stream ids (mapTrack).
     *  Kept because perfbench/runner.cc still calls it. */
    void clearDeviceBindings() {}

    /**
     * Maps a base track id into the block of the DES stream being
     * dispatched (or set by a StreamScope): stream s's tracks live at
     * s * kDeviceStride + track. Single-device runs use stream 0 only,
     * so their tracks are the raw ids. Used by the OBS_* macros.
     */
    uint32_t mapTrack(uint32_t track) const
    {
        return clock_ ? track + clock_->currentStream() * track::kDeviceStride
                      : track;
    }

    Tracer &tracer() { return tracer_; }

  private:
    std::atomic<bool> enabled_{false};
    const des::EventQueue *clock_ = nullptr;
    Tracer tracer_;
};

/**
 * The global observability context. Lifecycle calls (enable/disable/
 * reset) and tracer use are DES-thread-only; enabled() is safe from
 * engine pool workers.
 */
Observability &global();

} // namespace rhythm::obs

// ---- Instrumentation macros ------------------------------------------
//
// Every macro is a no-op unless obs::global().enabled(); with
// RHYTHM_OBS_DISABLED they vanish at compile time.

#ifdef RHYTHM_OBS_DISABLED

#define OBS_ENABLED() false
#define OBS_TRACK_NAME(track, name) \
    do {                            \
    } while (0)
#define OBS_SPAN_COMPLETE(track, name, cat, start, end, ...) \
    do {                                                     \
    } while (0)
#define OBS_INSTANT(track, name, cat, ...) \
    do {                                   \
    } while (0)

#else

#define OBS_ENABLED() (::rhythm::obs::global().enabled())

// Track arguments below route through mapTrack: a fleet device's
// stream shifts them into its block, and stream 0 (every
// single-device run) resolves to the raw track.

/** Names a trace track (idempotent). */
#define OBS_TRACK_NAME(track, name)                                  \
    do {                                                             \
        if (OBS_ENABLED())                                           \
            ::rhythm::obs::global().tracer().setTrackName(           \
                ::rhythm::obs::global().mapTrack(track), (name));    \
    } while (0)

/**
 * Records a span with explicit start/end; trailing arguments are
 * obs::TraceArg annotations.
 */
#define OBS_SPAN_COMPLETE(track, name, cat, start, end, ...)          \
    do {                                                              \
        if (OBS_ENABLED())                                            \
            ::rhythm::obs::global().tracer().complete(                \
                ::rhythm::obs::global().mapTrack(track), (name),      \
                (cat), (start), (end), {__VA_ARGS__});                \
    } while (0)

/** Records an instantaneous event at the current simulated time. */
#define OBS_INSTANT(track, name, cat, ...)                            \
    do {                                                              \
        if (OBS_ENABLED())                                            \
            ::rhythm::obs::global().tracer().instant(                 \
                ::rhythm::obs::global().mapTrack(track), (name),      \
                (cat), ::rhythm::obs::global().now(),                 \
                {__VA_ARGS__});                                       \
    } while (0)

#endif // RHYTHM_OBS_DISABLED

#endif // RHYTHM_OBS_OBS_HH
