/**
 * @file
 * Span-based tracer recording against the DES clock.
 *
 * Spans and instants are recorded on integer tracks (rendered as
 * threads by trace viewers) and exported as Chrome trace_event JSON,
 * loadable in chrome://tracing or https://ui.perfetto.dev. Timestamps
 * are simulated time (picoseconds internally, microseconds in the
 * export), so a trace shows the *modelled* pipeline concurrency:
 * cohort contexts overlapping, kernels sharing hardware queues, PCIe
 * engines serializing copies.
 *
 * A span is one complete event with a known start and end ("X"): in an
 * event-driven pipeline the end of a stage is the natural recording
 * point. Instants ("i") mark faults, shedding and degradation.
 */

#ifndef RHYTHM_OBS_TRACE_HH
#define RHYTHM_OBS_TRACE_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "des/time.hh"
#include "obs/json.hh"

namespace rhythm::obs {

/**
 * Tracks are partitioned into per-process blocks of this size for the
 * Chrome export: an event's pid is track / kTrackPidStride and its tid
 * is track % kTrackPidStride. The single-device simulator uses only
 * tracks < kTrackPidStride (pid 0, process "rhythm"); a fleet offsets
 * device i's tracks by (i + 1) * kTrackPidStride so each device
 * renders as its own process row.
 */
inline constexpr uint32_t kTrackPidStride = 1000;

/** One key/value annotation attached to a trace event. */
struct TraceArg
{
    TraceArg(const char *k, double v) : key(k), num(v) {}
    TraceArg(const char *k, uint64_t v)
        : key(k), num(static_cast<double>(v))
    {
    }
    TraceArg(const char *k, std::string v)
        : key(k), str(std::move(v)), isString(true)
    {
    }

    const char *key;
    double num = 0.0;
    std::string str;
    bool isString = false;
};

/** One recorded trace event. */
struct TraceEvent
{
    enum class Phase : char {
        Complete = 'X',
        Instant = 'i',
    };

    uint32_t track = 0;
    Phase phase = Phase::Complete;
    std::string name;
    const char *category = "";
    des::Time ts = 0;  //!< Start (or instant) time.
    des::Time dur = 0; //!< Duration (Complete only).
    std::vector<TraceArg> args;
};

/** Records spans/instants and exports Chrome trace_event JSON. */
class Tracer
{
  public:
    /** Names a track (idempotent; first name wins). */
    void setTrackName(uint32_t track, std::string_view name);

    /**
     * Names a process block (pid = track / kTrackPidStride) in the
     * Chrome export. Pid 0 defaults to "rhythm"; a fleet names pid
     * i + 1 "dev<i>". Idempotent; first name wins.
     */
    void setProcessName(uint32_t pid, std::string_view name);

    /** Records a span with known start and end. */
    void complete(uint32_t track, std::string name,
                  const char *category, des::Time start, des::Time end,
                  std::vector<TraceArg> args = {});

    /** Records an instantaneous event. */
    void instant(uint32_t track, std::string name,
                 const char *category, des::Time now,
                 std::vector<TraceArg> args = {});

    /** Events recorded so far. */
    const std::vector<TraceEvent> &events() const { return events_; }

    /** Drops all events (track names survive). */
    void clear();

    /**
     * Writes the Chrome trace_event JSON object. Events are sorted by
     * timestamp (stable, so same-instant events keep their recording
     * order); track names become thread_name metadata.
     */
    void writeChromeTrace(std::ostream &out) const;

  private:
    std::vector<TraceEvent> events_;
    std::map<uint32_t, std::string> trackNames_;
    std::map<uint32_t, std::string> processNames_;
};

} // namespace rhythm::obs

#endif // RHYTHM_OBS_TRACE_HH
