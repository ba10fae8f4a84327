/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue owns simulated time. Components schedule callbacks
 * at absolute or relative times; run() dispatches them in (time, sequence)
 * order, so events scheduled for the same instant fire in FIFO order,
 * which keeps every experiment deterministic.
 *
 * Multi-device fleets give each device its own *event stream*. A stream
 * is an independently sequenced sub-queue; the queue merges stream fronts
 * in canonical order — lowest timestamp first, ties broken by lowest
 * stream id, then by per-stream FIFO sequence. Stream ids are unique, so
 * the merge order is a total order and stays byte-identical no matter how
 * the per-stream sub-queues were filled. Events scheduled from inside a
 * callback inherit the dispatching event's stream, so a shard's whole
 * causal chain stays on the shard's stream without the scheduling sites
 * needing to know about streams at all. Single-device runs use only the
 * default stream 0 and are bit-for-bit identical to the pre-stream
 * kernel, including the orderHash audit fold.
 */

#ifndef RHYTHM_DES_EVENT_QUEUE_HH
#define RHYTHM_DES_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "des/time.hh"

namespace rhythm::des {

/** Identifies one per-device event stream. Stream 0 always exists. */
using StreamId = uint32_t;

/** Opaque handle identifying a scheduled event (for cancellation). */
struct EventId
{
    Time when = 0;
    uint64_t sequence = 0;
    StreamId stream = 0;

    bool operator==(const EventId &) const = default;
};

/**
 * The simulation event queue and clock.
 *
 * Not thread safe by design: the Rhythm server is single threaded (one of
 * the paper's explicit design points) and the whole simulation runs on one
 * host thread.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedules a callback at an absolute simulated time on the current
     * stream (the stream of the event being dispatched, or stream 0 at
     * top level).
     * @param when Absolute time; must be >= now().
     * @return Handle usable with cancel().
     */
    EventId scheduleAt(Time when, Callback cb);

    /** Schedules a callback @p delay after the current time. */
    EventId scheduleAfter(Time delay, Callback cb);

    /** Schedules on an explicit stream (cross-shard messaging). */
    EventId scheduleAtOn(StreamId stream, Time when, Callback cb);

    /** Relative-time variant of scheduleAtOn(). */
    EventId scheduleAfterOn(StreamId stream, Time delay, Callback cb);

    /**
     * Creates a new event stream and returns its id. Streams are never
     * destroyed; a fleet creates one per device at startup.
     */
    StreamId createStream();

    /**
     * Stream of the event currently being dispatched (stream 0 between
     * events). scheduleAt()/scheduleAfter() inherit this, so everything a
     * shard's callbacks schedule lands back on the shard's stream.
     */
    StreamId currentStream() const { return currentStream_; }

    /**
     * Cancels a pending event.
     * @return true if the event was pending and has been removed.
     */
    bool cancel(const EventId &id);

    /** Number of pending events across all streams. */
    size_t pending() const { return pendingCount_; }

    /**
     * Events dispatched over the queue's lifetime. Useful as a cheap
     * progress watchdog: a simulation that stops making progress stops
     * advancing this counter even when pending() stays non-zero.
     */
    uint64_t dispatched() const { return dispatched_; }

    /**
     * Order-audit fingerprint: an FNV-1a hash folded over the
     * (when, sequence) key of every event dispatched so far — plus the
     * stream id for events on streams other than the default, so a
     * fleet's canonical merge order is audited too. Host-side
     * parallelism happens strictly *inside* one event callback (the
     * engine joins its workers before returning), so this hash must be
     * invariant under --sim-threads; the equivalence tests compare it
     * across thread counts to prove the DES schedule — every epoch
     * barrier between events — is untouched by parallel execution.
     * Stream-0-only runs fold exactly the same bytes as the
     * pre-stream kernel.
     */
    uint64_t orderHash() const { return orderHash_; }

    /**
     * Runs until the queue drains or the optional horizon is reached.
     * @param horizon Stop once the next event is strictly beyond this
     *        time (the clock is advanced to the horizon). 0 = no horizon.
     * @return Number of events dispatched.
     */
    uint64_t run(Time horizon = 0);

    /** Dispatches exactly one event if any is pending. @return true if so. */
    bool step();

    /** Requests that run() return after the current event completes. */
    void stop() { stopRequested_ = true; }

    /**
     * RAII guard that redirects scheduleAt()/scheduleAfter() onto a given
     * stream for its lifetime. Used at top level to build a shard (so the
     * shard's initial events land on its stream); during dispatch the
     * inherited stream already does the right thing.
     */
    class StreamScope
    {
      public:
        StreamScope(EventQueue &queue, StreamId stream)
            : queue_(queue), saved_(queue.currentStream_)
        {
            queue_.currentStream_ = stream;
        }
        ~StreamScope() { queue_.currentStream_ = saved_; }
        StreamScope(const StreamScope &) = delete;
        StreamScope &operator=(const StreamScope &) = delete;

      private:
        EventQueue &queue_;
        StreamId saved_;
    };

  private:
    using Key = std::pair<Time, uint64_t>;

    /** One per-device sub-queue with its own FIFO sequence counter. */
    struct Stream
    {
        std::map<Key, Callback> events;
        uint64_t nextSequence = 0;
    };

    /** Index of the stream holding the canonically-next event, or
     *  streams_.size() when every stream is empty. */
    size_t frontStream() const;

    Time now_ = 0;
    StreamId currentStream_ = 0;
    uint64_t dispatched_ = 0;
    uint64_t orderHash_ = 14695981039346656037ull; //!< FNV-1a offset basis.
    size_t pendingCount_ = 0;
    bool stopRequested_ = false;
    std::vector<Stream> streams_{1};
};

} // namespace rhythm::des

#endif // RHYTHM_DES_EVENT_QUEUE_HH
