#include "des/event_queue.hh"

#include "util/logging.hh"

namespace rhythm::des {

EventId
EventQueue::scheduleAt(Time when, Callback cb)
{
    return scheduleAtOn(currentStream_, when, std::move(cb));
}

EventId
EventQueue::scheduleAfter(Time delay, Callback cb)
{
    return scheduleAtOn(currentStream_, now_ + delay, std::move(cb));
}

EventId
EventQueue::scheduleAtOn(StreamId stream, Time when, Callback cb)
{
    RHYTHM_ASSERT(when >= now_, "cannot schedule into the past");
    RHYTHM_ASSERT(cb, "null event callback");
    RHYTHM_ASSERT(stream < streams_.size(), "unknown event stream");
    Stream &s = streams_[stream];
    EventId id{when, s.nextSequence++, stream};
    s.events.emplace(Key{id.when, id.sequence}, std::move(cb));
    ++pendingCount_;
    return id;
}

EventId
EventQueue::scheduleAfterOn(StreamId stream, Time delay, Callback cb)
{
    return scheduleAtOn(stream, now_ + delay, std::move(cb));
}

StreamId
EventQueue::createStream()
{
    streams_.emplace_back();
    return static_cast<StreamId>(streams_.size() - 1);
}

bool
EventQueue::cancel(const EventId &id)
{
    if (id.stream >= streams_.size())
        return false;
    if (streams_[id.stream].events.erase(Key{id.when, id.sequence}) == 0)
        return false;
    --pendingCount_;
    return true;
}

size_t
EventQueue::frontStream() const
{
    // Canonical merge: lowest front timestamp wins; ties break toward the
    // lowest stream id. Stream ids are unique, so this totally orders the
    // fronts regardless of how the sub-queues were populated.
    size_t best = streams_.size();
    Time bestTime = 0;
    for (size_t s = 0; s < streams_.size(); ++s) {
        const auto &events = streams_[s].events;
        if (events.empty())
            continue;
        const Time t = events.begin()->first.first;
        if (best == streams_.size() || t < bestTime) {
            best = s;
            bestTime = t;
        }
    }
    return best;
}

uint64_t
EventQueue::run(Time horizon)
{
    stopRequested_ = false;
    uint64_t dispatched = 0;
    while (pendingCount_ > 0 && !stopRequested_) {
        const size_t front = frontStream();
        if (horizon != 0 &&
            streams_[front].events.begin()->first.first > horizon) {
            now_ = horizon;
            return dispatched;
        }
        if (!step())
            break;
        ++dispatched;
    }
    if (horizon != 0 && now_ < horizon && pendingCount_ == 0)
        now_ = horizon;
    return dispatched;
}

namespace {

/// Folds one 64-bit value into an FNV-1a hash, byte by byte.
uint64_t
fnv1a(uint64_t hash, uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (i * 8)) & 0xff;
        hash *= 1099511628211ull;
    }
    return hash;
}

} // namespace

bool
EventQueue::step()
{
    const size_t front = frontStream();
    if (front == streams_.size())
        return false;
    Stream &stream = streams_[front];
    auto it = stream.events.begin();
    RHYTHM_ASSERT(it->first.first >= now_, "event queue went backwards");
    const Key key = it->first;
    now_ = key.first;
    Callback cb = std::move(it->second);
    stream.events.erase(it);
    --pendingCount_;
    ++dispatched_;
    orderHash_ =
        fnv1a(fnv1a(orderHash_, static_cast<uint64_t>(key.first)), key.second);
    if (front != 0) {
        // Fold the stream id too so the audit covers the canonical merge.
        // Stream-0 events keep the exact pre-stream fold, which keeps
        // single-device runs byte-identical to the seed kernel.
        orderHash_ = fnv1a(orderHash_, static_cast<uint64_t>(front));
    }
    const StreamId saved = currentStream_;
    currentStream_ = static_cast<StreamId>(front);
    cb();
    currentStream_ = saved;
    return true;
}

} // namespace rhythm::des
