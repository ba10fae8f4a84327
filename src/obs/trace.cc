#include "obs/trace.hh"

#include <algorithm>
#include <numeric>

namespace rhythm::obs {
namespace {

/** Chrome trace timestamps are microseconds; DES time is picoseconds. */
double
toTraceUs(des::Time t)
{
    return des::toMicros(t);
}

void
writeArgs(JsonWriter &w, const std::vector<TraceArg> &args)
{
    if (args.empty())
        return;
    w.key("args");
    w.beginObject();
    for (const TraceArg &a : args) {
        w.key(a.key);
        if (a.isString)
            w.value(std::string_view(a.str));
        else
            w.value(a.num);
    }
    w.endObject();
}

} // namespace

void
Tracer::setTrackName(uint32_t track, std::string_view name)
{
    trackNames_.emplace(track, std::string(name));
}

void
Tracer::setProcessName(uint32_t pid, std::string_view name)
{
    processNames_.emplace(pid, std::string(name));
}

void
Tracer::complete(uint32_t track, std::string name, const char *category,
                 des::Time start, des::Time end,
                 std::vector<TraceArg> args)
{
    events_.push_back(TraceEvent{track, TraceEvent::Phase::Complete,
                                 std::move(name), category, start,
                                 end >= start ? end - start : 0,
                                 std::move(args)});
}

void
Tracer::instant(uint32_t track, std::string name, const char *category,
                des::Time now, std::vector<TraceArg> args)
{
    events_.push_back(TraceEvent{track, TraceEvent::Phase::Instant,
                                 std::move(name), category, now, 0,
                                 std::move(args)});
}

void
Tracer::clear()
{
    events_.clear();
}

void
Tracer::writeChromeTrace(std::ostream &out) const
{
    // Stable sort by timestamp: complete events are recorded at their
    // *end* time, so recording order is not timestamp order; viewers
    // want sorted input. Stability keeps same-instant events in
    // recording order, so the export is deterministic.
    std::vector<size_t> order(events_.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [this](size_t a, size_t b) {
                         return events_[a].ts < events_[b].ts;
                     });

    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            out << ",\n";
        first = false;
    };

    sep();
    out << "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, "
           "\"name\": \"process_name\", "
           "\"args\": {\"name\": \"rhythm\"}}";
    std::string escaped;
    for (const auto &[pid, name] : processNames_) {
        if (pid == 0)
            continue; // pid 0 is always "rhythm", emitted above
        sep();
        escaped.clear();
        jsonEscapeTo(name, escaped);
        out << "{\"ph\": \"M\", \"pid\": " << pid
            << ", \"tid\": 0, \"name\": \"process_name\", "
               "\"args\": {\"name\": \""
            << escaped << "\"}}";
    }
    for (const auto &[track, name] : trackNames_) {
        sep();
        escaped.clear();
        jsonEscapeTo(name, escaped);
        out << "{\"ph\": \"M\", \"pid\": " << track / kTrackPidStride
            << ", \"tid\": " << track % kTrackPidStride
            << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
            << escaped << "\"}}";
    }

    // One writer for every event: after the top-level endObject its
    // level stack is empty again, so the next beginObject starts a
    // fresh document — byte-identical to a per-event writer, without
    // re-allocating the stack and scratch buffers per event.
    JsonWriter ew(out, 0);
    for (size_t idx : order) {
        const TraceEvent &e = events_[idx];
        sep();
        ew.beginObject();
        const char phase = static_cast<char>(e.phase);
        ew.key("ph");
        ew.value(std::string_view(&phase, 1));
        ew.key("pid");
        ew.value(static_cast<uint64_t>(e.track / kTrackPidStride));
        ew.key("tid");
        ew.value(static_cast<uint64_t>(e.track % kTrackPidStride));
        ew.key("ts");
        ew.value(toTraceUs(e.ts));
        if (e.phase == TraceEvent::Phase::Complete) {
            ew.key("dur");
            ew.value(toTraceUs(e.dur));
        }
        ew.key("name");
        ew.value(std::string_view(e.name));
        if (e.category[0] != '\0') {
            ew.key("cat");
            ew.value(std::string_view(e.category));
        }
        if (e.phase == TraceEvent::Phase::Instant) {
            ew.key("s");
            ew.value("t"); // thread-scoped instant
        }
        writeArgs(ew, e.args);
        ew.endObject();
    }
    out << "\n]}\n";
}

} // namespace rhythm::obs
