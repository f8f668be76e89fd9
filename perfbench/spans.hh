/**
 * @file
 * In-memory host-time spans for the benchmark's traced run.
 *
 * Every span records its name (the layer it times), start and end on
 * the host's steady clock, the span that encloses it, and a request id
 * (serve spans of one request share it; a wave span lists the ids it
 * dispatched). Spans are recorded only around the benchmark's own calls
 * into the simulator's public functions, so they nest strictly: a
 * span's self time is its duration minus the durations of its direct
 * children, and the self times of all spans under a root sum exactly to
 * the root's duration.
 *
 * With tracing off a Scope costs one branch; spans are written once, at
 * exit, as Chrome trace-event JSON (the format of the simulator's own
 * EventTrace), which Perfetto and chrome://tracing open directly.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"

namespace perfbench {

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};

struct Span
{
    const char *name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
    std::uint64_t request = kNoRequest;
    std::vector<std::uint64_t> members;   ///< request ids of a wave
};

class Tracer
{
  public:
    bool on() const { return on_; }

    /** Start recording: drops the spans of any earlier rep. */
    void start()
    {
        on_ = true;
        spans_.clear();
        open_.clear();
    }

    void stop() { on_ = false; }

    int begin(const char *name, std::uint64_t request)
    {
        Span s;
        s.name = name;
        s.parent = open_.empty() ? -1 : open_.back();
        s.request = request;
        s.start = nowNs();
        spans_.push_back(std::move(s));
        open_.push_back(static_cast<int>(spans_.size() - 1));
        return open_.back();
    }

    void end(int idx)
    {
        spans_[idx].end = nowNs();
        open_.pop_back();
    }

    void setMembers(int idx, std::vector<std::uint64_t> ids)
    {
        if (idx >= 0)
            spans_[idx].members = std::move(ids);
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool on_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a no-op when the tracer is off. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name,
          std::uint64_t request = kNoRequest)
        : tracer_(tracer), idx_(tracer.on() ? tracer.begin(name, request)
                                            : -1)
    {
    }

    ~Scope()
    {
        if (idx_ >= 0)
            tracer_.end(idx_);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int index() const { return idx_; }

  private:
    Tracer &tracer_;
    int idx_;
};

/** Self time per span name, in ns: duration minus direct children. */
inline std::map<std::string, std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end - spans[i].start;
    for (const Span &s : spans) {
        if (s.parent >= 0)
            self[s.parent] -= s.end - s.start;
    }
    std::map<std::string, std::int64_t> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

/**
 * Write the first @p max_events spans as Chrome trace-event JSON
 * ("X" complete events, microsecond timestamps relative to the first
 * span). Returns false when the file cannot be written.
 */
inline bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 std::size_t max_events, const std::string &label)
{
    using ccache::Json;
    Json events = Json::array();
    Json meta = Json::object();
    meta["name"] = "process_name";
    meta["ph"] = "M";
    meta["pid"] = 1;
    meta["tid"] = 1;
    Json margs = Json::object();
    margs["name"] = label;
    meta["args"] = std::move(margs);
    events.push(std::move(meta));

    const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
    const std::size_t n = std::min(spans.size(), max_events);
    for (std::size_t i = 0; i < n; ++i) {
        const Span &s = spans[i];
        std::string name = s.name;
        Json e = Json::object();
        e["name"] = name;
        e["cat"] = name.substr(0, name.find('.'));
        e["ph"] = "X";
        e["pid"] = 1;
        e["tid"] = 1;
        e["ts"] = static_cast<double>(s.start - t0) / 1e3;
        e["dur"] = static_cast<double>(s.end - s.start) / 1e3;
        Json args = Json::object();
        args["span"] = static_cast<std::uint64_t>(i);
        if (s.parent >= 0)
            args["parent"] = static_cast<std::uint64_t>(s.parent);
        if (s.request != kNoRequest)
            args["request"] = s.request;
        if (!s.members.empty()) {
            Json ids = Json::array();
            for (std::uint64_t id : s.members)
                ids.push(id);
            args["requests"] = std::move(ids);
        }
        e["args"] = std::move(args);
        events.push(std::move(e));
    }

    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ns";
    Json other = Json::object();
    other["spans_recorded"] = static_cast<std::uint64_t>(spans.size());
    other["spans_written"] = static_cast<std::uint64_t>(n);
    doc["otherData"] = std::move(other);

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << doc.dump() << "\n";
    return static_cast<bool>(out);
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
