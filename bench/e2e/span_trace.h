// In-memory span recorder for the bench_e2e traced pass.
//
// Spans are recorded from the benchmark's own code around calls into one
// library layer: a name, the layer (module) it times, start/end on the
// steady clock, an id and the id of the span that was open when it began.
// Nothing is written until the pass ends, so the only cost inside the timed
// region is two clock reads and one vector append per span. Calls shorter
// than ~10 us are timed in batches: one span around N calls whose `calls`
// field says how many it covers.
//
// A layer's self time is the duration of its spans minus the part covered by
// their children. Spans nest strictly (single thread, scoped), so children
// never overlap each other and never leave their parent's interval.
#ifndef BITSPREAD_BENCH_E2E_SPAN_TRACE_H_
#define BITSPREAD_BENCH_E2E_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.h"

namespace bitspread::e2e {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanRecorder {
 public:
  // Layer of the spans that only frame other spans (setup, a replay, a
  // probe): their self time is benchmark glue, not library work.
  static constexpr const char* kBenchLayer = "bench";

  struct Span {
    const char* name;
    const char* layer;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t parent;  // kNoParent for a root.
    std::uint64_t calls;
    double seconds() const noexcept {
      return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  // RAII span; `calls` may be raised before it closes (batched spans).
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, const char* layer)
        : recorder_(recorder), id_(recorder.open(name, layer)) {}
    ~Scope() { recorder_.close(id_, calls); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint64_t calls = 1;

   private:
    SpanRecorder& recorder_;
    std::uint32_t id_;
  };

  SpanRecorder() { spans_.reserve(1 << 16); }

  std::uint32_t open(const char* name, const char* layer) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({name, layer, 0, 0,
                      stack_.empty() ? kNoParent : stack_.back(), 1});
    stack_.push_back(id);
    spans_.back().start_ns = now_ns();
    return id;
  }

  void close(std::uint32_t id, std::uint64_t calls) {
    const std::uint64_t end = now_ns();
    spans_[id].end_ns = end;
    spans_[id].calls = calls;
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::size_t size() const noexcept { return spans_.size(); }

  // Total seconds of the spans named `name` recorded at index >= `from`.
  double seconds_of(std::string_view name, std::size_t from = 0) const {
    double seconds = 0.0;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      if (name == spans_[i].name) seconds += spans_[i].seconds();
    }
    return seconds;
  }

  // Durations (seconds) of the spans named `name`, in recording order.
  std::vector<double> durations_of(std::string_view name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (name == span.name) out.push_back(span.seconds());
    }
    return out;
  }

  // Sum of self time (seconds) per layer over every closed span.
  std::map<std::string, double> self_seconds_by_layer() const {
    std::vector<double> child_cover(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent != kNoParent) child_cover[span.parent] += span.seconds();
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].layer] += spans_[i].seconds() - child_cover[i];
    }
    return self;
  }

  // Total duration (seconds) of the root spans: the traced wall.
  double root_seconds() const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.parent == kNoParent) total += span.seconds();
    }
    return total;
  }

  // Chrome trace-event JSON ("X" complete events, microseconds), loadable
  // in Perfetto or chrome://tracing.
  JsonValue chrome_trace() const {
    JsonValue events = JsonValue::array();
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      JsonValue event = JsonValue::object();
      event.set("name", span.name);
      event.set("cat", span.layer);
      event.set("ph", "X");
      event.set("ts", static_cast<double>(span.start_ns - origin) * 1e-3);
      event.set("dur", static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
      event.set("pid", 1);
      event.set("tid", 1);
      JsonValue args = JsonValue::object();
      args.set("id", static_cast<std::uint64_t>(i));
      args.set("parent", span.parent == kNoParent
                             ? JsonValue(nullptr)
                             : JsonValue(static_cast<std::uint64_t>(span.parent)));
      args.set("calls", span.calls);
      event.set("args", std::move(args));
      events.push_back(std::move(event));
    }
    JsonValue trace = JsonValue::object();
    trace.set("traceEvents", std::move(events));
    trace.set("displayTimeUnit", "ms");
    return trace;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

}  // namespace bitspread::e2e

#endif  // BITSPREAD_BENCH_E2E_SPAN_TRACE_H_
