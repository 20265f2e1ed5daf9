#include "telemetry/trace.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <unordered_map>

namespace bitspread {
namespace telemetry {

// One per-thread ring. Single-writer: only the owning thread pushes. The
// head counter is atomic so stats reads from another (quiescent-time)
// thread are well-defined; slot contents rely on the external quiescence
// contract documented in trace.h.
struct TraceRecorder::Lane {
  explicit Lane(int tid_in, std::size_t capacity)
      : tid(tid_in), ring(capacity) {}

  void push(const Event& event) noexcept {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    ring[static_cast<std::size_t>(h % ring.size())] = event;
    head.store(h + 1, std::memory_order_release);
  }

  // Events still held, oldest first.
  std::vector<Event> snapshot() const {
    const std::uint64_t h = head.load(std::memory_order_acquire);
    const std::uint64_t cap = ring.size();
    std::vector<Event> out;
    const std::uint64_t stored = h < cap ? h : cap;
    out.reserve(static_cast<std::size_t>(stored));
    for (std::uint64_t i = h - stored; i < h; ++i) {
      out.push_back(ring[static_cast<std::size_t>(i % cap)]);
    }
    return out;
  }

  const int tid;
  std::atomic<std::uint64_t> head{0};
  std::vector<Event> ring;
};

namespace {

// Bumped on every recorder destruction, so thread-local lane pointers
// cached against a freed recorder are never reused.
std::atomic<std::uint64_t> g_trace_epoch{0};

// The cache is valid only for (this recorder, this epoch): a stale lane
// pointer — even one whose recorder was freed and the address recycled by a
// new instance — can never be dereferenced.
struct ThreadLaneCache {
  const TraceRecorder* owner = nullptr;
  TraceRecorder::Lane* lane = nullptr;
  std::uint64_t epoch = 0;
};
thread_local ThreadLaneCache t_lane_cache;

}  // namespace

TraceRecorder::TraceRecorder() : TraceRecorder(Options{}) {}

TraceRecorder::TraceRecorder(Options options)
    : capacity_(options.capacity == 0 ? 1 : options.capacity) {}

TraceRecorder::~TraceRecorder() {
  // Invalidate every thread's cached lane pointer into this instance.
  g_trace_epoch.fetch_add(1, std::memory_order_acq_rel);
}

TraceRecorder::Lane* TraceRecorder::lane_for_this_thread() noexcept {
  const std::uint64_t epoch = g_trace_epoch.load(std::memory_order_acquire);
  if (t_lane_cache.owner == this && t_lane_cache.epoch == epoch) {
    return t_lane_cache.lane;
  }
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  lanes_.push_back(
      std::make_unique<Lane>(static_cast<int>(lanes_.size()), capacity_));
  t_lane_cache.owner = this;
  t_lane_cache.lane = lanes_.back().get();
  t_lane_cache.epoch = epoch;
  return t_lane_cache.lane;
}

void TraceRecorder::span(const char* name, std::uint64_t begin_ns,
                         std::uint64_t end_ns) noexcept {
  lane_for_this_thread()->push(Event{Kind::kSpan, name, begin_ns, end_ns});
}

void TraceRecorder::counter(const char* name, std::uint64_t ts_ns,
                            std::uint64_t value) noexcept {
  lane_for_this_thread()->push(Event{Kind::kCounter, name, ts_ns, value});
}

void TraceRecorder::instant(const char* name, std::uint64_t ts_ns) noexcept {
  lane_for_this_thread()->push(Event{Kind::kInstant, name, ts_ns, 0});
}

std::size_t TraceRecorder::buffers() const {
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  return lanes_.size();
}

std::uint64_t TraceRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) {
    total += lane->head.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t TraceRecorder::stored() const {
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) {
    const std::uint64_t h = lane->head.load(std::memory_order_acquire);
    total += h < capacity_ ? h : capacity_;
  }
  return total;
}

std::uint64_t TraceRecorder::dropped() const { return recorded() - stored(); }

namespace {

JsonValue make_event(const char* ph, const char* name, double ts_us,
                     int tid) {
  JsonValue e = JsonValue::object();
  e.set("name", name);
  e.set("ph", ph);
  e.set("ts", ts_us);
  e.set("pid", 1);
  e.set("tid", tid);
  return e;
}

inline double to_us(std::uint64_t ns) {
  return static_cast<double>(ns) / 1000.0;
}

}  // namespace

JsonValue TraceRecorder::export_chrome_trace() const {
  std::vector<std::pair<int, std::vector<Event>>> lanes;
  {
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    lanes.reserve(lanes_.size());
    for (const auto& lane : lanes_) {
      lanes.emplace_back(lane->tid, lane->snapshot());
    }
  }

  JsonValue events = JsonValue::array();
  for (const auto& [tid, held] : lanes) {
    {
      JsonValue meta = JsonValue::object();
      meta.set("name", "thread_name");
      meta.set("ph", "M");
      meta.set("ts", 0.0);
      meta.set("pid", 1);
      meta.set("tid", tid);
      JsonValue args = JsonValue::object();
      args.set("name", "lane-" + std::to_string(tid));
      meta.set("args", std::move(args));
      events.push_back(std::move(meta));
    }

    std::vector<Event> spans;
    std::vector<Event> points;
    for (const Event& e : held) {
      (e.kind == Kind::kSpan ? spans : points).push_back(e);
    }
    // Complete spans from one lane are properly nested (RAII), and evicting
    // whole spans preserves that, so a (begin asc, end desc) sort + stack
    // sweep reconstructs matched B/E pairs with non-decreasing timestamps.
    std::sort(spans.begin(), spans.end(), [](const Event& a, const Event& b) {
      return a.t0 != b.t0 ? a.t0 < b.t0 : a.t1 > b.t1;
    });
    std::sort(points.begin(), points.end(),
              [](const Event& a, const Event& b) { return a.t0 < b.t0; });

    std::vector<Event> open;  // Stack of spans whose "E" is pending.
    std::size_t next_point = 0;
    auto emit_points_until = [&](std::uint64_t ts_ns) {
      for (; next_point < points.size() && points[next_point].t0 <= ts_ns;
           ++next_point) {
        const Event& p = points[next_point];
        if (p.kind == Kind::kCounter) {
          JsonValue c = make_event("C", p.name, to_us(p.t0), tid);
          JsonValue args = JsonValue::object();
          args.set("value", p.t1);
          c.set("args", std::move(args));
          events.push_back(std::move(c));
        } else {
          JsonValue i = make_event("i", p.name, to_us(p.t0), tid);
          i.set("s", "t");
          events.push_back(std::move(i));
        }
      }
    };
    auto close_open_until = [&](std::uint64_t ts_ns) {
      while (!open.empty() && open.back().t1 <= ts_ns) {
        const Event top = open.back();
        open.pop_back();
        emit_points_until(top.t1);
        events.push_back(make_event("E", top.name, to_us(top.t1), tid));
      }
    };
    for (const Event& s : spans) {
      close_open_until(s.t0);
      emit_points_until(s.t0);
      events.push_back(make_event("B", s.name, to_us(s.t0), tid));
      open.push_back(s);
    }
    close_open_until(~std::uint64_t{0});
    emit_points_until(~std::uint64_t{0});
  }

  JsonValue trace = JsonValue::object();
  trace.set("traceEvents", std::move(events));
  trace.set("displayTimeUnit", "ns");
  return trace;
}

bool TraceRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << export_chrome_trace().dump();
  return static_cast<bool>(out.flush());
}

std::vector<std::string> validate_chrome_trace(const JsonValue& trace) {
  std::vector<std::string> errors;
  auto fail = [&errors](std::string message) {
    if (errors.size() < 32) errors.push_back(std::move(message));
  };

  if (!trace.is_object()) {
    fail("top-level value is not an object");
    return errors;
  }
  const JsonValue* events = trace.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    fail("missing \"traceEvents\" array");
    return errors;
  }

  static const std::set<std::string> kPhases = {"B", "E", "C", "i", "M"};
  struct LaneState {
    double last_ts = -1.0;
    std::vector<std::string> open;  // Names of unclosed B events.
  };
  std::unordered_map<int, LaneState> lanes;

  std::size_t index = 0;
  for (const JsonValue& e : events->items()) {
    const std::string at = "event " + std::to_string(index++);
    if (!e.is_object()) {
      fail(at + ": not an object");
      continue;
    }
    const JsonValue* ph = e.find("ph");
    const JsonValue* name = e.find("name");
    const JsonValue* ts = e.find("ts");
    const JsonValue* pid = e.find("pid");
    const JsonValue* tid = e.find("tid");
    if (ph == nullptr || !ph->is_string() ||
        kPhases.count(ph->as_string()) == 0) {
      fail(at + ": \"ph\" missing or not one of B/E/C/i/M");
      continue;
    }
    if (name == nullptr || !name->is_string()) {
      fail(at + ": \"name\" missing or not a string");
      continue;
    }
    if (ts == nullptr || !ts->is_number()) {
      fail(at + ": \"ts\" missing or not a number");
      continue;
    }
    if (pid == nullptr || !pid->is_number() || tid == nullptr ||
        !tid->is_number()) {
      fail(at + ": \"pid\"/\"tid\" missing or not numbers");
      continue;
    }
    const std::string& phase = ph->as_string();
    if (phase == "M") continue;  // Metadata carries no timeline constraints.

    LaneState& lane = lanes[static_cast<int>(tid->as_double())];
    const double t = ts->as_double();
    if (t < lane.last_ts) {
      fail(at + ": ts " + std::to_string(t) +
           " goes backwards on tid " + std::to_string(
               static_cast<int>(tid->as_double())));
    }
    lane.last_ts = t;

    if (phase == "B") {
      lane.open.push_back(name->as_string());
    } else if (phase == "E") {
      if (lane.open.empty()) {
        fail(at + ": \"E\" (" + name->as_string() + ") with no open \"B\"");
      } else if (lane.open.back() != name->as_string()) {
        fail(at + ": \"E\" name " + name->as_string() +
             " does not match open \"B\" " + lane.open.back());
      } else {
        lane.open.pop_back();
      }
    }
    if (phase == "C" || phase == "i") {
      const JsonValue* args = e.find("args");
      if (phase == "C" &&
          (args == nullptr || !args->is_object() ||
           args->find("value") == nullptr)) {
        fail(at + ": counter without args.value");
      }
    }
  }
  for (const auto& [tid, lane] : lanes) {
    if (!lane.open.empty()) {
      fail("tid " + std::to_string(tid) + ": " +
           std::to_string(lane.open.size()) +
           " unclosed \"B\" events (first: " + lane.open.front() + ")");
    }
  }
  return errors;
}

void record_round(std::uint64_t round, std::uint64_t ones,
                  std::uint64_t n) noexcept {
  const Sinks& bundle = sinks();
  if (bundle.trace != nullptr) {
    bundle.trace->counter("X_t", clock_now_ns(), ones);
  }
  if (bundle.rounds != nullptr) bundle.rounds->on_round(round, ones, n);
}

void record_mark(const char* name) noexcept {
  if (TraceRecorder* recorder = sinks().trace) {
    recorder->instant(name, clock_now_ns());
  }
}

}  // namespace telemetry
}  // namespace bitspread
