// Flight-recorder tests: ring wraparound and capacity accounting, Chrome
// trace-event export validity (matched B/E pairs, monotone timestamps,
// counter/instant interleaving), the structural validator's rejection cases,
// the per-round JSONL stream's stride/line-count contract, and the engine
// and worker-pool probes that feed them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/init.h"
#include "engine/aggregate.h"
#include "protocols/voter.h"
#include "sim/parallel.h"
#include "telemetry/json.h"
#include "telemetry/jsonl.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace bitspread {
namespace {

using telemetry::TraceRecorder;

// Pull the traceEvents array out of an exported document.
const std::vector<JsonValue>& events_of(const JsonValue& trace) {
  const JsonValue* events = trace.find("traceEvents");
  EXPECT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  return events->items();
}

// Count events with a given ph (and optionally a given name).
int count_events(const JsonValue& trace, const std::string& ph,
                 const std::string& name = "") {
  int count = 0;
  for (const JsonValue& e : events_of(trace)) {
    if (e.find("ph")->as_string() != ph) continue;
    if (!name.empty() && e.find("name")->as_string() != name) continue;
    ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Ring buffer: wraparound and capacity accounting

TEST(TraceRing, WraparoundEvictsOldestKeepsNewest) {
  TraceRecorder recorder({.capacity = 8});
  // 20 instants with microsecond-aligned timestamps i -> i us.
  for (std::uint64_t i = 0; i < 20; ++i) {
    recorder.instant("tick", i * 1000);
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  EXPECT_EQ(recorder.stored(), 8u);
  EXPECT_EQ(recorder.dropped(), 12u);

  // Export holds exactly the NEWEST 8 ticks: 12, 13, ..., 19 us.
  const JsonValue trace = recorder.export_chrome_trace();
  std::vector<double> ts;
  for (const JsonValue& e : events_of(trace)) {
    if (e.find("ph")->as_string() == "i") ts.push_back(e.find("ts")->as_double());
  }
  ASSERT_EQ(ts.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(ts[i], 12.0 + i);
}

TEST(TraceRing, AccountingInvariantHoldsAtEveryFill) {
  TraceRecorder recorder({.capacity = 4});
  for (std::uint64_t i = 1; i <= 10; ++i) {
    recorder.counter("x", i * 1000, i);
    EXPECT_EQ(recorder.recorded(), i);
    EXPECT_EQ(recorder.stored(), std::min<std::uint64_t>(i, 4));
    EXPECT_EQ(recorder.recorded(), recorder.stored() + recorder.dropped());
  }
}

TEST(TraceRing, EachThreadGetsItsOwnLane) {
  TraceRecorder recorder;
  recorder.instant("main", 1000);
  EXPECT_EQ(recorder.buffers(), 1u);
  std::thread other([&] { recorder.instant("other", 2000); });
  other.join();
  EXPECT_EQ(recorder.buffers(), 2u);
  EXPECT_EQ(recorder.recorded(), 2u);

  // Lanes surface as distinct tids, each with thread_name metadata.
  const JsonValue trace = recorder.export_chrome_trace();
  EXPECT_EQ(count_events(trace, "M"), 2);
  std::vector<std::uint64_t> tids;
  for (const JsonValue& e : events_of(trace)) {
    if (e.find("ph")->as_string() == "i") {
      tids.push_back(e.find("tid")->as_uint());
    }
  }
  ASSERT_EQ(tids.size(), 2u);
  EXPECT_NE(tids[0], tids[1]);
}

// ---------------------------------------------------------------------------
// Chrome trace export: structure the validator (and Perfetto) demand

TEST(TraceExport, NestedSpansBecomeMatchedMonotonePairs) {
  TraceRecorder recorder;
  // RAII order: the INNER span closes (is pushed) before the outer one.
  recorder.span("inner", 20'000, 30'000);
  recorder.counter("X_t", 25'000, 512);
  recorder.instant("source_flip", 40'000);
  recorder.span("outer", 10'000, 50'000);

  const JsonValue trace = recorder.export_chrome_trace();
  EXPECT_TRUE(telemetry::validate_chrome_trace(trace).empty())
      << telemetry::validate_chrome_trace(trace).front();
  EXPECT_EQ(count_events(trace, "B"), 2);
  EXPECT_EQ(count_events(trace, "E"), 2);
  EXPECT_EQ(count_events(trace, "C", "X_t"), 1);
  EXPECT_EQ(count_events(trace, "i", "source_flip"), 1);

  // Reconstructed chronological order — the counter at 25us lands inside
  // the inner span (20..30us), the instant after it — with non-decreasing
  // ts throughout.
  std::vector<std::string> shape;
  double last_ts = 0.0;
  for (const JsonValue& e : events_of(trace)) {
    const std::string ph = e.find("ph")->as_string();
    if (ph == "M") continue;
    const double ts = e.find("ts")->as_double();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    shape.push_back(ph + ":" + e.find("name")->as_string());
  }
  const std::vector<std::string> expected{"B:outer", "B:inner", "C:X_t",
                                          "E:inner", "i:source_flip",
                                          "E:outer"};
  EXPECT_EQ(shape, expected);

  // Counters carry their value in args.value.
  for (const JsonValue& e : events_of(trace)) {
    if (e.find("ph")->as_string() == "C") {
      EXPECT_EQ(e.find("args")->find("value")->as_uint(), 512u);
    }
  }
}

TEST(TraceExport, IsRepeatableAndLeavesRingsUntouched) {
  TraceRecorder recorder;
  recorder.span("work", 1'000, 2'000);
  const std::string first = recorder.export_chrome_trace().dump();
  const std::string second = recorder.export_chrome_trace().dump();
  EXPECT_EQ(first, second);
  EXPECT_EQ(recorder.stored(), 1u);
}

TEST(TraceExport, WriteChromeTraceRoundTrips) {
  TraceRecorder recorder;
  recorder.span("work", 1'000, 2'000);
  const std::string path = testing::TempDir() + "/trace_roundtrip.json";
  ASSERT_TRUE(recorder.write_chrome_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto parsed = JsonValue::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(telemetry::validate_chrome_trace(*parsed).empty());
  EXPECT_FALSE(recorder.write_chrome_trace("/nonexistent_dir/trace.json"));
}

// ---------------------------------------------------------------------------
// The validator's rejection cases

JsonValue make_event(const char* name, const char* ph, double ts,
                     std::uint64_t tid) {
  JsonValue e = JsonValue::object();
  e.set("name", JsonValue(name));
  e.set("ph", JsonValue(ph));
  e.set("ts", JsonValue(ts));
  e.set("pid", JsonValue(1));
  e.set("tid", JsonValue(tid));
  return e;
}

JsonValue make_trace(std::vector<JsonValue> events) {
  JsonValue array = JsonValue::array();
  for (JsonValue& e : events) array.push_back(std::move(e));
  JsonValue trace = JsonValue::object();
  trace.set("traceEvents", std::move(array));
  return trace;
}

TEST(TraceValidator, RejectsStructuralBreakage) {
  // Not an object at all.
  EXPECT_FALSE(telemetry::validate_chrome_trace(JsonValue(3)).empty());
  // Object without traceEvents.
  EXPECT_FALSE(telemetry::validate_chrome_trace(JsonValue::object()).empty());
  // Event missing "ph".
  JsonValue no_ph = make_event("x", "B", 1.0, 0);
  no_ph.set("ph", JsonValue());
  EXPECT_FALSE(
      telemetry::validate_chrome_trace(make_trace({std::move(no_ph)})).empty());
  // Unknown phase letter.
  EXPECT_FALSE(telemetry::validate_chrome_trace(
                   make_trace({make_event("x", "Q", 1.0, 0)}))
                   .empty());
}

TEST(TraceValidator, RejectsUnbalancedOrMismatchedSpans) {
  // B without E.
  EXPECT_FALSE(telemetry::validate_chrome_trace(
                   make_trace({make_event("open", "B", 1.0, 0)}))
                   .empty());
  // E without B.
  EXPECT_FALSE(telemetry::validate_chrome_trace(
                   make_trace({make_event("close", "E", 1.0, 0)}))
                   .empty());
  // Name mismatch at the top of the stack.
  EXPECT_FALSE(telemetry::validate_chrome_trace(
                   make_trace({make_event("a", "B", 1.0, 0),
                               make_event("b", "E", 2.0, 0)}))
                   .empty());
  // The matched version of the same stack passes.
  EXPECT_TRUE(telemetry::validate_chrome_trace(
                  make_trace({make_event("a", "B", 1.0, 0),
                              make_event("a", "E", 2.0, 0)}))
                  .empty());
}

TEST(TraceValidator, RejectsTimeTravelPerLane) {
  EXPECT_FALSE(telemetry::validate_chrome_trace(
                   make_trace({make_event("a", "i", 5.0, 0),
                               make_event("b", "i", 1.0, 0)}))
                   .empty());
  // Different lanes are independent clocks: no cross-tid ordering demanded.
  EXPECT_TRUE(telemetry::validate_chrome_trace(
                  make_trace({make_event("a", "i", 5.0, 0),
                              make_event("b", "i", 1.0, 1)}))
                  .empty());
}

TEST(TraceValidator, RejectsCounterWithoutValue) {
  EXPECT_FALSE(telemetry::validate_chrome_trace(
                   make_trace({make_event("X_t", "C", 1.0, 0)}))
                   .empty());
  JsonValue counter = make_event("X_t", "C", 1.0, 0);
  JsonValue args = JsonValue::object();
  args.set("value", JsonValue(7));
  counter.set("args", std::move(args));
  EXPECT_TRUE(telemetry::validate_chrome_trace(
                  make_trace({std::move(counter)}))
                  .empty());
}

// ---------------------------------------------------------------------------
// RoundStream: the per-round JSONL contract

TEST(RoundStream, StrideControlsLineCount) {
  const std::string path = testing::TempDir() + "/stream_stride.jsonl";
  telemetry::RoundStream stream(path, {.stride = 4});
  ASSERT_TRUE(stream.ok());
  for (std::uint64_t round = 0; round <= 100; ++round) {
    stream.on_round(round, 500, 1000);
  }
  EXPECT_EQ(stream.rounds_seen(), 101u);
  // Rounds 0, 4, 8, ..., 100: floor(100/4) + 1 lines.
  EXPECT_EQ(stream.lines(), 26u);
  stream.flush();

  std::ifstream in(path);
  std::string line;
  std::size_t file_lines = 0;
  while (std::getline(in, line)) ++file_lines;
  EXPECT_EQ(file_lines, 26u);
}

TEST(RoundStream, LinesCarryFractionAndDrift) {
  const std::string path = testing::TempDir() + "/stream_drift.jsonl";
  telemetry::RoundStream stream(path);
  ASSERT_TRUE(stream.ok());
  // Logistic-style bias: line drift must equal n * F(x/n).
  stream.set_bias([](double x) { return x * (1.0 - x); });
  stream.on_round(0, 1000, 4000);
  stream.flush();

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const auto parsed = JsonValue::parse(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("round")->as_uint(), 0u);
  EXPECT_EQ(parsed->find("ones")->as_uint(), 1000u);
  EXPECT_EQ(parsed->find("n")->as_uint(), 4000u);
  EXPECT_DOUBLE_EQ(parsed->find("x")->as_double(), 0.25);
  EXPECT_DOUBLE_EQ(parsed->find("drift")->as_double(),
                   4000.0 * 0.25 * (1.0 - 0.25));
  const JsonValue* phase_ns = parsed->find("phase_ns");
  ASSERT_NE(phase_ns, nullptr);
  EXPECT_TRUE(phase_ns->is_object());
}

TEST(RoundStream, DriftIsNullWithoutBias) {
  const std::string path = testing::TempDir() + "/stream_nodrift.jsonl";
  telemetry::RoundStream stream(path);
  ASSERT_TRUE(stream.ok());
  stream.on_round(0, 1, 2);
  stream.flush();
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const auto parsed = JsonValue::parse(line);
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* drift = parsed->find("drift");
  ASSERT_NE(drift, nullptr);
  EXPECT_EQ(drift->kind(), JsonValue::Kind::kNull);
}

// ---------------------------------------------------------------------------
// Engine and pool probes (content gated on the build flavor)

TEST(TraceProbes, AggregateEngineStreamsEveryRound) {
  TraceRecorder recorder;
  const std::string path = testing::TempDir() + "/probe_rounds.jsonl";
  telemetry::RoundStream stream(path);
  ASSERT_TRUE(stream.ok());
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  StopRule rule;
  rule.max_rounds = 50;  // Voter needs ~n rounds: no consensus inside 50.
  Rng rng(11);
  RunResult result;
  {
    const telemetry::SinkScope scope({.trace = &recorder, .rounds = &stream});
    result = engine.run(init_half(4096, Opinion::kOne), rule, rng);
  }

  ASSERT_EQ(result.rounds(), 50u);
  // Round 0 plus one record per executed round.
  EXPECT_EQ(stream.rounds_seen(), result.rounds() + 1);
  EXPECT_EQ(stream.lines(), result.rounds() + 1);
  const JsonValue trace = recorder.export_chrome_trace();
  EXPECT_TRUE(telemetry::validate_chrome_trace(trace).empty());
  EXPECT_EQ(count_events(trace, "C", "X_t"),
            static_cast<int>(result.rounds()) + 1);
}

TEST(TraceProbes, WorkerPoolRecordsBusySpans) {
  TraceRecorder recorder;
  std::atomic<int> executed{0};
  {
    const telemetry::SinkScope scope({.trace = &recorder});
    parallel_for(
        256, [&](int) { executed.fetch_add(1, std::memory_order_relaxed); },
        /*max_threads=*/3);
  }
  ASSERT_EQ(executed.load(), 256);

  const JsonValue trace = recorder.export_chrome_trace();
  EXPECT_TRUE(telemetry::validate_chrome_trace(trace).empty());
  EXPECT_GE(count_events(trace, "B", "worker_busy"), 1);
}

TEST(TraceProbes, UninstalledRecorderStaysSilent) {
  TraceRecorder recorder;
  // Never installed: probes must not reach it.
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  StopRule rule;
  rule.max_rounds = 10;
  Rng rng(13);
  engine.run(init_half(256, Opinion::kOne), rule, rng);
  EXPECT_EQ(recorder.recorded(), 0u);
}

}  // namespace
}  // namespace bitspread
