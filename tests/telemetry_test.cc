// Telemetry subsystem tests: the JSON model and bench-report schema, phase
// probes, pool utilization counters, and — the load-bearing guarantee —
// bit-identical run payloads whether telemetry records or not: every
// engine reproduces one pinned digest with no sink, with a phase sink, and
// with the flight recorder installed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/init.h"
#include "engine/agent.h"
#include "engine/aggregate.h"
#include "engine/sequential.h"
#include "engine/sharded.h"
#include "faults/environment.h"
#include "obs/progress.h"
#include "profile/counters.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "sim/parallel.h"
#include "telemetry/json.h"
#include "telemetry/jsonl.h"
#include "telemetry/reporter.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace bitspread {
namespace {

// ---------------------------------------------------------------------------
// JSON model + bench report schema

TEST(Json, SeedsRoundTripExactly) {
  JsonValue obj = JsonValue::object();
  obj.set("seed", JsonValue(std::uint64_t{0xFFFFFFFFFFFFFFFFull}));
  obj.set("negative", JsonValue(-42));
  obj.set("pi", JsonValue(3.141592653589793));
  obj.set("text", JsonValue("a \"quoted\" string\n"));
  obj.set("flag", JsonValue(true));
  const std::string text = obj.dump();
  const auto parsed = JsonValue::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), text);
  EXPECT_EQ(parsed->find("seed")->as_uint(), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_DOUBLE_EQ(parsed->find("pi")->as_double(), 3.141592653589793);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::parse("{").has_value());
  EXPECT_FALSE(JsonValue::parse("{} trailing").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\": 01}").has_value());
  EXPECT_TRUE(JsonValue::parse("{\"a\": [1, 2.5, \"x\"]}").has_value());
}

TEST(Reporter, BuildPassesSchemaValidation) {
  JsonReporter reporter("unit_bench");
  reporter.set_experiment("E0");
  reporter.set_seed(12345);
  reporter.set_quick(true);
  reporter.set_workload("n", JsonValue(1024));
  reporter.add_phase("simulate", 0.125, 3);
  reporter.set_extra("all_ok", JsonValue(true));
  const JsonValue report = reporter.build();
  EXPECT_TRUE(validate_bench_report(report).empty())
      << validate_bench_report(report).front();
  EXPECT_EQ(report.find("schema")->as_string(), kBenchSchema);
  EXPECT_EQ(report.find("seed")->as_uint(), 12345u);
  ASSERT_NE(report.find("build"), nullptr);
}

TEST(Reporter, ValidatorRejectsNonReports) {
  EXPECT_FALSE(validate_bench_report(JsonValue::object()).empty());
  JsonValue wrong_schema = JsonReporter("x").build();
  wrong_schema.set("schema", JsonValue("not-a-bench-report"));
  EXPECT_FALSE(validate_bench_report(wrong_schema).empty());
}

TEST(Reporter, WrittenFileParsesAndValidates) {
  const std::string path = testing::TempDir() + "/BENCH_unit.json";
  JsonReporter reporter("unit_file");
  reporter.set_seed(7);
  ReportMetrics outcomes;
  outcomes.counters["outcomes.total"] = 3;
  reporter.set_metrics(outcomes);
  ASSERT_TRUE(reporter.write_file(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto parsed = JsonValue::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(validate_bench_report(*parsed).empty());
  const JsonValue* metrics = parsed->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("counters")->find("outcomes.total")->as_uint(), 3u);
}

// ---------------------------------------------------------------------------
// Phase probes and pool counters

TEST(PhaseStats, ProbeRecordsOnlyWithSink) {
  telemetry::PhaseStats stats;
  {  // No sink installed: nothing recorded.
    const telemetry::Probe probe(telemetry::Phase::kRoundStep);
  }
  EXPECT_EQ(stats.count(telemetry::Phase::kRoundStep), 0u);

  {
    const telemetry::SinkScope scope({.phases = &stats});
    const telemetry::Probe probe(telemetry::Phase::kRoundStep);
  }
  EXPECT_EQ(stats.count(telemetry::Phase::kRoundStep), 1u);
  {  // Scope ended: back to silent.
    const telemetry::Probe probe(telemetry::Phase::kRoundStep);
  }
  EXPECT_EQ(stats.count(telemetry::Phase::kRoundStep), 1u);
}

// ---------------------------------------------------------------------------
// The sink bundle

class CountingRoundSink : public telemetry::RoundSink {
 public:
  void on_round(std::uint64_t, std::uint64_t, std::uint64_t) override {
    rounds.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t> rounds{0};
};

TEST(SinkScope, NestedScopesReplaceOnlyTheirFieldsAndRestore) {
  const telemetry::Sinks& none = telemetry::sinks();
  ASSERT_EQ(none.phases, nullptr) << "another test leaked a scope";
  ASSERT_EQ(none.pmu, nullptr);
  ASSERT_EQ(none.trace, nullptr);
  ASSERT_EQ(none.rounds, nullptr);
  ASSERT_EQ(none.progress, nullptr);

  telemetry::PhaseStats outer_phases;
  telemetry::PhaseStats inner_phases;
  profile::PmuPhaseStats pmu;
  telemetry::TraceRecorder recorder;
  CountingRoundSink rounds;
  obs::ProgressBoard board;
  {
    const telemetry::SinkScope outer(
        {.phases = &outer_phases, .pmu = &pmu, .progress = &board});
    const telemetry::Sinks& enclosing = telemetry::sinks();
    {
      const telemetry::SinkScope inner(
          {.phases = &inner_phases, .trace = &recorder, .rounds = &rounds});
      const telemetry::Sinks& nested = telemetry::sinks();
      ASSERT_NE(&nested, &enclosing);
      EXPECT_EQ(nested.phases, &inner_phases);  // Replaced.
      EXPECT_EQ(nested.pmu, &pmu);              // Inherited.
      EXPECT_EQ(nested.trace, &recorder);       // Added.
      EXPECT_EQ(nested.rounds, &rounds);
      EXPECT_EQ(nested.progress, &board);
      // The enclosing bundle is a separate copy and stays as it was.
      EXPECT_EQ(enclosing.phases, &outer_phases);
      EXPECT_EQ(enclosing.trace, nullptr);
      const telemetry::Probe probe(telemetry::Phase::kStopCheck);
    }
    const telemetry::Sinks& restored = telemetry::sinks();
    ASSERT_EQ(&restored, &enclosing);
    EXPECT_EQ(restored.phases, &outer_phases);
    EXPECT_EQ(restored.pmu, &pmu);
    EXPECT_EQ(restored.trace, nullptr);
    EXPECT_EQ(restored.rounds, nullptr);
    EXPECT_EQ(restored.progress, &board);
    {
      // Null fields inherit: an empty scope installs an equal copy.
      const telemetry::SinkScope empty({});
      EXPECT_EQ(telemetry::sinks().phases, &outer_phases);
      EXPECT_EQ(telemetry::sinks().progress, &board);
    }
    const telemetry::Probe probe(telemetry::Phase::kRoundStep);
  }
  EXPECT_EQ(&telemetry::sinks(), &none);
  EXPECT_EQ(telemetry::sinks().phases, nullptr);
  EXPECT_EQ(telemetry::sinks().progress, nullptr);

  // Each probe fed the bundle in force when it opened.
  EXPECT_EQ(inner_phases.count(telemetry::Phase::kStopCheck), 1u);
  EXPECT_EQ(outer_phases.count(telemetry::Phase::kStopCheck), 0u);
  EXPECT_EQ(outer_phases.count(telemetry::Phase::kRoundStep), 1u);
  EXPECT_EQ(inner_phases.count(telemetry::Phase::kRoundStep), 0u);
  EXPECT_EQ(pmu.samples(telemetry::Phase::kStopCheck), 1u);
  EXPECT_EQ(pmu.samples(telemetry::Phase::kRoundStep), 1u);
  EXPECT_EQ(recorder.recorded(), 1u);
}

// A bare --listen run installs only a progress board and a round sink. Both
// are fed, but no probe may take a reading: there is no phase count, PMU
// sample or span to record, and per-round clock reads would cost the
// exporter its 5% budget on fast engines.
TEST(SinkScope, BoardAndRoundSinkLeaveEveryProbeDormant) {
  obs::ProgressBoard board;
  CountingRoundSink rounds;
  const telemetry::SinkScope scope({.rounds = &rounds, .progress = &board});
  {
    const telemetry::Probe probe(telemetry::Phase::kRoundStep);
    EXPECT_FALSE(probe.active());
    const telemetry::Probe resolved(telemetry::Phase::kStopCheck,
                                    telemetry::sinks());
    EXPECT_FALSE(resolved.active());
  }

  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  StopRule rule;
  rule.max_rounds = 20;  // Voter needs ~n rounds: no consensus inside 20.
  Rng rng(17);
  const RunResult result =
      engine.run(init_half(4096, Opinion::kOne), rule, rng);
  ASSERT_EQ(result.rounds(), 20u);
  EXPECT_EQ(board.runs_finished(), 1u);
  EXPECT_EQ(rounds.rounds.load(), result.rounds() + 1);

  // Any one of the three probe sinks wakes a probe.
  telemetry::PhaseStats phases;
  profile::PmuPhaseStats pmu;
  telemetry::TraceRecorder recorder;
  for (const telemetry::Sinks& given :
       {telemetry::Sinks{.phases = &phases}, telemetry::Sinks{.pmu = &pmu},
        telemetry::Sinks{.trace = &recorder}}) {
    const telemetry::SinkScope woken(given);
    const telemetry::Probe probe(telemetry::Phase::kRoundStep);
    EXPECT_TRUE(probe.active());
  }
}

TEST(PoolTelemetry, CountsItemsAndGenerationsExactly) {
  WorkerPool& pool = WorkerPool::shared();
  pool.reset_telemetry();
  constexpr int kItems = 64;
  std::atomic<int> executed{0};
  parallel_for(
      kItems, [&](int) { executed.fetch_add(1, std::memory_order_relaxed); },
      /*max_threads=*/4);
  ASSERT_EQ(executed.load(), kItems);
  const WorkerPoolTelemetry t = pool.telemetry();
  EXPECT_EQ(t.generations, 1u);
  EXPECT_EQ(t.items, static_cast<std::uint64_t>(kItems));
  EXPECT_GT(t.dispatch_ns, 0u);
  std::uint64_t worker_items = 0, worker_generations = 0;
  for (const auto& w : t.workers) {
    worker_items += w.items;
    worker_generations += w.generations;
  }
  EXPECT_EQ(worker_items, static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(worker_generations, 4u);  // 4 participants, 1 generation.
  const double u = t.utilization();
  EXPECT_GE(u, 0.0);
  EXPECT_LE(u, 1.5);  // Clock granularity slack.
}

// ---------------------------------------------------------------------------
// The determinism guarantee: telemetry on/off cannot change a run

// FNV-1a over the SEMANTIC payload of a run (reason, rounds/activations,
// final configuration, recovery segments) — deliberately excluding the
// RunTelemetry sidecar, which is measurement, not result.
class Digest {
 public:
  void fold(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  void fold_config(const Configuration& config) {
    fold(config.n);
    fold(config.ones);
    fold(static_cast<std::uint64_t>(to_int(config.correct)));
    fold(config.sources);
  }
  void fold_recoveries(const std::vector<RecoverySegment>& recoveries) {
    fold(recoveries.size());
    for (const RecoverySegment& seg : recoveries) {
      fold(seg.flip_round);
      fold(seg.recovered_round);
      fold(seg.recovered ? 1 : 0);
    }
  }
  void fold_result(const RunResult& result) {
    fold(static_cast<std::uint64_t>(result.reason));
    // ticks equals the old per-engine fold (rounds for parallel engines,
    // activations for sequential ones), so the golden digest is unchanged.
    fold(result.ticks);
    fold_config(result.final_config);
    fold_recoveries(result.recoveries);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

// One fixed workload per engine (plus faulty variants covering the fault
// probes), all from the same master seed.
std::uint64_t all_engines_digest() {
  const MinorityDynamics minority(3);
  const VoterDynamics voter;
  StopRule rule;
  rule.max_rounds = 300;
  const Configuration init = init_half(2048, Opinion::kOne);
  EnvironmentModel faults;
  faults.observation_noise = 0.02;
  faults.churn_rate = 0.01;
  faults.zealot_fraction = 0.05;
  faults.source_flip_rounds = {60};
  faults.convergence_quorum = 0.9;

  Digest digest;
  {
    const AggregateParallelEngine engine(voter);
    Rng rng(101);
    digest.fold_result(engine.run(init, rule, rng));
    Rng faulty_rng(102);
    digest.fold_result(engine.run(init, rule, faults, faulty_rng));
  }
  {
    const MemorylessAsStateful adapter(minority);
    const AgentParallelEngine engine(adapter);
    Rng rng(103);
    digest.fold_result(engine.run(init, rule, rng));
    Rng faulty_rng(104);
    digest.fold_result(engine.run(init, rule, faults, faulty_rng));
  }
  {
    const ShardedAgentEngine engine(minority, {.threads = 3});
    digest.fold_result(engine.run(init, rule, 105));
    digest.fold_result(engine.run(init, rule, faults, 106));
  }
  {
    const SequentialEngine engine(minority);
    StopRule short_rule;
    short_rule.max_rounds = 40;  // Sequential rounds cost n activations.
    const Configuration small = init_half(256, Opinion::kOne);
    Rng rng(107);
    digest.fold_result(engine.run(small, short_rule, rng));
    Rng faulty_rng(108);
    digest.fold_result(engine.run(small, short_rule, faults, faulty_rng));
  }
  return digest.value();
}

TEST(TelemetryDeterminism, RuntimeSinkDoesNotPerturbAnyEngine) {
  const std::uint64_t without_sink = all_engines_digest();
  telemetry::PhaseStats stats;
  std::uint64_t with_sink = 0;
  {
    const telemetry::SinkScope scope({.phases = &stats});
    with_sink = all_engines_digest();
  }
  EXPECT_EQ(without_sink, with_sink);
  EXPECT_GT(stats.count(telemetry::Phase::kRoundStep), 0u)
      << "the phase sink recorded nothing";
}

// The pin every build (Release, sanitizers, bench) asserts, with and
// without sinks. If an intentional engine change shifts the value, update
// it from the test's failure output.
constexpr std::uint64_t kGoldenAllEnginesDigest = 15000701221148159086ull;

TEST(TelemetryDeterminism, GoldenPayloadDigestMatchesAcrossBuilds) {
  EXPECT_EQ(all_engines_digest(), kGoldenAllEnginesDigest)
      << "run payloads changed — update kGoldenAllEnginesDigest";
}

// The flight recorder rides the same guarantee: with a TraceRecorder AND a
// RoundStream installed, every engine still produces the golden payload —
// recording reads clocks and writes ring slots, never an RNG stream.
TEST(TelemetryDeterminism, FlightRecorderDoesNotPerturbAnyEngine) {
  telemetry::TraceRecorder recorder;
  telemetry::RoundStream stream(testing::TempDir() + "/digest_rounds.jsonl");
  ASSERT_TRUE(stream.ok());
  std::uint64_t with_recorder = 0;
  {
    const telemetry::SinkScope scope({.trace = &recorder, .rounds = &stream});
    with_recorder = all_engines_digest();
  }
  EXPECT_EQ(with_recorder, kGoldenAllEnginesDigest)
      << "flight recorder perturbed a run payload";
  EXPECT_GT(recorder.recorded(), 0u);
  EXPECT_GT(stream.lines(), 0u);
}

TEST(TelemetryDeterminism, RunTelemetryIsFilledByEveryRun) {
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  StopRule rule;
  rule.max_rounds = 100;
  Rng rng(9);
  const RunResult result = engine.run(init_half(512, Opinion::kOne), rule, rng);
  EXPECT_EQ(result.telemetry.rounds, result.rounds());
  EXPECT_GT(result.telemetry.samples_drawn, 0u);
  EXPECT_GT(result.telemetry.wall_seconds, 0.0);
}

}  // namespace
}  // namespace bitspread
