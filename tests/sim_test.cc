// The experiment harness: tables, grids, CLI parsing, seeding, and the
// replicated measurement helpers (including censoring semantics).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/init.h"
#include "engine/aggregate.h"
#include "protocols/voter.h"
#include "sim/cli.h"
#include "sim/experiment.h"
#include "sim/seeds.h"
#include "sim/sweep.h"
#include "sim/table.h"
#include "telemetry/reporter.h"

namespace bitspread {
namespace {

TEST(Table, PrintsAlignedColumns) {
  Table table({"n", "rounds"});
  table.add_row({"16", "3.5"});
  table.add_row({"1024", "12.25"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("n"), std::string::npos);
  EXPECT_NE(text.find("1024"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::fmt(std::int64_t{-7}), "-7");
}

TEST(Sweep, PowerOfTwoGrid) {
  const auto grid = power_of_two_grid(4, 7);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0], 16u);
  EXPECT_EQ(grid[3], 128u);
}

TEST(Cli, ParsesAllOptions) {
  const char* argv[] = {"bench", "--quick", "--seed=99", "--reps=7",
                        "--json=/tmp/out.json"};
  const BenchOptions options =
      parse_bench_options(5, const_cast<char**>(argv));
  EXPECT_TRUE(options.quick);
  EXPECT_EQ(options.seed, 99u);
  EXPECT_EQ(options.reps_or(3), 7);
  ASSERT_TRUE(options.json_path.has_value());
  EXPECT_EQ(*options.json_path, "/tmp/out.json");
}

TEST(Cli, ParsesFlightRecorderFlags) {
  const char* argv[] = {"bench", "--trace-out=/tmp/t.json",
                        "--stream-out=/tmp/s.jsonl", "--trace-buffer=1024",
                        "--stream-stride=16"};
  const BenchOptions options =
      parse_bench_options(5, const_cast<char**>(argv));
  ASSERT_TRUE(options.recorder.trace_out.has_value());
  EXPECT_EQ(*options.recorder.trace_out, "/tmp/t.json");
  ASSERT_TRUE(options.recorder.stream_out.has_value());
  EXPECT_EQ(*options.recorder.stream_out, "/tmp/s.jsonl");
  EXPECT_EQ(options.recorder.trace_buffer, 1024u);
  EXPECT_EQ(options.recorder.stream_stride, 16u);
  EXPECT_TRUE(options.recorder.requested());
}

TEST(Cli, RecorderFlagsDefaultOff) {
  const char* argv[] = {"bench"};
  const BenchOptions options =
      parse_bench_options(1, const_cast<char**>(argv));
  EXPECT_FALSE(options.recorder.requested());
  EXPECT_EQ(options.recorder.trace_buffer, std::size_t{1} << 15);
  EXPECT_EQ(options.recorder.stream_stride, 1u);
}

TEST(Cli, DefaultsWhenNoArgs) {
  unsetenv("BITSPREAD_QUICK");
  unsetenv("BITSPREAD_SEED");
  const char* argv[] = {"bench"};
  const BenchOptions options =
      parse_bench_options(1, const_cast<char**>(argv));
  EXPECT_FALSE(options.quick);
  EXPECT_EQ(options.seed, kDefaultMasterSeed);
  EXPECT_EQ(options.reps_or(5), 5);
}

TEST(Cli, QuickFromEnvironment) {
  const char* argv[] = {"bench"};
  setenv("BITSPREAD_QUICK", "1", 1);
  EXPECT_TRUE(parse_bench_options(1, const_cast<char**>(argv)).quick);
  setenv("BITSPREAD_QUICK", "0", 1);
  EXPECT_FALSE(parse_bench_options(1, const_cast<char**>(argv)).quick);
  unsetenv("BITSPREAD_QUICK");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// run_bench on a command line; `args` excludes the program name.
int run_bench_with(std::vector<std::string> args, const BenchBody& body) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return run_bench("front_door", static_cast<int>(argv.size()), argv.data(),
                   body);
}

TEST(Cli, RunBenchWritesReportTraceAndStream) {
  const std::string dir = testing::TempDir();
  const std::string json = dir + "/front_door.json";
  const std::string trace = dir + "/front_door_trace.json";
  const std::string stream = dir + "/front_door_stream.jsonl";
  std::uint64_t rounds = 0;
  const int status = run_bench_with(
      {"--quick", "--seed=7", "--json=" + json, "--trace-out=" + trace,
       "--stream-out=" + stream},
      [&](const BenchOptions& options, FlightRecorderScope&,
          JsonReporter& reporter) {
        const VoterDynamics voter;
        const AggregateParallelEngine engine(voter);
        StopRule rule;
        rule.max_rounds = 50;
        Rng rng(options.seed);
        rounds = engine.run(init_all_wrong(256, Opinion::kOne), rule, rng)
                     .rounds();
        Table table({"rounds"});
        table.add_row({Table::fmt(rounds)});
        reporter.add_table("run", table);
        return 0;
      });
  EXPECT_EQ(status, 0);

  const auto report = JsonValue::parse(read_file(json));
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(validate_bench_report(*report).empty());
  EXPECT_EQ(report->find("bench")->as_string(), "front_door");
  EXPECT_EQ(report->find("seed")->as_uint(), 7u);
  EXPECT_TRUE(report->find("quick")->as_bool());
  const JsonValue* tables = report->find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_EQ(tables->items().size(), 1u);
  EXPECT_EQ(tables->items()[0].find("title")->as_string(), "run");
  EXPECT_NE(report->find("flight_recorder"), nullptr);

  EXPECT_TRUE(JsonValue::parse(read_file(trace)).has_value());
  // One line per round, round 0 (the start) included.
  std::istringstream lines(read_file(stream));
  std::uint64_t expected_round = 0;
  for (std::string line; std::getline(lines, line); ++expected_round) {
    const auto parsed = JsonValue::parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->find("round")->as_uint(), expected_round);
  }
  EXPECT_GT(rounds, 0u);
  EXPECT_EQ(expected_round, rounds + 1);
}

TEST(Cli, RunBenchFailsOnUnwritableReportOrFailedBody) {
  const auto ok_body = [](const BenchOptions&, FlightRecorderScope&,
                          JsonReporter&) { return 0; };
  EXPECT_NE(run_bench_with({"--quick", "--json=" + testing::TempDir() +
                                           "/no-such-dir/report.json"},
                           ok_body),
            0);
  const std::string json = testing::TempDir() + "/front_door_failed.json";
  EXPECT_EQ(run_bench_with({"--quick", "--json=" + json},
                           [](const BenchOptions&, FlightRecorderScope&,
                              JsonReporter&) { return 3; }),
            3);
}

TEST(Seeds, EnvOverride) {
  setenv("BITSPREAD_SEED", "12345", 1);
  EXPECT_EQ(master_seed_from_env(), 12345u);
  setenv("BITSPREAD_SEED", "not-a-number", 1);
  EXPECT_EQ(master_seed_from_env(), kDefaultMasterSeed);
  unsetenv("BITSPREAD_SEED");
  EXPECT_EQ(master_seed_from_env(), kDefaultMasterSeed);
}

TEST(Measurement, CountsConvergedRuns) {
  const SeedSequence seeds(1);
  int calls = 0;
  const auto runner = [&calls](Rng& rng) {
    ++calls;
    RunResult result;
    result.reason = rng.bernoulli(0.5) ? StopReason::kCorrectConsensus
                                       : StopReason::kRoundLimit;
    result.ticks = 10;
    return result;
  };
  const ConvergenceMeasurement m = measure_convergence(runner, seeds, 0, 100);
  EXPECT_EQ(calls, 100);
  EXPECT_EQ(m.replicates, 100);
  EXPECT_EQ(m.converged + m.censored, 100);
  EXPECT_GT(m.converged, 20);
  EXPECT_GT(m.censored, 20);
  EXPECT_NEAR(m.convergence_rate(),
              m.converged / 100.0, 1e-12);
  EXPECT_EQ(m.rounds.count(), static_cast<std::uint64_t>(m.converged));
  EXPECT_EQ(m.rounds_lower_bound.count(), 100u);
}

TEST(Measurement, CellsGetIndependentStreams) {
  const SeedSequence seeds(2);
  const auto runner = [](Rng& rng) {
    RunResult result;
    result.reason = StopReason::kCorrectConsensus;
    result.ticks = rng.next_below(1000);
    return result;
  };
  const auto a = measure_convergence(runner, seeds, 0, 50);
  const auto b = measure_convergence(runner, seeds, 1, 50);
  EXPECT_NE(a.rounds.mean(), b.rounds.mean());
  // Same cell twice: identical.
  const auto a2 = measure_convergence(runner, seeds, 0, 50);
  EXPECT_DOUBLE_EQ(a.rounds.mean(), a2.rounds.mean());
}

TEST(Measurement, CrossingVariantCountsIntervalExit) {
  const SeedSequence seeds(3);
  const auto runner = [](Rng&) {
    RunResult result;
    result.reason = StopReason::kIntervalExit;
    result.ticks = 5;
    return result;
  };
  const ConvergenceMeasurement m = measure_crossing(runner, seeds, 0, 10);
  EXPECT_EQ(m.converged, 10);
  EXPECT_EQ(m.censored, 0);
}

TEST(Measurement, WrongOutcomeTracked) {
  const SeedSequence seeds(4);
  const auto runner = [](Rng&) {
    RunResult result;
    result.reason = StopReason::kWrongConsensus;
    return result;
  };
  const ConvergenceMeasurement m = measure_convergence(runner, seeds, 0, 5);
  EXPECT_EQ(m.wrong_outcome, 5);
  EXPECT_EQ(m.converged, 0);
}

// The documented double-count: every kDegraded run increments BOTH
// `degraded` and `censored`, so censored + degraded over-counts and
// censored_only() subtracts. These are the invariants experiment.h promises.
TEST(Measurement, DegradedIsDoubleCountedInsideCensored) {
  const SeedSequence seeds(5);
  int call = 0;
  const auto runner = [&call](Rng&) {
    RunResult result;
    const int i = call++;  // 2 degraded, 3 plain-capped, 4 converged, 1 wrong.
    if (i < 2) {
      result.reason = StopReason::kDegraded;
    } else if (i < 5) {
      result.reason = StopReason::kRoundLimit;
    } else if (i < 9) {
      result.reason = StopReason::kCorrectConsensus;
    } else {
      result.reason = StopReason::kWrongConsensus;
    }
    return result;
  };
  const ConvergenceMeasurement m = measure_convergence(runner, seeds, 0, 10);
  EXPECT_EQ(m.degraded, 2);
  EXPECT_EQ(m.censored, 5);  // The 2 degraded runs are counted here too.
  EXPECT_EQ(m.censored_only(), 3);
  EXPECT_GE(m.degraded, 0);
  EXPECT_LE(m.degraded, m.censored);
  EXPECT_EQ(m.converged + m.censored + m.wrong_outcome, m.replicates);
}

RunResult run_ending(StopReason reason) {
  RunResult result;
  result.reason = reason;
  return result;
}

// The ledger follows the measurement convention: a degraded run is counted
// in `degraded` and inside `censored`.
TEST(OutcomeLedger, TalliesRunsAndMeasurements) {
  OutcomeLedger ledger;
  ledger.add_run(run_ending(StopReason::kCorrectConsensus));
  ledger.add_run(run_ending(StopReason::kRoundLimit));
  ledger.add_run(run_ending(StopReason::kDegraded));
  ledger.add_run(run_ending(StopReason::kWrongConsensus));
  EXPECT_EQ(ledger.total(), 4);
  EXPECT_EQ(ledger.converged(), 1);
  EXPECT_EQ(ledger.censored(), 2);
  EXPECT_EQ(ledger.degraded(), 1);
  EXPECT_EQ(ledger.wrong(), 1);

  ConvergenceMeasurement m;
  m.replicates = 10;
  m.converged = 4;
  m.censored = 5;
  m.degraded = 2;
  m.wrong_outcome = 1;
  ledger.add(m);
  EXPECT_EQ(ledger.total(), 14);
  EXPECT_EQ(ledger.converged(), 5);
  EXPECT_EQ(ledger.censored(), 7);
  EXPECT_EQ(ledger.degraded(), 3);
  EXPECT_EQ(ledger.wrong(), 2);

  std::ostringstream line;
  ledger.report(line);
  EXPECT_EQ(line.str(),
            "outcomes: 5/14 converged, 7 censored (round cap) (3 degraded), "
            "2 wrong outcome\n");
}

TEST(OutcomeLedger, ExitStatusFailsWhenNothingConverged) {
  OutcomeLedger ledger;
  EXPECT_EQ(ledger.exit_status(), 1);
  ledger.add_run(run_ending(StopReason::kRoundLimit));
  ledger.add_run(run_ending(StopReason::kDegraded));
  ledger.add_run(run_ending(StopReason::kWrongConsensus));
  EXPECT_EQ(ledger.exit_status(), 1);
  ledger.add_run(run_ending(StopReason::kCorrectConsensus));
  EXPECT_EQ(ledger.exit_status(), 0);
}

// The block bench_thm1_lower_bound and bench_thm2_voter_upper write under
// "metrics": exactly the five outcomes.* counters of their committed
// reports, and empty gauge and histogram maps.
TEST(OutcomeLedger, MetricsBlockHoldsTheFiveOutcomeCounters) {
  OutcomeLedger ledger;
  ledger.add_run(run_ending(StopReason::kCorrectConsensus));
  ledger.add_run(run_ending(StopReason::kCorrectConsensus));
  ledger.add_run(run_ending(StopReason::kDegraded));
  const JsonValue block = metrics_to_json(ledger.metrics());
  const JsonValue* counters = block.find("counters");
  ASSERT_NE(counters, nullptr);
  std::vector<std::pair<std::string, std::uint64_t>> got;
  for (const auto& [name, value] : counters->members()) {
    got.emplace_back(name, value.as_uint());
  }
  const std::vector<std::pair<std::string, std::uint64_t>> want = {
      {"outcomes.censored", 1}, {"outcomes.converged", 2},
      {"outcomes.degraded", 1}, {"outcomes.total", 3},
      {"outcomes.wrong", 0}};
  EXPECT_EQ(got, want);
  ASSERT_NE(block.find("gauges"), nullptr);
  EXPECT_TRUE(block.find("gauges")->members().empty());
  ASSERT_NE(block.find("histograms"), nullptr);
  EXPECT_TRUE(block.find("histograms")->members().empty());
}

}  // namespace
}  // namespace bitspread
