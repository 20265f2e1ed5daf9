// The unified run-loop core (engine/run_loop.h): TimePolicy/TimeUnit
// conversions, and the cross-cutting driver features — telemetry,
// trajectory and flight-recorder recording — on the engines that gained
// them in the refactor (alpha-synchronous, conflicting-sources,
// multi-opinion, population).
#include <gtest/gtest.h>

#include <string>

#include "engine/aggregate.h"
#include "engine/alpha_sync.h"
#include "engine/conflicting.h"
#include "engine/run_loop.h"
#include "engine/stopping.h"
#include "engine/trajectory.h"
#include "faults/environment.h"
#include "multi/engine.h"
#include "multi/protocols.h"
#include "population/engine.h"
#include "population/protocols.h"
#include "profile/counters.h"
#include "protocols/voter.h"
#include "telemetry/jsonl.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace {

TEST(TimePolicy, FactoriesSetUnitsAndScales) {
  const TimePolicy parallel = TimePolicy::parallel();
  EXPECT_EQ(parallel.unit, TimeUnit::kParallelRounds);
  EXPECT_EQ(parallel.ticks_per_round, 1u);
  EXPECT_EQ(parallel.units_per_tick, 1u);

  const TimePolicy activations = TimePolicy::activations(30);
  EXPECT_EQ(activations.unit, TimeUnit::kActivations);
  EXPECT_EQ(activations.ticks_per_round, 30u);
  EXPECT_EQ(activations.units_per_tick, 1u);

  const TimePolicy interactions = TimePolicy::interaction_rounds(30);
  EXPECT_EQ(interactions.unit, TimeUnit::kActivations);
  EXPECT_EQ(interactions.ticks_per_round, 1u);
  EXPECT_EQ(interactions.units_per_tick, 30u);

  const TimePolicy alpha = TimePolicy::alpha_rounds(0.25);
  EXPECT_EQ(alpha.unit, TimeUnit::kAlphaRounds);
  EXPECT_DOUBLE_EQ(alpha.alpha, 0.25);

  EXPECT_FALSE(parallel.describe().empty());
  EXPECT_FALSE(interactions.describe().empty());
}

TEST(TimeUnitResult, AccessorsConvertBetweenUnits) {
  RunResult parallel;
  parallel.unit = TimeUnit::kParallelRounds;
  parallel.ticks = 7;
  parallel.final_config = Configuration{30, 30, Opinion::kOne};
  EXPECT_EQ(parallel.rounds(), 7u);
  EXPECT_EQ(parallel.activations(), 210u);
  EXPECT_DOUBLE_EQ(parallel.parallel_rounds(), 7.0);

  RunResult sequential;
  sequential.unit = TimeUnit::kActivations;
  sequential.ticks = 90;
  sequential.final_config = Configuration{30, 30, Opinion::kOne};
  EXPECT_EQ(sequential.rounds(), 3u);
  EXPECT_EQ(sequential.activations(), 90u);
  EXPECT_DOUBLE_EQ(sequential.parallel_rounds(), 3.0);

  RunResult alpha;
  alpha.unit = TimeUnit::kAlphaRounds;
  alpha.alpha = 0.5;
  alpha.ticks = 10;
  alpha.final_config = Configuration{30, 30, Opinion::kOne};
  EXPECT_EQ(alpha.rounds(), 10u);
  EXPECT_EQ(alpha.activations(), 150u);
  EXPECT_DOUBLE_EQ(alpha.parallel_rounds(), 5.0);
}

TEST(TimeUnitResult, ToStringNamesEveryUnit) {
  EXPECT_FALSE(to_string(TimeUnit::kParallelRounds).empty());
  EXPECT_FALSE(to_string(TimeUnit::kActivations).empty());
  EXPECT_FALSE(to_string(TimeUnit::kAlphaRounds).empty());
  EXPECT_NE(to_string(TimeUnit::kParallelRounds),
            to_string(TimeUnit::kActivations));
}

// --- Alpha-synchronous engine ---------------------------------------------

TEST(RunLoopTrajectory, AlphaRunRecordsEveryRoundAndTheFinalState) {
  const VoterDynamics voter;
  const AlphaSynchronousEngine engine(voter, 0.5);
  StopRule rule;
  rule.max_rounds = 20;
  Rng rng(73);
  Trajectory trajectory;
  const RunResult result = engine.run(Configuration{256, 128, Opinion::kOne},
                                      rule, rng, &trajectory);
  ASSERT_FALSE(trajectory.empty());
  EXPECT_EQ(trajectory.points().front().round, 0u);
  EXPECT_EQ(trajectory.back().round, result.ticks);
  EXPECT_EQ(trajectory.back().ones, result.final_config.ones);
  EXPECT_EQ(trajectory.size(), result.ticks + 1);
}

// --- Conflicting-sources engine -------------------------------------------

TEST(RunLoopTelemetry, ConflictingWatchCarriesTelemetry) {
  const VoterDynamics voter;
  const ConflictingAggregateEngine engine(voter);
  Rng rng(75);
  Trajectory trajectory;
  const auto watch = engine.watch(ConflictingConfiguration{64, 32, 4, 2}, 25,
                                  rng, &trajectory);
  EXPECT_EQ(trajectory.back().round, 25u);
  EXPECT_EQ(watch.telemetry.rounds, 25u);
  EXPECT_GT(watch.telemetry.samples_drawn, 0u);
}

// --- Population engine ----------------------------------------------------

TEST(RunLoopTrajectory, PopulationRunRecordsPerParallelRound) {
  const EpidemicProtocol epidemic;
  const PopulationEngine engine(epidemic);
  StopRule rule;
  rule.max_rounds = 1000000;
  Rng rng(82);
  auto population = engine.make_population(64, Opinion::kOne, 1);
  Trajectory trajectory;
  const RunResult result = engine.run(population, rule, rng, &trajectory);
  EXPECT_TRUE(result.converged());
  EXPECT_EQ(result.unit, TimeUnit::kActivations);
  EXPECT_EQ(result.ticks, result.rounds() * 64);
  ASSERT_FALSE(trajectory.empty());
  EXPECT_EQ(trajectory.points().front().round, 0u);
  EXPECT_EQ(trajectory.back().round, result.rounds());
  EXPECT_EQ(trajectory.back().ones, result.final_config.ones);
}

// --- Flight-recorder round streams from the newly migrated engines --------

TEST(RunLoopTelemetry, MigratedEnginesStreamRounds) {
  const std::string path = testing::TempDir() + "/run_loop_rounds.jsonl";
  {
    telemetry::RoundStream stream(path);
    ASSERT_TRUE(stream.ok());
    const VoterDynamics voter;
    const AlphaSynchronousEngine alpha(voter, 0.5);
    StopRule rule;
    rule.max_rounds = 10;  // Voter needs ~n rounds: no consensus inside 10.
    Rng rng(83);
    RunResult result;
    {
      const telemetry::SinkScope scope({.rounds = &stream});
      result = alpha.run(Configuration{4096, 2048, Opinion::kOne}, rule, rng);
    }

    EXPECT_EQ(result.ticks, 10u);
    EXPECT_EQ(stream.rounds_seen(), result.ticks + 1);
  }
  {
    telemetry::RoundStream stream(path);
    ASSERT_TRUE(stream.ok());
    const MultiVoter voter(3, 4);
    const MultiAggregateEngine engine(voter);
    StopRule rule;
    rule.max_rounds = 10;
    Rng rng(84);
    MultiRunResult result;
    {
      const telemetry::SinkScope scope({.rounds = &stream});
      result =
          engine.run(MultiConfiguration{{2048, 1024, 1024}, 0, 1}, rule, rng);
    }

    EXPECT_EQ(stream.rounds_seen(), result.rounds + 1);
  }
  {
    telemetry::RoundStream stream(path);
    ASSERT_TRUE(stream.ok());
    const PairwiseVoter voter;
    const PopulationEngine engine(voter);
    StopRule rule;
    rule.max_rounds = 10;
    Rng rng(85);
    auto population = engine.make_population(256, Opinion::kOne, 128);
    RunResult result;
    {
      const telemetry::SinkScope scope({.rounds = &stream});
      result = engine.run(population, rule, rng);
    }

    EXPECT_EQ(stream.rounds_seen(), result.rounds() + 1);
  }
}

// --- One probe, one reading, every sink -----------------------------------

// Under a phase AND a PMU sink, each driver site is bracketed by ONE probe
// whose single reading per end feeds both sinks: one round_step sample per
// round in each, and per-phase nanosecond totals equal to the nanosecond.
TEST(RunLoopTelemetry, OneReadingFeedsPhaseAndPmuSinksAlike) {
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  StopRule rule;
  rule.max_rounds = 64;  // Voter needs ~n rounds: no consensus inside 64.
  EnvironmentModel model;
  model.observation_noise = 0.01;
  model.source_flip_rounds = {10};
  telemetry::PhaseStats phases;
  profile::PmuPhaseStats pmu;
  RunResult result;
  {
    const telemetry::SinkScope scope({.phases = &phases, .pmu = &pmu});
    Rng rng(91);
    result = engine.run(Configuration{4096, 2048, Opinion::kOne}, rule, model,
                        rng);
  }
  ASSERT_EQ(result.rounds(), 64u);
  EXPECT_EQ(phases.count(telemetry::Phase::kRoundStep), result.rounds());
  EXPECT_EQ(pmu.samples(telemetry::Phase::kRoundStep), result.rounds());
  for (const telemetry::Phase phase :
       {telemetry::Phase::kRoundStep, telemetry::Phase::kStopCheck,
        telemetry::Phase::kFaultApply}) {
    EXPECT_GT(phases.count(phase), 0u) << telemetry::phase_name(phase);
    EXPECT_EQ(phases.count(phase), pmu.samples(phase))
        << telemetry::phase_name(phase);
    EXPECT_EQ(phases.total_ns(phase), pmu.wall_ns(phase))
        << telemetry::phase_name(phase);
  }
}

}  // namespace
}  // namespace bitspread
