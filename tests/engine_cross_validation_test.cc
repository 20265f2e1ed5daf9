// Distribution-identity cross-checks between the three representations of
// the same dynamics: the aggregate engine, the agent-level engine, and the
// exact dense Markov chain. These tests are the empirical backbone of the
// aggregate-chain reduction (DESIGN.md §3).
#include <gtest/gtest.h>

#include <vector>

#include "core/stateful.h"
#include "engine/agent.h"
#include "engine/aggregate.h"
#include "engine/alpha_sync.h"
#include "engine/conflicting.h"
#include "engine/sharded.h"
#include "faults/environment.h"
#include "markov/absorption.h"
#include "markov/dense_chain.h"
#include "protocols/minority.h"
#include "protocols/three_majority.h"
#include "protocols/voter.h"
#include "stats/ks.h"
#include "stats/summary.h"

namespace bitspread {
namespace {

// One-step distribution of the aggregate engine against the exact chain row,
// by chi-square.
TEST(CrossValidation, AggregateStepMatchesExactChainRow) {
  const MinorityDynamics minority(3);
  const std::uint64_t n = 30;
  const std::uint64_t x0 = 12;
  const DenseParallelChain chain(minority, n, Opinion::kOne);
  const std::vector<double> expected = chain.transition_row(x0);

  const AggregateParallelEngine engine(minority);
  Rng rng(1);
  const int kTrials = 40000;
  std::vector<std::uint64_t> counts(chain.state_count(), 0);
  for (int i = 0; i < kTrials; ++i) {
    const Configuration next =
        engine.step(Configuration{n, x0, Opinion::kOne}, rng);
    ++counts[next.ones - chain.min_state()];
  }
  int dof = 0;
  const double stat = chi_square_statistic(counts, expected, kTrials, &dof);
  EXPECT_GT(chi_square_p_value(stat, dof), 1e-4)
      << "stat=" << stat << " dof=" << dof;
}

// One-step distribution of the AGENT engine against the exact chain row.
TEST(CrossValidation, AgentStepMatchesExactChainRow) {
  const ThreeMajorityDynamics three;
  const std::uint64_t n = 24;
  const std::uint64_t x0 = 10;
  const DenseParallelChain chain(three, n, Opinion::kZero);
  const std::vector<double> expected = chain.transition_row(x0);

  const MemorylessAsStateful adapter(three);
  const AgentParallelEngine engine(adapter);
  Rng rng(2);
  const int kTrials = 30000;
  std::vector<std::uint64_t> counts(chain.state_count(), 0);
  for (int i = 0; i < kTrials; ++i) {
    auto population =
        engine.make_population(Configuration{n, x0, Opinion::kZero});
    engine.step(population, rng);
    ++counts[population.count_ones() - chain.min_state()];
  }
  int dof = 0;
  const double stat = chi_square_statistic(counts, expected, kTrials, &dof);
  EXPECT_GT(chi_square_p_value(stat, dof), 1e-4)
      << "stat=" << stat << " dof=" << dof;
}

// Full-trajectory comparison: convergence-time samples from the two engines
// are drawn from the same law (KS test).
TEST(CrossValidation, ConvergenceTimeLawsAgreeAcrossEngines) {
  // Voter converges from any start in O(n log n) rounds, so every replicate
  // finishes. (Minority with constant l would stall at its interior fixed
  // point — the Theorem 1 phenomenon — and censor the comparison.)
  const VoterDynamics voter;
  const std::uint64_t n = 30;
  StopRule rule;
  rule.max_rounds = 1000000;

  const AggregateParallelEngine aggregate(voter);
  const MemorylessAsStateful adapter(voter);
  const AgentParallelEngine agent(adapter);

  const int kTrials = 400;
  std::vector<double> agg_times, agent_times;
  for (int i = 0; i < kTrials; ++i) {
    Rng rng_a(10000 + i), rng_b(20000 + i);
    const RunResult a =
        aggregate.run(Configuration{n, 10, Opinion::kOne}, rule, rng_a);
    const RunResult b =
        agent.run(Configuration{n, 10, Opinion::kOne}, rule, rng_b);
    ASSERT_TRUE(a.converged());
    ASSERT_TRUE(b.converged());
    agg_times.push_back(static_cast<double>(a.rounds()));
    agent_times.push_back(static_cast<double>(b.rounds()));
  }
  const double d = ks_statistic(agg_times, agent_times);
  EXPECT_GT(ks_p_value(d, agg_times.size(), agent_times.size()), 1e-3)
      << "KS=" << d;
}

// One-step distribution of the SHARDED agent engine against the exact chain
// row: the packed-plane + g-table fast path samples the same law.
TEST(CrossValidation, ShardedStepMatchesExactChainRow) {
  const MinorityDynamics minority(3);
  const std::uint64_t n = 30;
  const std::uint64_t x0 = 12;
  const DenseParallelChain chain(minority, n, Opinion::kOne);
  const std::vector<double> expected = chain.transition_row(x0);

  const ShardedAgentEngine engine(minority, {.threads = 2});
  const int kTrials = 40000;
  std::vector<std::uint64_t> counts(chain.state_count(), 0);
  for (int i = 0; i < kTrials; ++i) {
    auto population =
        engine.make_population(Configuration{n, x0, Opinion::kOne});
    engine.step(population, 0, SeedSequence(7000 + i));
    ++counts[population.count_ones() - chain.min_state()];
  }
  int dof = 0;
  const double stat = chi_square_statistic(counts, expected, kTrials, &dof);
  EXPECT_GT(chi_square_p_value(stat, dof), 1e-4)
      << "stat=" << stat << " dof=" << dof;
}

// Convergence-time laws agree between the sharded engine and the aggregate
// engine (the memory-less reduction it cross-validates at scale).
TEST(CrossValidation, ShardedAndAggregateConvergenceLawsAgree) {
  const VoterDynamics voter;
  const std::uint64_t n = 30;
  StopRule rule;
  rule.max_rounds = 1000000;

  const AggregateParallelEngine aggregate(voter);
  const ShardedAgentEngine sharded(voter, {.threads = 2});

  const int kTrials = 400;
  std::vector<double> agg_times, sharded_times;
  for (int i = 0; i < kTrials; ++i) {
    Rng rng_a(60000 + i);
    const RunResult a =
        aggregate.run(Configuration{n, 10, Opinion::kOne}, rule, rng_a);
    const RunResult b =
        sharded.run(Configuration{n, 10, Opinion::kOne}, rule,
                    70000 + static_cast<std::uint64_t>(i));
    ASSERT_TRUE(a.converged());
    ASSERT_TRUE(b.converged());
    agg_times.push_back(static_cast<double>(a.rounds()));
    sharded_times.push_back(static_cast<double>(b.rounds()));
  }
  const double d = ks_statistic(agg_times, sharded_times);
  EXPECT_GT(ks_p_value(d, agg_times.size(), sharded_times.size()), 1e-3)
      << "KS=" << d;
}

// Without-replacement boundary: l = n = 100 draws see the whole population
// — beyond the old rejection sampler's l <= 64 cap, and the exact point
// where rejection degenerated. Floyd's method handles it in O(l).
TEST(CrossValidation, WithoutReplacementFullSampleBoundary) {
  const MinorityDynamics minority(100);
  const MemorylessAsStateful adapter(minority);
  const AgentParallelEngine engine(
      adapter, AgentParallelEngine::Sampling::kWithoutReplacement);
  Rng rng(9);
  const std::uint64_t n = 100;
  auto population =
      engine.make_population(Configuration{n, 40, Opinion::kOne});
  engine.step(population, rng);
  EXPECT_EQ(population.views.size(), n);
  EXPECT_TRUE(population.config().valid());
}

// Mean convergence time of the aggregate engine against the exact expected
// absorption time from the dense chain.
TEST(CrossValidation, MeanConvergenceMatchesExactAbsorptionTime) {
  const MinorityDynamics minority(3);
  const std::uint64_t n = 20;
  const std::uint64_t x0 = 8;
  const DenseParallelChain chain(minority, n, Opinion::kOne);
  const double exact =
      expected_convergence_rounds(chain)[x0 - chain.min_state()];

  const AggregateParallelEngine engine(minority);
  StopRule rule;
  rule.max_rounds = 1000000;
  RunningStats stats;
  const int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) {
    Rng rng(30000 + i);
    const RunResult result =
        engine.run(Configuration{n, x0, Opinion::kOne}, rule, rng);
    ASSERT_TRUE(result.converged());
    stats.add(static_cast<double>(result.rounds()));
  }
  EXPECT_NEAR(stats.mean(), exact, 5.0 * stats.stderr_mean())
      << "exact=" << exact;
}

// The alpha-synchronous scheduler at alpha = 1 IS the parallel setting:
// convergence-time laws match the aggregate engine's (KS). Not bit-identity —
// the alpha engine spends two extra activation binomials per round — so the
// comparison is distributional.
TEST(CrossValidation, AlphaOneMatchesAggregateConvergenceLaw) {
  const VoterDynamics voter;
  const std::uint64_t n = 30;
  StopRule rule;
  rule.max_rounds = 1000000;

  const AggregateParallelEngine aggregate(voter);
  const AlphaSynchronousEngine alpha(voter, 1.0);

  const int kTrials = 400;
  std::vector<double> agg_times, alpha_times;
  for (int i = 0; i < kTrials; ++i) {
    Rng rng_a(80000 + i), rng_b(90000 + i);
    const RunResult a =
        aggregate.run(Configuration{n, 10, Opinion::kOne}, rule, rng_a);
    const RunResult b =
        alpha.run(Configuration{n, 10, Opinion::kOne}, rule, rng_b);
    ASSERT_TRUE(a.converged());
    ASSERT_TRUE(b.converged());
    EXPECT_EQ(b.unit, TimeUnit::kAlphaRounds);
    agg_times.push_back(a.parallel_rounds());
    alpha_times.push_back(b.parallel_rounds());
  }
  const double d = ks_statistic(agg_times, alpha_times);
  EXPECT_GT(ks_p_value(d, agg_times.size(), alpha_times.size()), 1e-3)
      << "KS=" << d;
}

// E15 reports ConflictingAggregateEngine::watch, so watch is checked
// against the aggregate engine round by round: same seed, same draws, the
// same X_t at every round up to the aggregate run's stop.
void expect_same_rounds(const Trajectory& aggregate,
                        const Trajectory& watched) {
  ASSERT_EQ(aggregate.size(), watched.size());
  for (std::size_t i = 0; i < aggregate.size(); ++i) {
    EXPECT_EQ(aggregate.points()[i].round, watched.points()[i].round);
    EXPECT_EQ(aggregate.points()[i].ones, watched.points()[i].ones)
        << "round " << aggregate.points()[i].round;
  }
}

// A single stubborn camp IS the standard single-source model: watching it
// is bit-for-bit the plain aggregate run with the same seed.
TEST(CrossValidation, ConflictingSingleCampIsBitIdenticalToStandardRun) {
  const MinorityDynamics minority(3);
  const ConflictingAggregateEngine conflicting(minority);
  const AggregateParallelEngine aggregate(minority);
  StopRule rule;
  rule.max_rounds = 5000;

  for (int i = 0; i < 50; ++i) {
    Rng rng_a(120000 + i), rng_b(120000 + i);
    Trajectory run_rounds, watch_rounds;
    const RunResult a = aggregate.run(Configuration{40, 12, Opinion::kOne, 1},
                                      rule, rng_a, &run_rounds);
    ASSERT_GT(a.ticks, 0u);
    const auto b = conflicting.watch(ConflictingConfiguration{40, 12, 1, 0},
                                     a.ticks, rng_b, &watch_rounds);
    expect_same_rounds(run_rounds, watch_rounds);
    EXPECT_EQ(a.final_config.ones, b.final_config.ones);
  }
}

// With both camps, watch is the zealot reduction: the majority camp as the
// sources of a binary run and the minority camp as exact zealots on the
// other opinion (EnvironmentModel::extra_zealots). With every other channel
// off, NoisyObservationProtocol returns the base adoption exactly, so the
// aggregate faulty run draws what watch draws, up to that run's stop.
TEST(CrossValidation, ConflictingTwoCampsAreBitIdenticalToZealotRun) {
  const VoterDynamics voter;
  const ConflictingAggregateEngine conflicting(voter);
  const AggregateParallelEngine aggregate(voter);
  StopRule rule;
  rule.max_rounds = 5000;

  for (const ConflictingConfiguration camps :
       {ConflictingConfiguration{64, 32, 4, 2},
        ConflictingConfiguration{64, 30, 2, 5}}) {
    const Opinion majority = camps.majority_preference();
    const bool ones_lead = majority == Opinion::kOne;
    EnvironmentModel model;
    model.extra_zealots =
        ones_lead ? camps.stubborn_zeros : camps.stubborn_ones;
    model.convergence_quorum = 0.75;  // Decides only where the run stops.
    const Configuration binary{
        camps.n, camps.ones, majority,
        ones_lead ? camps.stubborn_ones : camps.stubborn_zeros};
    for (int i = 0; i < 50; ++i) {
      Rng rng_a(130000 + i), rng_b(130000 + i);
      Trajectory run_rounds, watch_rounds;
      const RunResult a =
          aggregate.run(binary, rule, model, rng_a, &run_rounds);
      EXPECT_EQ(a.telemetry.fault_zealots, model.extra_zealots);
      ASSERT_GT(a.ticks, 0u);
      const auto b = conflicting.watch(camps, a.ticks, rng_b, &watch_rounds);
      expect_same_rounds(run_rounds, watch_rounds);
      EXPECT_EQ(a.final_config.ones, b.final_config.ones);
    }
  }
}

}  // namespace
}  // namespace bitspread
