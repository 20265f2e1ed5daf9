// The fault paths keep the engines' exactness and determinism contracts:
//  * the sharded engine's faulty runs are bit-identical for every thread
//    count and shard count, with the full fault model active;
//  * the agent-level operational noise (per-probe BSC bit flips) follows the
//    same law as the exact NoisyObservationProtocol closed form, checked by
//    chi-square against the dense Markov chain;
//  * the zealot geometry is distribution-identical between the agent and
//    aggregate faulty paths.
#include <gtest/gtest.h>

#include <vector>

#include "core/init.h"
#include "core/stateful.h"
#include "engine/agent.h"
#include "engine/aggregate.h"
#include "engine/sharded.h"
#include "faults/environment.h"
#include "faults/noisy_protocol.h"
#include "faults/session.h"
#include "markov/dense_chain.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "random/binomial.h"
#include "stats/ks.h"

namespace bitspread {
namespace {

EnvironmentModel full_fault_model() {
  EnvironmentModel model;
  model.observation_noise = 0.05;
  model.spontaneous_rate = 0.01;
  model.zealot_fraction = 0.1;
  model.churn_rate = 0.01;
  model.source_flip_rounds = {5, 11};
  model.convergence_quorum = 0.95;
  return model;
}

struct RunRecord {
  RunResult result;
  std::vector<Trajectory::Point> points;
};

RunRecord run_faulty(ShardedAgentEngine::Options options, std::uint64_t n,
                     std::uint64_t seed) {
  const VoterDynamics voter;
  const ShardedAgentEngine engine(voter, options);
  // A round cap, not convergence: bit-identity is asserted on the full
  // trajectory plus the recovery segments.
  StopRule rule;
  rule.max_rounds = 40;
  Trajectory trajectory;
  RunRecord record;
  record.result = engine.run(init_half(n, Opinion::kOne), rule,
                             full_fault_model(), seed, &trajectory);
  record.points.assign(trajectory.points().begin(),
                       trajectory.points().end());
  return record;
}

void expect_identical(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.result.reason, b.result.reason);
  EXPECT_EQ(a.result.rounds(), b.result.rounds());
  EXPECT_EQ(a.result.final_config, b.result.final_config);
  EXPECT_EQ(a.result.recoveries, b.result.recoveries);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].round, b.points[i].round);
    EXPECT_EQ(a.points[i].ones, b.points[i].ones);
  }
}

TEST(FaultDeterminism, ShardedBitIdenticalAcrossThreadCounts) {
  // All five channels active at once: every fault draw must live in the
  // per-(round, block) streams, so the worker count is pure scheduling.
  const std::uint64_t n = 3 * ShardedAgentEngine::kBlockAgents + 77;
  const RunRecord one = run_faulty({.threads = 1}, n, 42);
  for (const unsigned threads : {2u, 8u}) {
    const RunRecord many = run_faulty({.threads = threads}, n, 42);
    expect_identical(one, many);
  }
}

TEST(FaultDeterminism, ShardedBitIdenticalAcrossShardCounts) {
  const std::uint64_t n = 3 * ShardedAgentEngine::kBlockAgents + 77;
  const RunRecord baseline = run_faulty({.threads = 2, .shards = 1}, n, 43);
  for (const std::uint32_t shards : {2u, 3u, 8u}) {
    const RunRecord other =
        run_faulty({.threads = 2, .shards = shards}, n, 43);
    expect_identical(baseline, other);
  }
}

TEST(FaultDeterminism, FaultySeedStreamsDifferFromFaultFree) {
  // The faulty path draws from its own stream phase: an all-zero fault
  // model reproduces the fault-free LAW, but not the same sample path.
  const std::uint64_t n = ShardedAgentEngine::kBlockAgents + 5;
  const VoterDynamics voter;
  const ShardedAgentEngine engine(voter, {.threads = 2});
  StopRule rule;
  rule.max_rounds = 50;
  const RunResult plain =
      engine.run(init_half(n, Opinion::kOne), rule, /*seed=*/7);
  const RunResult faulty = engine.run(init_half(n, Opinion::kOne), rule,
                                      EnvironmentModel{}, /*seed=*/7);
  EXPECT_NE(plain.final_config.ones, faulty.final_config.ones);
}

// Operational per-probe bit flips in the agent engine, against the exact
// dense chain of the NoisyObservationProtocol: one faulty step from x0 must
// follow the closed-form transition row.
TEST(FaultDeterminism, AgentNoisyStepMatchesExactNoisyChainRow) {
  const MinorityDynamics minority(3);
  EnvironmentModel model;
  model.observation_noise = 0.1;
  const NoisyObservationProtocol noisy(minority, model);
  const std::uint64_t n = 30;
  const std::uint64_t x0 = 12;
  const DenseParallelChain chain(noisy, n, Opinion::kOne);
  const std::vector<double> expected = chain.transition_row(x0);

  const MemorylessAsStateful adapter(minority);
  const AgentParallelEngine engine(adapter);
  StopRule rule;
  rule.max_rounds = 1;
  const int kTrials = 40000;
  std::vector<std::uint64_t> counts(chain.state_count(), 0);
  for (int i = 0; i < kTrials; ++i) {
    Rng rng(9000 + i);
    const RunResult result =
        engine.run(Configuration{n, x0, Opinion::kOne}, rule, model, rng);
    ++counts[result.final_config.ones - chain.min_state()];
  }
  int dof = 0;
  const double stat = chi_square_statistic(counts, expected, kTrials, &dof);
  EXPECT_GT(chi_square_p_value(stat, dof), 1e-4)
      << "stat=" << stat << " dof=" << dof;
}

// Same law through the sharded packed-plane fast path.
TEST(FaultDeterminism, ShardedNoisyStepMatchesExactNoisyChainRow) {
  const MinorityDynamics minority(3);
  EnvironmentModel model;
  model.observation_noise = 0.1;
  const NoisyObservationProtocol noisy(minority, model);
  const std::uint64_t n = 30;
  const std::uint64_t x0 = 12;
  const DenseParallelChain chain(noisy, n, Opinion::kOne);
  const std::vector<double> expected = chain.transition_row(x0);

  const ShardedAgentEngine engine(minority, {.threads = 2});
  const Configuration config{n, x0, Opinion::kOne};
  const FaultSession session(model, config);
  const int kTrials = 40000;
  std::vector<std::uint64_t> counts(chain.state_count(), 0);
  for (int i = 0; i < kTrials; ++i) {
    auto population = engine.make_population(config);
    engine.step(population, 0, SeedSequence(11000 + i), session);
    ++counts[population.count_ones() - chain.min_state()];
  }
  int dof = 0;
  const double stat = chi_square_statistic(counts, expected, kTrials, &dof);
  EXPECT_GT(chi_square_p_value(stat, dof), 1e-4)
      << "stat=" << stat << " dof=" << dof;
}

// Zealot geometry: one faulty agent-engine round under noise + zealots must
// follow the aggregate closed form
//   ones' = sources + zealot_ones + Bin(free_ones, P1) + Bin(free_zeros, P0)
// with P_b evaluated at the noisy fraction.
TEST(FaultDeterminism, AgentZealotStepMatchesAggregateClosedForm) {
  const MinorityDynamics minority(3);
  EnvironmentModel model;
  model.observation_noise = 0.1;
  model.zealot_fraction = 0.2;
  const std::uint64_t n = 40;
  const Configuration config{n, 15, Opinion::kOne, 1};
  const FaultSession session(model, config);
  const Configuration planted = session.plant(config);
  const std::uint64_t free_ones = session.free_ones(planted);
  const std::uint64_t free_zeros = session.free_zeros(planted);

  const double noisy_p =
      session.model().noisy_fraction(planted.fraction_ones());
  const double p1 = minority.aggregate_adoption(Opinion::kOne, noisy_p, n);
  const double p0 = minority.aggregate_adoption(Opinion::kZero, noisy_p, n);
  // pmf of Bin(free_ones, p1) + Bin(free_zeros, p0) by direct convolution.
  const std::vector<double> pmf_ones = binomial_pmf(free_ones, p1);
  const std::vector<double> pmf_zeros = binomial_pmf(free_zeros, p0);
  std::vector<double> expected(free_ones + free_zeros + 1, 0.0);
  for (std::size_t a = 0; a < pmf_ones.size(); ++a) {
    for (std::size_t b = 0; b < pmf_zeros.size(); ++b) {
      expected[a + b] += pmf_ones[a] * pmf_zeros[b];
    }
  }
  const std::uint64_t offset =
      planted.source_ones() + session.zealot_ones();

  const MemorylessAsStateful adapter(minority);
  const AgentParallelEngine engine(adapter);
  StopRule rule;
  rule.max_rounds = 1;
  const int kTrials = 20000;
  std::vector<std::uint64_t> counts(expected.size(), 0);
  for (int i = 0; i < kTrials; ++i) {
    Rng rng(13000 + i);
    const RunResult result = engine.run(config, rule, model, rng);
    ASSERT_GE(result.final_config.ones, offset);
    ++counts[result.final_config.ones - offset];
  }
  int dof = 0;
  const double stat = chi_square_statistic(counts, expected, kTrials, &dof);
  EXPECT_GT(chi_square_p_value(stat, dof), 1e-4)
      << "stat=" << stat << " dof=" << dof;
}

// Convergence-time law under noise agrees between the aggregate faulty path
// (exact closed form) and the agent engine's faulty path (explicit noisy
// observations) run to the same quorum.
TEST(FaultDeterminism, AggregateAndAgentNoisyConvergenceLawsAgree) {
  const MinorityDynamics minority(SampleSizePolicy::sqrt_n_log_n());
  EnvironmentModel model;
  model.observation_noise = 0.02;
  model.convergence_quorum = 0.9;
  const std::uint64_t n = 256;
  StopRule rule;
  rule.max_rounds = 5000;

  const AggregateParallelEngine aggregate(minority);
  const MemorylessAsStateful adapter(minority);
  const AgentParallelEngine agent(adapter);

  const int kTrials = 200;
  std::vector<double> agg_times, agent_times;
  int censored = 0;
  for (int i = 0; i < kTrials; ++i) {
    Rng rng_a(15000 + i);
    Rng rng_b(16000 + i);
    const RunResult a =
        aggregate.run(init_all_wrong(n, Opinion::kOne), rule, model, rng_a);
    const RunResult b =
        agent.run(init_all_wrong(n, Opinion::kOne), rule, model, rng_b);
    if (a.converged()) agg_times.push_back(static_cast<double>(a.rounds()));
    if (b.converged()) agent_times.push_back(static_cast<double>(b.rounds()));
    censored += !a.converged() + !b.converged();
  }
  // Both engines should solve this mild regime essentially always.
  EXPECT_LT(censored, kTrials / 10);
  const double d = ks_statistic(agg_times, agent_times);
  EXPECT_GT(ks_p_value(d, agg_times.size(), agent_times.size()), 1e-3)
      << "KS=" << d;
}

}  // namespace
}  // namespace bitspread
