// The sharded agent-level engine: the determinism contract (bit-identical
// results for every thread count and shard count), agreement with the
// reference engines, and the stateful/adversarial paths.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/init.h"
#include "core/stateful.h"
#include "engine/agent.h"
#include "engine/sharded.h"
#include "faults/environment.h"
#include "markov/dense_chain.h"
#include "protocols/minority.h"
#include "protocols/three_majority.h"
#include "protocols/undecided.h"
#include "protocols/voter.h"
#include "sim/parallel.h"
#include "snapshot/state.h"
#include "stats/ks.h"
#include "topology/topology.h"

namespace bitspread {
namespace {

struct RunRecord {
  RunResult result;
  std::vector<Trajectory::Point> points;
};

RunRecord run_voter(ShardedAgentEngine::Options options, std::uint64_t n,
                    std::uint64_t seed) {
  const VoterDynamics voter;
  const ShardedAgentEngine engine(voter, options);
  // A round cap, not consensus: bit-identity is asserted on the full
  // 1000-point trajectory, which is as strong and much faster than waiting
  // out the O(n log n) voter convergence.
  StopRule rule;
  rule.max_rounds = 1000;
  Trajectory trajectory;
  RunRecord record;
  record.result =
      engine.run(init_half(n, Opinion::kOne), rule, seed, &trajectory);
  record.points.assign(trajectory.points().begin(),
                       trajectory.points().end());
  return record;
}

void expect_identical(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.result.reason, b.result.reason);
  EXPECT_EQ(a.result.rounds(), b.result.rounds());
  EXPECT_EQ(a.result.final_config, b.result.final_config);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].round, b.points[i].round);
    EXPECT_EQ(a.points[i].ones, b.points[i].ones);
  }
}

TEST(ShardedEngine, BitIdenticalAcrossThreadCounts) {
  // The headline guarantee: randomness is keyed by (round, block), so the
  // worker count is pure scheduling. n spans multiple blocks on purpose.
  const std::uint64_t n = 3 * ShardedAgentEngine::kBlockAgents + 77;
  const RunRecord one = run_voter({.threads = 1}, n, 42);
  for (const unsigned threads : {2u, 8u}) {
    const RunRecord many = run_voter({.threads = threads}, n, 42);
    expect_identical(one, many);
  }
}

TEST(ShardedEngine, BitIdenticalAcrossShardCounts) {
  const std::uint64_t n = 3 * ShardedAgentEngine::kBlockAgents + 77;
  const RunRecord baseline = run_voter({.threads = 2, .shards = 1}, n, 43);
  for (const std::uint32_t shards : {2u, 3u, 8u}) {
    const RunRecord other =
        run_voter({.threads = 2, .shards = shards}, n, 43);
    expect_identical(baseline, other);
  }
}

TEST(ShardedEngine, SeedFullyDeterminesRunAndSeedsDiffer) {
  const std::uint64_t n = ShardedAgentEngine::kBlockAgents + 5;
  const RunRecord a = run_voter({.threads = 4}, n, 7);
  const RunRecord b = run_voter({.threads = 4}, n, 7);
  expect_identical(a, b);
  const RunRecord c = run_voter({.threads = 4}, n, 8);
  bool same = a.points.size() == c.points.size();
  for (std::size_t i = 0; same && i < a.points.size(); ++i) {
    same = a.points[i].round == c.points[i].round &&
           a.points[i].ones == c.points[i].ones;
  }
  EXPECT_FALSE(same) << "different master seeds must diverge";
}

TEST(ShardedEngine, PopulationLayoutMatchesConfiguration) {
  const VoterDynamics voter;
  const ShardedAgentEngine engine(voter);
  const Configuration config{10, 4, Opinion::kOne};
  const auto population = engine.make_population(config);
  EXPECT_EQ(population.size(), 10u);
  EXPECT_EQ(population.count_ones(), 4u);
  EXPECT_EQ(population.opinion(0), Opinion::kOne);  // Source first.
  EXPECT_EQ(population.config(), config);

  // Correct opinion zero: the source displays 0, ones sit after it.
  const Configuration zero_config{10, 4, Opinion::kZero};
  const auto zero_population = engine.make_population(zero_config);
  EXPECT_EQ(zero_population.opinion(0), Opinion::kZero);
  EXPECT_EQ(zero_population.count_ones(), 4u);
  EXPECT_EQ(zero_population.config(), zero_config);
}

TEST(ShardedEngine, SourceIsPinnedAcrossSteps) {
  const VoterDynamics voter;
  const ShardedAgentEngine engine(voter);
  const SeedSequence seeds(1);
  auto population =
      engine.make_population(Configuration{2 * 4096, 1, Opinion::kOne});
  for (std::uint64_t t = 0; t < 30; ++t) {
    engine.step(population, t, seeds);
    EXPECT_EQ(population.opinion(0), Opinion::kOne);
  }
}

TEST(ShardedEngine, ConsensusAbsorbingForMinority) {
  const MinorityDynamics minority(3);
  const ShardedAgentEngine engine(minority);
  const SeedSequence seeds(2);
  auto population =
      engine.make_population(correct_consensus(5000, Opinion::kOne));
  for (std::uint64_t t = 0; t < 10; ++t) {
    engine.step(population, t, seeds);
    EXPECT_EQ(population.count_ones(), 5000u);
  }
}

TEST(ShardedEngine, CountOnesStaysConsistentWithPlane) {
  // The incrementally maintained ones-count must match a recount from the
  // packed plane after every round (partial last word included).
  const MinorityDynamics minority(3);
  const ShardedAgentEngine engine(minority);
  const SeedSequence seeds(3);
  const std::uint64_t n = 4096 + 100;
  auto population =
      engine.make_population(init_fraction_ones(n, Opinion::kOne, 0.4));
  for (std::uint64_t t = 0; t < 20; ++t) {
    engine.step(population, t, seeds);
    std::uint64_t recount = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      recount += to_int(population.opinion(i));
    }
    EXPECT_EQ(population.count_ones(), recount) << "round " << t;
  }
}

TEST(ShardedEngine, OneStepMatchesExactChainRow) {
  // One-step distribution against the exact dense-chain row, like the
  // aggregate and agent engines in engine_cross_validation_test.cc.
  const ThreeMajorityDynamics three;
  const std::uint64_t n = 24;
  const std::uint64_t x0 = 10;
  const DenseParallelChain chain(three, n, Opinion::kZero);
  const std::vector<double> expected = chain.transition_row(x0);

  const ShardedAgentEngine engine(three, {.threads = 2});
  const int kTrials = 30000;
  std::vector<std::uint64_t> counts(chain.state_count(), 0);
  for (int i = 0; i < kTrials; ++i) {
    auto population =
        engine.make_population(Configuration{n, x0, Opinion::kZero});
    engine.step(population, 0, SeedSequence(1000 + i));
    ++counts[population.count_ones() - chain.min_state()];
  }
  int dof = 0;
  const double stat = chi_square_statistic(counts, expected, kTrials, &dof);
  EXPECT_GT(chi_square_p_value(stat, dof), 1e-4)
      << "stat=" << stat << " dof=" << dof;
}

TEST(ShardedEngine, AdapterUnwrapsToFastPath) {
  const VoterDynamics voter;
  const MemorylessAsStateful adapter(voter);
  const ShardedAgentEngine direct(voter);
  const ShardedAgentEngine via_adapter(adapter);
  EXPECT_TRUE(direct.memoryless_fast_path());
  EXPECT_TRUE(via_adapter.memoryless_fast_path());
  // Identical seeds must give identical runs through either construction.
  StopRule rule;
  rule.max_rounds = 100000;
  const Configuration init = init_all_wrong(500, Opinion::kOne);
  const RunResult a = direct.run(init, rule, 99);
  const RunResult b = via_adapter.run(init, rule, 99);
  EXPECT_EQ(a.rounds(), b.rounds());
  EXPECT_EQ(a.final_config, b.final_config);
}

TEST(ShardedEngine, StatefulUndecidedConverges) {
  // The generic (virtual-update) path: USD from a 70% correct start reaches
  // the correct display consensus, matching the agent engine's behavior.
  const UndecidedStateDynamics usd;
  const ShardedAgentEngine engine(usd, {.threads = 2});
  EXPECT_FALSE(engine.memoryless_fast_path());
  StopRule rule;
  rule.max_rounds = 100000;
  const RunResult result =
      engine.run(init_fraction_ones(40, Opinion::kOne, 0.7), rule, 6);
  EXPECT_TRUE(result.converged()) << to_string(result.reason);
}

TEST(ShardedEngine, StatefulBitIdenticalAcrossThreads) {
  const UndecidedStateDynamics usd;
  StopRule rule;
  rule.max_rounds = 2000;
  const Configuration init =
      init_fraction_ones(2 * 4096 + 9, Opinion::kOne, 0.6);
  RunResult reference;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const ShardedAgentEngine engine(usd, {.threads = threads});
    const RunResult result = engine.run(init, rule, 17);
    if (threads == 1u) {
      reference = result;
    } else {
      EXPECT_EQ(result.rounds(), reference.rounds());
      EXPECT_EQ(result.final_config, reference.final_config);
    }
  }
}

TEST(ShardedEngine, RunsFromAdversarialInternalStates) {
  // Self-stabilization quantifies over internal states: plant every agent
  // "undecided", re-pin the source, and demand convergence anyway.
  const UndecidedStateDynamics usd;
  const ShardedAgentEngine engine(usd);
  auto population = engine.make_population(
      init_fraction_ones(30, Opinion::kOne, 0.7));
  for (std::uint64_t i = 0; i < population.size(); ++i) {
    population.set_state(i, UndecidedStateDynamics::kUndecided);
  }
  population.set_opinion(0, Opinion::kOne);
  population.set_state(0, UndecidedStateDynamics::kCommitted);
  StopRule rule;
  rule.max_rounds = 100000;
  const RunResult result = engine.run_population(population, rule, 10);
  EXPECT_TRUE(result.converged()) << to_string(result.reason);
}

TEST(ShardedEngine, WithoutReplacementLargeSampleSize) {
  // l = 100 > 64: impossible under the old rejection sampler's cap, routine
  // with Floyd's algorithm (the MinoritySqrt-class regime).
  const MinorityDynamics minority(100);
  const ShardedAgentEngine engine(
      minority,
      {.sampling = ShardedAgentEngine::Sampling::kWithoutReplacement});
  StopRule rule;
  rule.max_rounds = 300;
  const RunResult result = engine.run(init_half(400, Opinion::kOne), rule, 5);
  EXPECT_NE(result.reason, StopReason::kIntervalExit);
  EXPECT_TRUE(result.final_config.valid());
}

TEST(ShardedEngine, WithoutReplacementBitIdenticalAcrossThreads) {
  const MinorityDynamics minority(7);
  StopRule rule;
  rule.max_rounds = 500;
  const Configuration init =
      init_half(ShardedAgentEngine::kBlockAgents + 321, Opinion::kOne);
  const ShardedAgentEngine serial(
      minority,
      {.threads = 1,
       .sampling = ShardedAgentEngine::Sampling::kWithoutReplacement});
  const ShardedAgentEngine threaded(
      minority,
      {.threads = 8,
       .shards = 5,
       .sampling = ShardedAgentEngine::Sampling::kWithoutReplacement});
  const RunResult a = serial.run(init, rule, 23);
  const RunResult b = threaded.run(init, rule, 23);
  EXPECT_EQ(a.rounds(), b.rounds());
  EXPECT_EQ(a.final_config, b.final_config);
}

TEST(ShardedEngine, AgreesWithAgentEngineInLaw) {
  // Convergence-time samples from the sharded and the reference agent
  // engine are drawn from the same distribution (KS).
  const VoterDynamics voter;
  const std::uint64_t n = 30;
  StopRule rule;
  rule.max_rounds = 1000000;

  const ShardedAgentEngine sharded(voter, {.threads = 2});
  const MemorylessAsStateful adapter(voter);
  const AgentParallelEngine agent(adapter);

  const int kTrials = 400;
  std::vector<double> sharded_times, agent_times;
  for (int i = 0; i < kTrials; ++i) {
    const RunResult a = sharded.run(Configuration{n, 10, Opinion::kOne}, rule,
                                    40000 + static_cast<std::uint64_t>(i));
    Rng rng(50000 + i);
    const RunResult b =
        agent.run(Configuration{n, 10, Opinion::kOne}, rule, rng);
    ASSERT_TRUE(a.converged());
    ASSERT_TRUE(b.converged());
    sharded_times.push_back(static_cast<double>(a.rounds()));
    agent_times.push_back(static_cast<double>(b.rounds()));
  }
  const double d = ks_statistic(sharded_times, agent_times);
  EXPECT_GT(ks_p_value(d, sharded_times.size(), agent_times.size()), 1e-3)
      << "KS=" << d;
}

// --- The legacy loop, pinned ----------------------------------------------

// The per-agent legacy loop is the oracle every kernel path is KS-tested
// against, so its draw order is pinned here, not only its thread identity
// and its law: Voter l = 2 (a fractional g-table) and Undecided (a stateful
// protocol), fault-free and with every fault channel, on the complete graph
// and a ring. n spans four blocks and ends in a partial word. Each digest
// folds the run payload and every trajectory point.
struct LegacyPin {
  bool stateful;
  bool faulty;
  bool ring;
  std::uint64_t digest;
};

constexpr LegacyPin kLegacyPins[] = {
    {false, false, false, 10932156994928206040ull},
    {false, false, true, 1278303619604497496ull},
    {false, true, false, 1847115638665691461ull},
    {false, true, true, 4241624107121245179ull},
    {true, false, false, 16685115946489954906ull},
    {true, false, true, 6922532063756694327ull},
    {true, true, false, 10223661216700297065ull},
    {true, true, true, 11177362653854729147ull},
};

std::uint64_t run_digest(const RunResult& result,
                         const Trajectory& trajectory) {
  std::uint64_t hash = snapshot::payload_digest(result);
  for (const Trajectory::Point& point : trajectory.points()) {
    for (const std::uint64_t v : {point.round, point.ones}) {
      hash = (hash ^ v) * 0x100000001B3ull;
    }
  }
  return hash;
}

TEST(ShardedLegacyGolden, DigestsMatchPinnedValues) {
  constexpr std::uint64_t n = 3 * ShardedAgentEngine::kBlockAgents + 37;
  const VoterDynamics voter(2);
  const UndecidedStateDynamics usd;
  const Topology ring = Topology::ring(n);
  EnvironmentModel faults;
  faults.observation_noise = 0.02;
  faults.spontaneous_rate = 0.01;
  faults.churn_rate = 0.002;
  faults.extra_zealots = 40;
  faults.source_flip_rounds = {12};
  StopRule rule;
  rule.max_rounds = 30;
  const Configuration init = init_fraction_ones(n, Opinion::kOne, 0.6);
  for (const LegacyPin& pin : kLegacyPins) {
    for (const unsigned threads : {1u, 3u}) {
      const ShardedAgentEngine::Options options{
          .threads = threads,
          .kernel = kernel::Backend::kLegacy,
          .topology = pin.ring ? &ring : nullptr};
      const ShardedAgentEngine engine =
          pin.stateful ? ShardedAgentEngine(usd, options)
                       : ShardedAgentEngine(voter, options);
      Trajectory trajectory;
      const RunResult result =
          pin.faulty ? engine.run(init, rule, faults, 2024, &trajectory)
                     : engine.run(init, rule, 2024, &trajectory);
      EXPECT_EQ(run_digest(result, trajectory), pin.digest)
          << (pin.stateful ? "undecided" : "voter(l=2)")
          << (pin.faulty ? " faulty" : " fault-free")
          << (pin.ring ? " ring" : " complete") << " threads=" << threads;
    }
  }
}

TEST(WorkerPool, NestedParallelForRunsInline) {
  // A pool worker that fans out again must not deadlock on the pool it
  // occupies; the nested loop runs inline.
  std::vector<int> totals(4, 0);
  parallel_for(
      4,
      [&](int outer) {
        int sum = 0;
        parallel_for(8, [&](int inner) { sum += inner; }, 4);
        totals[static_cast<std::size_t>(outer)] = sum;
      },
      4);
  for (const int total : totals) EXPECT_EQ(total, 28);
}

TEST(WorkerPool, OversubscribedThreadCountStillCoversAllItems) {
  std::vector<std::atomic<int>> hits(64);
  parallel_for(64, [&](int i) { hits[static_cast<std::size_t>(i)]++; }, 16);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

}  // namespace
}  // namespace bitspread
