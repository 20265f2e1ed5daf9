// The multi-opinion generalization (paper footnote 2): configurations,
// histogram machinery, protocols, engines, and the binary reduction.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "engine/aggregate.h"
#include "multi/configuration.h"
#include "multi/engine.h"
#include "multi/protocol.h"
#include "multi/protocols.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "random/multinomial.h"
#include "stats/ks.h"
#include "stats/summary.h"

namespace bitspread {
namespace {

TEST(Multinomial, CountsSumToTrials) {
  Rng rng(1);
  const std::vector<double> probs{0.2, 0.3, 0.5};
  for (int i = 0; i < 200; ++i) {
    const auto counts = multinomial(rng, 1000, probs);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}),
              1000u);
  }
}

TEST(Multinomial, MeansMatch) {
  Rng rng(2);
  const std::vector<double> probs{0.1, 0.6, 0.3};
  std::vector<double> sums(3, 0.0);
  const int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    const auto counts = multinomial(rng, 100, probs);
    for (int j = 0; j < 3; ++j) sums[j] += static_cast<double>(counts[j]);
  }
  for (int j = 0; j < 3; ++j) {
    EXPECT_NEAR(sums[j] / kTrials, 100.0 * probs[j], 0.5);
  }
}

TEST(Multinomial, ZeroProbabilityCategoryNeverHit) {
  Rng rng(3);
  const std::vector<double> probs{0.5, 0.0, 0.5};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(multinomial(rng, 50, probs)[1], 0u);
  }
}

TEST(MultiConfiguration, ValidityAndAccessors) {
  MultiConfiguration config;
  config.counts = {3, 5, 2};
  config.correct = 1;
  EXPECT_TRUE(config.valid());
  EXPECT_EQ(config.n(), 10u);
  EXPECT_EQ(config.opinion_count(), 3u);
  EXPECT_EQ(config.non_source_count(1), 4u);
  EXPECT_EQ(config.non_source_count(0), 3u);
  EXPECT_FALSE(config.is_consensus());
  EXPECT_DOUBLE_EQ(config.fraction(1), 0.5);

  config.counts = {0, 10, 0};
  EXPECT_TRUE(config.is_correct_consensus());
  config.correct = 0;
  EXPECT_FALSE(config.valid());  // Source must hold `correct`.
}

TEST(MultiConfiguration, BinaryEmbedding) {
  const MultiConfiguration config = embed_binary(10, 4, 1, 3);
  EXPECT_EQ(config.counts[0], 6u);
  EXPECT_EQ(config.counts[1], 4u);
  EXPECT_EQ(config.counts[2], 0u);
  EXPECT_TRUE(config.valid());
}

TEST(HistogramEnumeration, CountsAndTotals) {
  int visits = 0;
  for_each_histogram(3, 4, [&](std::span<const std::uint32_t> histogram) {
    ++visits;
    std::uint32_t total = 0;
    for (const std::uint32_t k : histogram) total += k;
    EXPECT_EQ(total, 4u);
  });
  EXPECT_EQ(visits, 15);  // C(4+2, 2) = 15.
}

TEST(HistogramProbability, MatchesBinomialForTwoOpinions) {
  const std::vector<double> fractions{0.7, 0.3};
  const std::vector<std::uint32_t> histogram{2, 3};
  // C(5,3) 0.3^3 0.7^2 = 10 * 0.027 * 0.49.
  EXPECT_NEAR(histogram_probability(histogram, fractions),
              10.0 * 0.027 * 0.49, 1e-12);
}

TEST(HistogramProbability, SumsToOneOverAllHistograms) {
  const std::vector<double> fractions{0.2, 0.5, 0.3};
  double total = 0.0;
  for_each_histogram(3, 5, [&](std::span<const std::uint32_t> histogram) {
    total += histogram_probability(histogram, fractions);
  });
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(MultiVoter, DistributionIsSampleFrequencies) {
  const MultiVoter voter(3, 4);
  const std::vector<std::uint32_t> histogram{2, 1, 1};
  std::vector<double> out(3);
  voter.adoption_distribution(0, histogram, 4, 100, out);
  EXPECT_DOUBLE_EQ(out[0], 0.5);
  EXPECT_DOUBLE_EQ(out[1], 0.25);
  EXPECT_DOUBLE_EQ(out[2], 0.25);
  EXPECT_TRUE(voter.respects_no_spontaneous_adoption(100));
}

TEST(MultiMinority, AdoptsRarestPresentOpinion) {
  const MultiMinority minority(3, 6);
  std::vector<double> out(3);
  // 3/2/1: opinion 2 is rarest.
  minority.adoption_distribution(0, std::vector<std::uint32_t>{3, 2, 1}, 6,
                                 100, out);
  EXPECT_DOUBLE_EQ(out[2], 1.0);
  // Tie between 1 and 2 at count 1.
  minority.adoption_distribution(0, std::vector<std::uint32_t>{4, 1, 1}, 6,
                                 100, out);
  EXPECT_DOUBLE_EQ(out[1], 0.5);
  EXPECT_DOUBLE_EQ(out[2], 0.5);
  // Unanimity is adopted.
  minority.adoption_distribution(1, std::vector<std::uint32_t>{0, 6, 0}, 6,
                                 100, out);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  EXPECT_TRUE(minority.respects_no_spontaneous_adoption(100));
}

TEST(MultiAggregate, AdoptionDistributionMatchesBinaryClosedForm) {
  // With only opinions {0,1} populated, multi-minority's exact q must equal
  // the binary MinorityDynamics aggregate adoption (footnote 2's reduction).
  const std::uint32_t ell = 5;
  const MultiMinority multi(3, ell);
  const MinorityDynamics binary(ell);
  const MultiAggregateEngine engine(multi);
  for (const double p : {0.1, 0.35, 0.5, 0.8}) {
    const std::uint64_t n = 1000;
    const auto ones = static_cast<std::uint64_t>(p * n);
    const MultiConfiguration config = embed_binary(n, ones, 1, 3);
    const auto q = engine.adoption_distribution(0, config);
    EXPECT_NEAR(q[1],
                binary.aggregate_adoption(Opinion::kZero,
                                          config.fraction(1), n),
                1e-9)
        << "p=" << p;
    EXPECT_NEAR(q[2], 0.0, 1e-15);  // Never adopts the unseen opinion.
  }
}

TEST(MultiAggregate, StepPreservesPopulationAndSources) {
  const MultiMinority minority(3, 3);
  const MultiAggregateEngine engine(minority);
  Rng rng(4);
  MultiConfiguration config;
  config.counts = {40, 35, 25};
  config.correct = 2;
  config.sources = 5;
  for (int t = 0; t < 50; ++t) {
    config = engine.step(config, rng);
    ASSERT_TRUE(config.valid());
    EXPECT_EQ(config.n(), 100u);
    EXPECT_GE(config.counts[2], 5u);
  }
}

TEST(MultiAggregate, BinaryEmbeddingMatchesBinaryEngineInLaw) {
  // Convergence-time laws of the embedded binary instance under the multi
  // engine vs the plain binary engine (KS test): the reduction is exact.
  // Voter converges from any start, so no replicate stalls at an interior
  // fixed point (minority with constant l would).
  const std::uint32_t ell = 2;
  const std::uint64_t n = 60;
  const MultiVoter multi(3, ell);
  const VoterDynamics binary(ell);
  const MultiAggregateEngine multi_engine(multi);
  const AggregateParallelEngine binary_engine(binary);

  const int kTrials = 300;
  std::vector<double> multi_times, binary_times;
  StopRule multi_rule;
  multi_rule.max_rounds = 1000000;
  StopRule binary_rule;
  binary_rule.max_rounds = 1000000;
  for (int i = 0; i < kTrials; ++i) {
    Rng rng_a(5000 + i), rng_b(6000 + i);
    const MultiRunResult a =
        multi_engine.run(embed_binary(n, 20, 1, 3), multi_rule, rng_a);
    const RunResult b = binary_engine.run(Configuration{n, 20, Opinion::kOne},
                                          binary_rule, rng_b);
    ASSERT_TRUE(a.converged());
    ASSERT_TRUE(b.converged());
    multi_times.push_back(static_cast<double>(a.rounds));
    binary_times.push_back(static_cast<double>(b.rounds()));
  }
  const double d = ks_statistic(multi_times, binary_times);
  EXPECT_GT(ks_p_value(d, multi_times.size(), binary_times.size()), 1e-3)
      << "KS=" << d;
}

TEST(MultiAgent, PopulationRoundTripsConfiguration) {
  const MultiVoter voter(4);
  const MultiAgentEngine engine(voter);
  MultiConfiguration config;
  config.counts = {10, 20, 5, 15};
  config.correct = 3;
  config.sources = 2;
  const auto population = engine.make_population(config);
  EXPECT_EQ(population.opinions.size(), 50u);
  EXPECT_EQ(population.config().counts, config.counts);
  EXPECT_EQ(population.opinions[0], 3u);
}

TEST(MultiAgent, AgreesWithAggregateOnOneStepMeans) {
  const MultiMinority minority(3, 3);
  const MultiAggregateEngine aggregate(minority);
  const MultiAgentEngine agent(minority);
  MultiConfiguration config;
  config.counts = {50, 30, 20};
  config.correct = 0;
  config.sources = 1;

  const int kTrials = 800;
  std::vector<double> agg_counts(3, 0.0), agent_counts(3, 0.0);
  Rng rng_a(7), rng_b(8);
  for (int i = 0; i < kTrials; ++i) {
    const MultiConfiguration a = aggregate.step(config, rng_a);
    auto population = agent.make_population(config);
    agent.step(population, rng_b);
    const MultiConfiguration b = population.config();
    for (int j = 0; j < 3; ++j) {
      agg_counts[j] += static_cast<double>(a.counts[j]) / kTrials;
      agent_counts[j] += static_cast<double>(b.counts[j]) / kTrials;
    }
  }
  for (int j = 0; j < 3; ++j) {
    EXPECT_NEAR(agg_counts[j], agent_counts[j], 1.0) << "opinion " << j;
  }
}

TEST(MultiAgent, VoterConvergesWithThreeOpinions) {
  const MultiVoter voter(3);
  const MultiAgentEngine engine(voter);
  Rng rng(9);
  MultiConfiguration config;
  config.counts = {10, 10, 10};
  config.correct = 2;
  config.sources = 1;
  StopRule rule;
  rule.max_rounds = 1000000;
  Trajectory trajectory;
  const MultiRunResult result = engine.run(config, rule, rng, &trajectory);
  // Voter with a source eventually reaches the correct consensus (dual
  // argument extends to any opinion set); wrong consensus cannot absorb
  // because the source keeps displaying `correct`.
  EXPECT_TRUE(result.converged());
  // The trajectory records the correct opinion's count, not a binary ones.
  ASSERT_FALSE(trajectory.empty());
  EXPECT_EQ(trajectory.points().front().ones, 10u);
  EXPECT_EQ(trajectory.back().round, result.rounds);
  EXPECT_EQ(trajectory.back().ones, result.final_config.counts[2]);
}

TEST(MultiAggregate, ConsensusIsAbsorbingForMinority) {
  const MultiMinority minority(3, 3);
  const MultiAggregateEngine engine(minority);
  Rng rng(10);
  MultiConfiguration config;
  config.counts = {0, 100, 0};
  config.correct = 1;
  for (int t = 0; t < 30; ++t) {
    config = engine.step(config, rng);
    EXPECT_TRUE(config.is_correct_consensus());
  }
}

}  // namespace
}  // namespace bitspread
