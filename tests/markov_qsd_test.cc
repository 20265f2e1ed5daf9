// Quasi-stationary distributions and exact one-round variance.
#include <gtest/gtest.h>

#include <cmath>

#include "core/configuration.h"
#include "core/problem.h"
#include "markov/absorption.h"
#include "markov/dense_chain.h"
#include "markov/quasi_stationary.h"
#include "protocols/minority.h"
#include "protocols/voter.h"

namespace bitspread {
namespace {

TEST(ExactVariance, VoterMatchesBinomialVariance) {
  // Voter: every non-source agent flips to 1 w.p. p, so
  // Var = (n-1) p (1-p).
  const VoterDynamics voter;
  const Configuration c{100, 40, Opinion::kOne};
  EXPECT_NEAR(exact_one_round_variance(voter, c), 99.0 * 0.4 * 0.6, 1e-9);
}

TEST(ExactVariance, MatchesDenseChainSecondMoment) {
  const MinorityDynamics minority(3);
  const std::uint64_t n = 30;
  const DenseParallelChain chain(minority, n, Opinion::kOne);
  for (std::uint64_t x = chain.min_state(); x <= chain.max_state(); ++x) {
    const auto row = chain.transition_row(x);
    double mean = 0.0, second = 0.0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      const double v = static_cast<double>(chain.min_state() + i);
      mean += row[i] * v;
      second += row[i] * v * v;
    }
    const Configuration c{n, x, Opinion::kOne};
    EXPECT_NEAR(second - mean * mean, exact_one_round_variance(minority, c),
                1e-6)
        << "x=" << x;
  }
}

TEST(ExactVariance, ZeroAtAbsorbingConsensus) {
  const MinorityDynamics minority(5);
  EXPECT_DOUBLE_EQ(
      exact_one_round_variance(minority, correct_consensus(50, Opinion::kOne)),
      0.0);
}

TEST(QuasiStationary, TwoStateChainClosedForm) {
  // States {0, 1}; 1 absorbing; from 0: stay 0.9, absorb 0.1.
  // QSD = point mass at 0, lambda = 0.9, escape = 10.
  const auto qsd = quasi_stationary_distribution(
      2,
      [](std::size_t s) {
        return s == 0 ? std::vector<double>{0.9, 0.1}
                      : std::vector<double>{0.0, 1.0};
      },
      {false, true});
  EXPECT_NEAR(qsd.lambda, 0.9, 1e-10);
  EXPECT_NEAR(qsd.distribution[0], 1.0, 1e-10);
  EXPECT_DOUBLE_EQ(qsd.distribution[1], 0.0);
  EXPECT_NEAR(qsd.expected_escape_rounds(), 10.0, 1e-8);
}

TEST(QuasiStationary, EscapeTimeMatchesExactAbsorptionForDeepTrap) {
  // For a strongly metastable chain the expected absorption time from the
  // trap equals 1/(1-lambda) up to lower-order terms.
  const MinorityDynamics minority(3);
  const std::uint64_t n = 24;
  const DenseParallelChain chain(minority, n, Opinion::kOne);
  const QuasiStationary qsd = quasi_stationary_distribution(chain);
  const auto times = expected_convergence_rounds(chain);
  const double exact_mid = times[n / 2 - chain.min_state()];
  EXPECT_NEAR(qsd.expected_escape_rounds() / exact_mid, 1.0, 0.01);
}

TEST(QuasiStationary, MinorityTrapCentersAtHalf) {
  const MinorityDynamics minority(3);
  const std::uint64_t n = 32;
  const DenseParallelChain chain(minority, n, Opinion::kOne);
  const QuasiStationary qsd = quasi_stationary_distribution(chain);
  const double mean_state =
      qsd.mean() + static_cast<double>(chain.min_state());
  EXPECT_NEAR(mean_state / static_cast<double>(n), 0.5, 0.05);
  EXPECT_NEAR(qsd.stddev() / std::sqrt(static_cast<double>(n)), 0.5, 0.1);
  // Distribution is a proper distribution over transient states.
  double total = 0.0;
  for (const double p : qsd.distribution) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

}  // namespace
}  // namespace bitspread
