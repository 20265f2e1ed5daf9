// Edge cases and API-surface details across modules: degenerate inputs,
// formatting, stop-rule combinations, extreme numerical regimes.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/bias.h"
#include "analysis/bounds.h"
#include "analysis/roots.h"
#include "analysis/theorem6.h"
#include "core/configuration.h"
#include "core/protocol.h"
#include "engine/conflicting.h"
#include "engine/stopping.h"
#include "engine/trajectory.h"
#include "multi/configuration.h"
#include "protocols/majority.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "random/binomial.h"
#include "sim/table.h"

namespace bitspread {
namespace {

TEST(Describe, ConfigurationStringsContainFields) {
  const Configuration c{10, 4, Opinion::kOne, 2};
  const std::string text = c.describe();
  EXPECT_NE(text.find("n=10"), std::string::npos);
  EXPECT_NE(text.find("ones=4"), std::string::npos);
  EXPECT_NE(text.find("sources=2"), std::string::npos);

  MultiConfiguration mc;
  mc.counts = {1, 2, 3};
  EXPECT_NE(mc.describe().find("[1,2,3]"), std::string::npos);

  const ConflictingConfiguration cc{50, 20, 3, 4};
  EXPECT_NE(cc.describe().find("3 ones"), std::string::npos);
}

TEST(StopRules, BothIntervalBoundsActive) {
  StopRule rule;
  rule.interval_lo = 10;
  rule.interval_hi = 20;
  EXPECT_EQ(evaluate_stop(rule, Configuration{100, 5, Opinion::kOne}),
            StopReason::kIntervalExit);
  EXPECT_EQ(evaluate_stop(rule, Configuration{100, 25, Opinion::kOne}),
            StopReason::kIntervalExit);
  EXPECT_EQ(evaluate_stop(rule, Configuration{100, 15, Opinion::kOne}),
            std::nullopt);
}

TEST(StopRules, WrongConsensusOnlyStopsWhenEnabled) {
  const Configuration wrong{100, 0, Opinion::kOne, 0};  // Sourceless all-0.
  StopRule rule;
  EXPECT_EQ(evaluate_stop(rule, wrong), StopReason::kWrongConsensus);
  rule.stop_on_any_consensus = false;
  EXPECT_EQ(evaluate_stop(rule, wrong), std::nullopt);
}

TEST(StopRules, CorrectConsensusAlwaysStops) {
  StopRule rule;
  rule.stop_on_any_consensus = false;
  EXPECT_EQ(evaluate_stop(rule, correct_consensus(10, Opinion::kZero)),
            StopReason::kCorrectConsensus);
}

TEST(StopReasonNames, AllCovered) {
  EXPECT_EQ(to_string(StopReason::kCorrectConsensus), "correct-consensus");
  EXPECT_EQ(to_string(StopReason::kWrongConsensus), "wrong-consensus");
  EXPECT_EQ(to_string(StopReason::kRoundLimit), "round-limit");
  EXPECT_EQ(to_string(StopReason::kIntervalExit), "interval-exit");
}

TEST(Trajectory, MaxJumpAndStrideZero) {
  Trajectory traj(0);  // Stride 0 behaves as 1.
  traj.record(0, 10);
  traj.record(1, 25);
  traj.record(2, 20);
  EXPECT_EQ(traj.size(), 3u);
}

TEST(Trajectory, ForceRecordOverwritesSameRound) {
  Trajectory traj;
  traj.record(0, 5);
  traj.force_record(0, 7);
  ASSERT_EQ(traj.size(), 1u);
  EXPECT_EQ(traj.back().ones, 7u);
}

TEST(Eq4Sum, ExtremeFractionsAndHugeSampleSizes) {
  const MinorityDynamics minority(SampleSizePolicy::sqrt_n_log_n());
  const std::uint64_t n = 1 << 22;  // l ~ 8000.
  for (const double p : {1e-12, 1e-6, 1.0 - 1e-12}) {
    const double q = eq4_adoption_sum(minority, Opinion::kZero, p, n);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
    EXPECT_TRUE(std::isfinite(q));
  }
  // At p -> 0 the sample is almost surely all-zeros: adoption ~ l*p.
  const double tiny = eq4_adoption_sum(minority, Opinion::kZero, 1e-12, n);
  EXPECT_LT(tiny, 1e-6);
}

TEST(Binomial, SingleTrialIsBernoulli) {
  Rng rng(1);
  int ones = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t x = binomial(rng, 1, 0.3);
    ASSERT_LE(x, 1u);
    ones += static_cast<int>(x);
  }
  EXPECT_NEAR(ones / static_cast<double>(kDraws), 0.3, 0.02);
}

TEST(Binomial, HalfIsSymmetricInDistribution) {
  Rng rng(2);
  const std::uint64_t n = 31;
  double skew_acc = 0.0;
  const int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    const double centered =
        static_cast<double>(binomial(rng, n, 0.5)) - 15.5;
    skew_acc += centered * centered * centered;
  }
  // Third central moment of Bin(n, 1/2) is 0.
  EXPECT_NEAR(skew_acc / kDraws, 0.0, 2.0);
}

TEST(SampleSizePolicy, EqualityAndDescriptions) {
  EXPECT_EQ(SampleSizePolicy::constant(3), SampleSizePolicy::constant(3));
  EXPECT_NE(SampleSizePolicy::constant(3), SampleSizePolicy::constant(4));
  EXPECT_NE(SampleSizePolicy::constant(3), SampleSizePolicy::log_n());
  EXPECT_NE(SampleSizePolicy::sqrt_n_log_n().describe().find("sqrt"),
            std::string::npos);
  EXPECT_NE(SampleSizePolicy::power(0.25, 2.0).describe().find("n^0.25"),
            std::string::npos);
}

TEST(Roots, SubintervalSearchExcludesOutsideRoots) {
  // Roots at 0.2 and 0.8; search [0.3, 0.6] finds none, [0.1, 0.5] one.
  const Polynomial p = Polynomial({-0.2, 1.0}) * Polynomial({-0.8, 1.0});
  EXPECT_TRUE(real_roots_in(p, 0.3, 0.6).empty());
  const auto roots = real_roots_in(p, 0.1, 0.5);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_NEAR(roots[0], 0.2, 1e-9);
}

TEST(Bias, NonObliviousMajorityHandComputed) {
  // Majority l=2 tie->own: g0 = {0, 0, 1}, g1 = {0, 1, 1}.
  // P0 = p^2, P1 = 2p(1-p) + p^2 = 2p - p^2.
  // F = -p + p(2p - p^2) + (1-p)p^2 = -p + 3p^2 - 2p^3.
  const MajorityDynamics majority(2, MajorityDynamics::TieBreak::kKeepOwn);
  const BiasFunction bias(majority, 1000);
  for (int i = 0; i <= 20; ++i) {
    const double p = i / 20.0;
    EXPECT_NEAR(bias(p), -p + 3 * p * p - 2 * p * p * p, 1e-12);
  }
}

TEST(Bounds, Proposition4YClampsInput) {
  EXPECT_DOUBLE_EQ(proposition4_y(-0.5, 3), proposition4_y(0.0, 3));
  EXPECT_DOUBLE_EQ(proposition4_y(1.5, 3), proposition4_y(1.0, 3));
}

TEST(Bounds, AzumaCapsAtOne) {
  EXPECT_DOUBLE_EQ(azuma_tail(10, 1.0, 0.0, 0.5), 1.0);
}

TEST(Theorem6Report, DescribeMentionsKeyNumbers) {
  const MinorityDynamics minority(3);
  const CaseAnalysis analysis = classify_bias(minority, 4096);
  const Theorem6Report report = check_theorem6(minority, 4096, analysis, 0.5);
  const std::string text = report.describe();
  EXPECT_NE(text.find("drift_ok=yes"), std::string::npos);
  EXPECT_NE(text.find("floor="), std::string::npos);
}

TEST(Table, NegativeNumbersAndPrecision) {
  EXPECT_EQ(Table::fmt(-2.5, 1), "-2.5");
  EXPECT_EQ(Table::fmt(0.000123, 6), "0.000123");
}

TEST(Protocol, VoterSampleSizeIrrelevanceInAggregate) {
  // The paper: Voter may be assumed l = 1 w.l.o.g. — the aggregate adoption
  // is p for every l.
  for (const std::uint32_t ell : {1u, 2u, 9u, 30u}) {
    const VoterDynamics voter(ell);
    for (const double p : {0.0, 0.25, 0.8, 1.0}) {
      EXPECT_DOUBLE_EQ(voter.aggregate_adoption(Opinion::kZero, p, 100), p);
      EXPECT_NEAR(eq4_adoption_sum(voter, Opinion::kZero, p, 100), p, 1e-12);
    }
  }
}

}  // namespace
}  // namespace bitspread
