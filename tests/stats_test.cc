#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "random/rng.h"
#include "stats/bootstrap.h"
#include "stats/ks.h"
#include "stats/quantiles.h"
#include "stats/regression.h"
#include "stats/summary.h"

namespace bitspread {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stderr_mean(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> values{1.0, 2.0, 4.0, 8.0, 16.0};
  const RunningStats stats = summarize(values);
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_DOUBLE_EQ(stats.mean(), 6.2);
  // Sample variance: sum((x - 6.2)^2) / 4 = (27.04+17.64+4.84+3.24+96.04)/4.
  EXPECT_NEAR(stats.variance(), 37.2, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 16.0);
  EXPECT_NEAR(stats.sum(), 31.0, 1e-12);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(3.5);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  Rng rng(1);
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 10.0;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(Quantiles, MedianOfOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Quantiles, ExtremesAndInterpolation) {
  const std::vector<double> values{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.125), 15.0);
}

TEST(Quantiles, EmptyGivesNaN) {
  EXPECT_TRUE(std::isnan(quantile(std::vector<double>{}, 0.5)));
}

TEST(Bootstrap, MeanCiCoversTruth) {
  Rng rng(2);
  std::vector<double> values;
  for (int i = 0; i < 400; ++i) values.push_back(rng.next_double());
  Rng boot_rng(3);
  const ConfidenceInterval ci = bootstrap_mean_ci(values, boot_rng, 800);
  EXPECT_LT(ci.lo, ci.point);
  EXPECT_GT(ci.hi, ci.point);
  EXPECT_LT(ci.lo, 0.5);
  EXPECT_GT(ci.hi, 0.5);
  EXPECT_NEAR(ci.point, 0.5, 0.05);
}

TEST(Bootstrap, EmptyInput) {
  Rng rng(4);
  const ConfidenceInterval ci =
      bootstrap_mean_ci(std::vector<double>{}, rng, 100);
  EXPECT_DOUBLE_EQ(ci.lo, 0.0);
  EXPECT_DOUBLE_EQ(ci.hi, 0.0);
}

TEST(Regression, RecoversExactLine) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{3.0, 5.0, 7.0, 9.0};  // y = 2x + 1
  const LinearFit fit = ols_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Regression, NoisyLineStillClose) {
  Rng rng(5);
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    const double xi = static_cast<double>(i);
    x.push_back(xi);
    y.push_back(0.5 * xi + 10.0 + (rng.next_double() - 0.5));
  }
  const LinearFit fit = ols_fit(x, y);
  EXPECT_NEAR(fit.slope, 0.5, 0.01);
  EXPECT_NEAR(fit.intercept, 10.0, 1.0);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(Regression, LogLogRecoversExponent) {
  std::vector<double> x, y;
  for (const double n : {10.0, 100.0, 1000.0, 10000.0}) {
    x.push_back(n);
    y.push_back(3.0 * std::pow(n, 1.5));  // y = 3 n^1.5
  }
  const LinearFit fit = loglog_fit(x, y);
  EXPECT_NEAR(fit.slope, 1.5, 1e-10);
  EXPECT_NEAR(std::exp(fit.intercept), 3.0, 1e-8);
}

TEST(KolmogorovSmirnov, IdenticalSamplesGiveZero) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(ks_statistic(a, a), 0.0);
}

TEST(KolmogorovSmirnov, DisjointSamplesGiveOne) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{10.0, 20.0};
  EXPECT_DOUBLE_EQ(ks_statistic(a, b), 1.0);
}

TEST(KolmogorovSmirnov, SameDistributionHighPValue) {
  Rng rng(6);
  std::vector<double> a, b;
  for (int i = 0; i < 2000; ++i) a.push_back(rng.next_double());
  for (int i = 0; i < 2000; ++i) b.push_back(rng.next_double());
  const double d = ks_statistic(a, b);
  EXPECT_GT(ks_p_value(d, a.size(), b.size()), 0.001);
}

TEST(KolmogorovSmirnov, ShiftedDistributionLowPValue) {
  Rng rng(7);
  std::vector<double> a, b;
  for (int i = 0; i < 2000; ++i) a.push_back(rng.next_double());
  for (int i = 0; i < 2000; ++i) b.push_back(rng.next_double() + 0.2);
  const double d = ks_statistic(a, b);
  EXPECT_LT(ks_p_value(d, a.size(), b.size()), 1e-6);
}

TEST(ChiSquare, PValueKnownQuantiles) {
  // Chi-square with 1 dof: P(X > 3.841) ~ 0.05.
  EXPECT_NEAR(chi_square_p_value(3.841, 1), 0.05, 0.002);
  // With 10 dof: P(X > 18.307) ~ 0.05.
  EXPECT_NEAR(chi_square_p_value(18.307, 10), 0.05, 0.002);
  EXPECT_DOUBLE_EQ(chi_square_p_value(0.0, 5), 1.0);
}

TEST(ChiSquare, UniformCountsFitUniform) {
  const std::vector<std::uint64_t> observed{105, 95, 98, 102};
  const std::vector<double> expected(4, 0.25);
  int dof = 0;
  const double stat = chi_square_statistic(observed, expected, 400, &dof);
  EXPECT_EQ(dof, 3);
  EXPECT_GT(chi_square_p_value(stat, dof), 0.5);
}

TEST(ChiSquare, PoolsSparseBins) {
  // Expected counts of 0.4 each must be pooled, not divided by.
  const std::vector<std::uint64_t> observed{100, 1, 0, 1, 0, 98};
  const std::vector<double> expected{0.5, 0.002, 0.002, 0.002, 0.002, 0.492};
  int dof = 0;
  const double stat = chi_square_statistic(observed, expected, 200, &dof);
  EXPECT_TRUE(std::isfinite(stat));
  EXPECT_GE(dof, 1);
}

}  // namespace
}  // namespace bitspread
