#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "random/binomial.h"
#include "random/rng.h"
#include "stats/ks.h"
#include "stats/summary.h"

namespace bitspread {
namespace {

TEST(BinomialPmf, SumsToOne) {
  for (const std::uint64_t n : {1u, 2u, 5u, 17u, 100u, 1000u}) {
    for (const double p : {0.01, 0.2, 0.5, 0.77, 0.99}) {
      const auto pmf = binomial_pmf(n, p);
      const double total = std::accumulate(pmf.begin(), pmf.end(), 0.0);
      EXPECT_NEAR(total, 1.0, 1e-9) << "n=" << n << " p=" << p;
    }
  }
}

TEST(BinomialPmf, DegenerateP) {
  const auto zeros = binomial_pmf(10, 0.0);
  EXPECT_DOUBLE_EQ(zeros[0], 1.0);
  const auto ones = binomial_pmf(10, 1.0);
  EXPECT_DOUBLE_EQ(ones[10], 1.0);
}

TEST(BinomialPmf, MatchesDirectFormulaSmallN) {
  const std::uint64_t n = 6;
  const double p = 0.3;
  const auto pmf = binomial_pmf(n, p);
  const double choose[] = {1, 6, 15, 20, 15, 6, 1};
  for (std::uint64_t k = 0; k <= n; ++k) {
    const double expected = choose[k] * std::pow(p, static_cast<double>(k)) *
                            std::pow(1 - p, static_cast<double>(n - k));
    EXPECT_NEAR(pmf[k], expected, 1e-12);
  }
}

TEST(BinomialPmf, MeanAndVariance) {
  const std::uint64_t n = 200;
  const double p = 0.37;
  const auto pmf = binomial_pmf(n, p);
  double mean = 0.0, second = 0.0;
  for (std::uint64_t k = 0; k <= n; ++k) {
    mean += pmf[k] * static_cast<double>(k);
    second += pmf[k] * static_cast<double>(k) * static_cast<double>(k);
  }
  EXPECT_NEAR(mean, n * p, 1e-8);
  EXPECT_NEAR(second - mean * mean, n * p * (1 - p), 1e-7);
}

TEST(BinomialCdf, MonotoneAndBounded) {
  const std::uint64_t n = 50;
  const double p = 0.4;
  double prev = 0.0;
  for (std::uint64_t k = 0; k <= n; ++k) {
    const double c = binomial_cdf(n, p, k);
    EXPECT_GE(c, prev - 1e-12);
    EXPECT_LE(c, 1.0 + 1e-12);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(binomial_cdf(n, p, n), 1.0);
}

TEST(BinomialCdf, MedianOfSymmetric) {
  // Bin(9, 0.5): P(K <= 4) = 0.5 exactly by symmetry.
  EXPECT_NEAR(binomial_cdf(9, 0.5, 4), 0.5, 1e-12);
}

TEST(BinomialSampler, EdgeCases) {
  Rng rng(1);
  EXPECT_EQ(binomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(binomial(rng, 100, 0.0), 0u);
  EXPECT_EQ(binomial(rng, 100, 1.0), 100u);
  EXPECT_EQ(binomial(rng, 100, -0.5), 0u);
  EXPECT_EQ(binomial(rng, 100, 1.5), 100u);
}

TEST(BinomialSampler, AlwaysWithinSupport) {
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_LE(binomial(rng, 37, 0.41), 37u);
  }
}

// Property sweep: sample mean and variance across all regimes (inversion,
// rejection, symmetric complement, large n).
using BinomialParams = std::tuple<std::uint64_t, double>;

class BinomialMomentsTest : public ::testing::TestWithParam<BinomialParams> {};

TEST_P(BinomialMomentsTest, MeanAndVarianceMatch) {
  const auto [n, p] = GetParam();
  Rng rng(0xb10 + n);
  RunningStats stats;
  const int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    stats.add(static_cast<double>(binomial(rng, n, p)));
  }
  const double mean = static_cast<double>(n) * p;
  const double var = mean * (1.0 - p);
  const double mean_tol = 5.0 * std::sqrt(var / kDraws) + 1e-9;
  EXPECT_NEAR(stats.mean(), mean, mean_tol) << "n=" << n << " p=" << p;
  // Variance concentrates slower; allow 10% relative slack.
  if (var > 0.5) {
    EXPECT_NEAR(stats.variance(), var, 0.1 * var) << "n=" << n << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, BinomialMomentsTest,
    ::testing::Values(
        BinomialParams{1, 0.5}, BinomialParams{2, 0.1},
        BinomialParams{10, 0.05},                 // BINV, tiny mean
        BinomialParams{10, 0.5},                  // BINV boundary
        BinomialParams{100, 0.02},                // BINV via small np
        BinomialParams{100, 0.3},                 // BTRS
        BinomialParams{100, 0.97},                // complement + BINV
        BinomialParams{1000, 0.5},                // BTRS, large
        BinomialParams{1000, 0.9},                // complement + BTRS
        BinomialParams{1000000, 0.25},            // BTRS, very large n
        BinomialParams{1000000, 0.000001},        // BINV, np = 1
        BinomialParams{1000000000, 0.5}));        // n = 1e9

// Exactness: chi-square of sampled frequencies against the true pmf, in both
// the inversion and rejection regimes.
class BinomialChiSquareTest : public ::testing::TestWithParam<BinomialParams> {
};

TEST_P(BinomialChiSquareTest, FrequenciesMatchPmf) {
  const auto [n, p] = GetParam();
  Rng rng(0xc41 + n * 31);
  const int kDraws = 60000;
  std::vector<std::uint64_t> counts(n + 1, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[binomial(rng, n, p)];
  const auto pmf = binomial_pmf(n, p);
  int dof = 0;
  const double stat = chi_square_statistic(counts, pmf, kDraws, &dof);
  const double p_value = chi_square_p_value(stat, dof);
  EXPECT_GT(p_value, 1e-4) << "n=" << n << " p=" << p << " stat=" << stat
                           << " dof=" << dof;
}

INSTANTIATE_TEST_SUITE_P(Regimes, BinomialChiSquareTest,
                         ::testing::Values(BinomialParams{8, 0.3},    // BINV
                                           BinomialParams{12, 0.5},   // BINV
                                           BinomialParams{60, 0.4},   // BTRS
                                           BinomialParams{60, 0.85},  // compl.
                                           BinomialParams{200, 0.2},  // BTRS
                                           BinomialParams{40, 0.5}));

TEST(BinomialSampler, RegimesAgreeInDistribution) {
  // Force both internal regimes at the same (n, p) and compare samples.
  const std::uint64_t n = 64;
  const double p = 0.25;  // n*p = 16 >= threshold: btrs eligible; binv valid.
  Rng rng_a(71);
  Rng rng_b(72);
  const int kDraws = 30000;
  std::vector<double> a(kDraws), b(kDraws);
  for (int i = 0; i < kDraws; ++i) {
    a[i] = static_cast<double>(binomial_detail::binv(rng_a, n, p));
    b[i] = static_cast<double>(binomial_detail::btrs(rng_b, n, p));
  }
  const double d = ks_statistic(a, b);
  EXPECT_GT(ks_p_value(d, a.size(), b.size()), 1e-4) << "KS=" << d;
}

TEST(BinomialSampler, IsDeterministicGivenSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(binomial(a, 1000, 0.3), binomial(b, 1000, 0.3));
  }
}

// BINV as a self-contained per-call walk (q^n and the pmf recurrence
// recomputed on every call): the slow oracle for the walk that binomial()
// and BinomialTable share.
std::uint64_t reference_binv(Rng& rng, std::uint64_t n, double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = static_cast<double>(n + 1) * s;
  while (true) {
    double r = std::exp(static_cast<double>(n) * std::log1p(-p));
    double u = rng.next_double();
    std::uint64_t x = 0;
    bool done = false;
    while (x <= n) {
      if (u <= r) {
        done = true;
        break;
      }
      u -= r;
      ++x;
      r *= a / static_cast<double>(x) - s;
      if (r <= 0.0) break;
    }
    if (done) return std::min(x, n);
  }
}

// BTRS as one self-contained function, its set-up recomputed on every
// call: the slow oracle for the BTRS draws of binomial() and BinomialTable,
// which a table that keeps its set-up must reproduce.
double reference_stirling(double k) {
  static constexpr double kTable[] = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
      0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
      0.01189670994589177, 0.01041126526197209, 0.00925546218271273,
      0.00833056343336287};
  if (k < 10.0) return kTable[static_cast<int>(k)];
  const double kp1sq = (k + 1.0) * (k + 1.0);
  return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / kp1sq) / kp1sq) / (k + 1.0);
}

std::uint64_t reference_btrs(Rng& rng, std::uint64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double stddev = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * stddev;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double r = p / q;
  const double alpha = (2.83 + 5.1 / b) * stddev;
  const double m = std::floor((nd + 1.0) * p);
  while (true) {
    const double u = rng.next_double() - 0.5;
    double v = rng.next_double();
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(kd);
    v = std::log(v * alpha / (a / (us * us) + b));
    const double upper =
        (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
        (nd + 1.0) * std::log((nd - m + 1.0) / (nd - kd + 1.0)) +
        (kd + 0.5) * std::log(r * (nd - kd + 1.0) / (kd + 1.0)) +
        reference_stirling(m) + reference_stirling(nd - m) -
        reference_stirling(kd) - reference_stirling(nd - kd);
    if (v <= upper) return static_cast<std::uint64_t>(kd);
  }
}

std::uint64_t reference_binomial(Rng& rng, std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - reference_binomial(rng, n, 1.0 - p);
  if (static_cast<double>(n) * p < binomial_detail::kInversionThreshold) {
    return reference_binv(rng, n, p);
  }
  return reference_btrs(rng, n, p);
}

TEST(BinomialTable, DrawsEqualBinomialDrawForDraw) {
  // Every regime: a BINV walk near 0, walks past the table's prefix (n p
  // just under the threshold), the BINV/BTRS boundary (64 * 10/64 = 10),
  // BTRS, p = 1/2 and the p > 1/2 mirror into each of them.
  const double kPs[] = {0.0, 1e-9, 0.01, 0.15, 10.0 / 64, 0.3,
                        0.5, 0.9, 0.999, 1.0};
  for (const std::uint64_t n : {1u, 64u, 1000u}) {
    const double long_walk = 9.9 / static_cast<double>(n);
    std::vector<double> ps(std::begin(kPs), std::end(kPs));
    ps.push_back(long_walk);
    for (const double p : ps) {
      const BinomialTable table(n, p);
      Rng a(0x7ab1e + n);
      Rng b(0x7ab1e + n);
      Rng c(0x7ab1e + n);
      const auto fresh = a.state();
      int past_prefix = 0;
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t k = table.draw(a);
        ASSERT_EQ(k, binomial(b, n, p)) << "n=" << n << " p=" << p;
        ASSERT_EQ(k, reference_binomial(c, n, p)) << "n=" << n << " p=" << p;
        ASSERT_EQ(a.state(), b.state()) << "n=" << n << " p=" << p;
        ASSERT_EQ(a.state(), c.state()) << "n=" << n << " p=" << p;
        const std::uint64_t walked = p > 0.5 ? n - k : k;
        past_prefix += walked >= BinomialTable::kPrefix ? 1 : 0;
      }
      if (p <= 0.0 || p >= 1.0) {
        EXPECT_EQ(a.state(), fresh) << "n=" << n << " p=" << p;
      }
      if (n >= 64 && p == long_walk) {
        // The continuation past the prefix is exercised, not just legal.
        EXPECT_GT(past_prefix, 100) << "n=" << n;
      }
    }
  }
}

TEST(BinomialTable, RejectionRegimeDrawsEqualBinomialForAMillionDraws) {
  // BTRS points: the kernel's 64-agent fault words at the default
  // spontaneous bias 1/2 and at p = 0.3 and its mirror 0.7, the regime
  // boundary's first BTRS point (n p = 10), and a large n. Draw for draw,
  // and the same Rng state after, the table against binomial() and the
  // per-call oracle.
  const std::pair<std::uint64_t, double> kPoints[] = {
      {64, 0.5}, {64, 0.3}, {64, 0.7}, {64, 10.0 / 64}, {1000000, 0.5},
      {1000000, 0.8}};
  for (const auto& [n, p] : kPoints) {
    const BinomialTable table(n, p);
    Rng a(0xb7b5 + n);
    Rng b(0xb7b5 + n);
    Rng c(0xb7b5 + n);
    std::uint64_t mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
      const std::uint64_t k = table.draw(a);
      mismatches += k != binomial(b, n, p) ? 1 : 0;
      mismatches += k != reference_binomial(c, n, p) ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u) << "n=" << n << " p=" << p;
    EXPECT_EQ(a.state(), b.state()) << "n=" << n << " p=" << p;
    EXPECT_EQ(a.state(), c.state()) << "n=" << n << " p=" << p;
  }
}

TEST(BinomialTable, DefaultIsBinomialOfZero) {
  const BinomialTable table;
  Rng rng(5);
  const auto fresh = rng.state();
  EXPECT_EQ(table.draw(rng), 0u);
  EXPECT_EQ(rng.state(), fresh);
  EXPECT_EQ(table.p(), 0.0);
}

}  // namespace
}  // namespace bitspread
