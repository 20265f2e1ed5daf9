#include "random/binomial.h"

#include <algorithm>
#include <cmath>

namespace bitspread {
namespace {

// One step of BINV's pmf recurrence: r_x from r_{x-1}, where
// pmf(x) = pmf(x-1) * (n-x+1)/x * p/(1-p) = pmf(x-1) * (a/x - s).
double binv_next(double r, std::uint64_t x, double s, double a) noexcept {
  return r * (a / static_cast<double>(x) - s);
}

// BINV's walk: inverts a uniform u against r_0 = q^n, r_1, ... by
// subtraction. The first m >= 1 entries are read from `r` (the recurrence's
// own values), later ones computed as the walk reaches them. The walk ends
// at x = n or at the first entry that underflows to <= 0; running off the
// end (u ~ 1, astronomically rare) redraws u.
std::uint64_t binv_walk(Rng& rng, std::uint64_t n, double s, double a,
                        const double* r, std::uint64_t m) noexcept {
  while (true) {
    double u = rng.next_double();
    for (std::uint64_t x = 0; x < m; ++x) {
      if (u <= r[x]) return x;
      u -= r[x];
    }
    double tail = r[m - 1];
    for (std::uint64_t x = m; x <= n; ++x) {
      tail = binv_next(tail, x, s, a);
      if (tail <= 0.0) break;
      if (u <= tail) return x;
      u -= tail;
    }
  }
}

}  // namespace

namespace binomial_detail {

// BINV: sequential CDF inversion with the pmf recurrence. Requires n*p small
// enough that q^n does not underflow; callers guarantee
// n*p <= kInversionThreshold, so q^n >= exp(-~10.5) comfortably.
std::uint64_t binv(Rng& rng, std::uint64_t n, double p) noexcept {
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = static_cast<double>(n + 1) * s;
  const double r0 = std::exp(static_cast<double>(n) * std::log1p(-p));
  return binv_walk(rng, n, s, a, &r0, 1);
}

namespace {
// Stirling-series correction f_c(k) = ln(k!) - [ (k+1/2)ln(k+1) - (k+1) +
// 0.5 ln(2 pi) ] used by BTRS, following Hoermann (1993).
double stirling_correction(double k) noexcept {
  static constexpr double kTable[] = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
      0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
      0.01189670994589177, 0.01041126526197209, 0.00925546218271273,
      0.00833056343336287};
  if (k < 10.0) return kTable[static_cast<int>(k)];
  const double kp1sq = (k + 1.0) * (k + 1.0);
  return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / kp1sq) / kp1sq) / (k + 1.0);
}
}  // namespace

// BTRS (Hoermann 1993, "The generation of binomial random variates",
// algorithm as used in practice e.g. by TensorFlow): transformed rejection
// with squeeze; exact for p in (0, 0.5], n*p >= 10.
std::uint64_t btrs(Rng& rng, std::uint64_t n, double p) noexcept {
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
        stirling_correction(m) + stirling_correction(nd - m) -
        stirling_correction(kd) - stirling_correction(nd - kd);
    if (v <= upper) return static_cast<std::uint64_t>(kd);
  }
}

}  // namespace binomial_detail

std::uint64_t binomial(Rng& rng, std::uint64_t n, double p) noexcept {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - binomial(rng, n, 1.0 - p);
  if (static_cast<double>(n) * p < binomial_detail::kInversionThreshold) {
    return binomial_detail::binv(rng, n, p);
  }
  return binomial_detail::btrs(rng, n, p);
}

BinomialTable::BinomialTable(std::uint64_t n, double p) noexcept
    : n_(n), p_(p) {
  // The decision chain of binomial(), taken once.
  if (n == 0 || p <= 0.0) return;
  mirrored_ = p > 0.5;
  if (p >= 1.0) return;
  p_low_ = mirrored_ ? 1.0 - p : p;
  if (static_cast<double>(n) * p_low_ >= binomial_detail::kInversionThreshold) {
    regime_ = Regime::kRejection;
    return;
  }
  regime_ = Regime::kInversion;
  const double q = 1.0 - p_low_;
  s_ = p_low_ / q;
  a_ = static_cast<double>(n + 1) * s_;
  r_[0] = std::exp(static_cast<double>(n) * std::log1p(-p_low_));
  prefix_ = 1;
  while (prefix_ < kPrefix && prefix_ <= n) {
    const double r = binv_next(r_[prefix_ - 1], prefix_, s_, a_);
    if (r <= 0.0) break;
    r_[prefix_++] = r;
  }
}

std::uint64_t BinomialTable::draw(Rng& rng) const noexcept {
  std::uint64_t k = 0;
  if (regime_ == Regime::kInversion) {
    k = binv_walk(rng, n_, s_, a_, r_, prefix_);
  } else if (regime_ == Regime::kRejection) {
    k = binomial_detail::btrs(rng, n_, p_low_);
  }
  return mirrored_ ? n_ - k : k;
}

std::vector<double> binomial_pmf(std::uint64_t n, double p) {
  std::vector<double> pmf(n + 1, 0.0);
  if (p <= 0.0) {
    pmf[0] = 1.0;
    return pmf;
  }
  if (p >= 1.0) {
    pmf[n] = 1.0;
    return pmf;
  }
  // Start from the mode in log-space to avoid underflow at either tail, then
  // extend with the multiplicative recurrence in both directions.
  const double nd = static_cast<double>(n);
  const auto mode = static_cast<std::uint64_t>(
      std::min(nd, std::floor((nd + 1.0) * p)));
  const double log_mode = std::lgamma(nd + 1.0) -
                          std::lgamma(static_cast<double>(mode) + 1.0) -
                          std::lgamma(nd - static_cast<double>(mode) + 1.0) +
                          static_cast<double>(mode) * std::log(p) +
                          (nd - static_cast<double>(mode)) * std::log1p(-p);
  pmf[mode] = std::exp(log_mode);
  const double ratio = p / (1.0 - p);
  for (std::uint64_t k = mode; k < n; ++k) {
    pmf[k + 1] = pmf[k] * ratio * (nd - static_cast<double>(k)) /
                 (static_cast<double>(k) + 1.0);
  }
  for (std::uint64_t k = mode; k > 0; --k) {
    pmf[k - 1] = pmf[k] / ratio * static_cast<double>(k) /
                 (nd - static_cast<double>(k) + 1.0);
  }
  return pmf;
}

double binomial_cdf(std::uint64_t n, double p, std::uint64_t k) {
  if (k >= n) return 1.0;
  const auto pmf = binomial_pmf(n, p);
  // Sum the smaller tail for accuracy.
  if (k <= n / 2) {
    double acc = 0.0;
    for (std::uint64_t i = 0; i <= k; ++i) acc += pmf[i];
    return std::min(acc, 1.0);
  }
  double acc = 0.0;
  for (std::uint64_t i = n; i > k; --i) acc += pmf[i];
  return std::max(0.0, 1.0 - acc);
}

}  // namespace bitspread
