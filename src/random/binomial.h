// Exact binomial sampling.
//
// Binomial(n, p) draws are the workhorse of the aggregate simulation engine
// (engine/aggregate.h): one parallel round of any memory-less protocol reduces
// to two binomial draws, which is what makes populations of 10^9 agents as
// cheap to simulate as 10^3. Two regimes:
//
//   * BINV inversion (Kachitvichyanukul & Schmeiser 1988) when n*min(p,1-p)
//     is small: walk the CDF with the pmf recurrence. Expected O(n*p) work.
//   * BTRS transformed rejection (Hoermann 1993) otherwise: exact, O(1)
//     expected work independent of n.
//
// Both are exact samplers of the binomial law (no normal approximation), so
// aggregate-engine trajectories follow the true Markov chain distribution.
//
// BinomialTable is the same sampler for a fixed (n, p): it computes BINV's
// u-independent terms once, so a caller drawing millions of times at one p
// (the step kernel's fault-mask words) pays only the walk.
#ifndef BITSPREAD_RANDOM_BINOMIAL_H_
#define BITSPREAD_RANDOM_BINOMIAL_H_

#include <cstdint>
#include <vector>

#include "random/rng.h"

namespace bitspread {

// Draws from Binomial(n, p). p outside [0,1] is clamped.
std::uint64_t binomial(Rng& rng, std::uint64_t n, double p) noexcept;

// Binomial(n, p) for one fixed (n, p). draw(rng) returns exactly what
// binomial(rng, n, p) returns and consumes the same draws: p <= 0 or p >= 1
// (or n = 0) draws nothing, p > 1/2 mirrors to n - Binomial(n, 1 - p), and
// n p >= kInversionThreshold defers to BTRS. In the BINV regime the table
// holds the pmf recurrence's first kPrefix entries, from r_0 = q^n; a walk
// past them continues the same recurrence. Default-constructed:
// Binomial(0, 0).
class BinomialTable {
 public:
  // Ends >= 95% of walks anywhere in the BINV regime (n p < 10).
  static constexpr unsigned kPrefix = 16;

  BinomialTable() noexcept = default;
  BinomialTable(std::uint64_t n, double p) noexcept;

  std::uint64_t draw(Rng& rng) const noexcept;
  double p() const noexcept { return p_; }

 private:
  // kZero draws nothing and yields 0 (n once mirrored: p >= 1).
  enum class Regime : std::uint8_t { kZero, kInversion, kRejection };

  std::uint64_t n_ = 0;
  double p_ = 0.0;      // As given.
  double p_low_ = 0.0;  // The side that is sampled: 1 - p when mirrored.
  bool mirrored_ = false;
  Regime regime_ = Regime::kZero;
  double s_ = 0.0;          // BINV: p_low / q.
  double a_ = 0.0;          // BINV: (n + 1) s.
  unsigned prefix_ = 0;     // BINV: entries held in r_.
  double r_[kPrefix] = {};  // BINV: r_0 = q^n, r_x = r_{x-1} (a/x - s).
};

// Internal regimes, exposed for testing and for the sampler ablation bench.
namespace binomial_detail {
std::uint64_t binv(Rng& rng, std::uint64_t n, double p) noexcept;  // p <= 0.5
std::uint64_t btrs(Rng& rng, std::uint64_t n, double p) noexcept;  // p <= 0.5
// Threshold on n*p between the regimes.
inline constexpr double kInversionThreshold = 10.0;
}  // namespace binomial_detail

// pmf of Binomial(n, k) at all k in [0, n], computed with the stable
// multiplicative recurrence. Used by the exact Markov-chain module.
std::vector<double> binomial_pmf(std::uint64_t n, double p);

// P(Binomial(n, p) <= k), by direct stable summation. Exact enough for the
// moderate n used in analysis code (n up to ~10^6).
double binomial_cdf(std::uint64_t n, double p, std::uint64_t k);

}  // namespace bitspread

#endif  // BITSPREAD_RANDOM_BINOMIAL_H_
