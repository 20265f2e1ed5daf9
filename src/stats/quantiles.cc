#include "stats/quantiles.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace bitspread {

double quantile(std::span<const double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - std::floor(pos);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> values) { return quantile(values, 0.5); }

}  // namespace bitspread
