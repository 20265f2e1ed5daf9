// Quantiles over batches of observations.
#ifndef BITSPREAD_STATS_QUANTILES_H_
#define BITSPREAD_STATS_QUANTILES_H_

#include <span>

namespace bitspread {

// q-quantile (q in [0,1]) with linear interpolation between order statistics
// (type-7, the R/numpy default). Input need not be sorted; empty input yields
// NaN.
double quantile(std::span<const double> values, double q);

// Median shortcut.
double median(std::span<const double> values);

}  // namespace bitspread

#endif  // BITSPREAD_STATS_QUANTILES_H_
