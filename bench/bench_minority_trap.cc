// E17 — the trap, quantified: why E2's censored cells hide EXPONENTIAL times.
//
// The paper calls the minority dynamics' behavior "chaotic... yet to be
// fully understood". At constant l its bias F_n has a stable interior root
// (l = 3: p* = 1/2 with map slope 0), so the finite chain lives in a
// quasi-stationary cloud around p* and escapes to consensus only through an
// exponentially rare fluctuation. This bench measures the trap exactly:
//   * the quasi-stationary distribution's mean/width: mean ~ n/2 and width
//     Theta(sqrt(n)) — diffusive fluctuations around the mean-field point;
//   * the Perron eigenvalue lambda of the transient submatrix: the expected
//     escape time from quasi-stationarity is 1/(1 - lambda), and the table
//     shows log(escape time) growing LINEARLY in n — true exponential
//     slowness, far beyond the n^{1-eps} floor Theorem 1 certifies;
//   * cross-check: the exact expected absorption time from the mid state
//     (fundamental-matrix solve) tracks 1/(1 - lambda).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "markov/absorption.h"
#include "markov/dense_chain.h"
#include "markov/quasi_stationary.h"
#include "protocols/minority.h"
#include "sim/cli.h"
#include "sim/table.h"
#include "stats/regression.h"

namespace bitspread {
namespace {

int run(const BenchOptions& options, FlightRecorderScope&,
        JsonReporter& reporter) {
  print_banner("E17",
               "the minority trap: quasi-stationary shape and exponential "
               "escape",
               options, reporter);

  // Beyond n ~ 44 the escape probability 1 - lambda sinks below double
  // precision (lambda rounds to 1.0) — the exponential wall is literally
  // unrepresentable, which is the point; the grid stops where the numerics
  // are still exact.
  const std::vector<std::uint64_t> ns =
      options.quick ? std::vector<std::uint64_t>{16, 24, 32, 40}
                    : std::vector<std::uint64_t>{16, 20, 24, 28, 32, 36, 40, 44};
  const MinorityDynamics minority(3);

  Table table({"n", "QSD mean/n", "QSD stddev", "stddev/sqrt(n)", "lambda",
               "escape 1/(1-lambda)", "exact E[T] from n/2"});
  std::vector<double> ns_d, log_escape;
  for (const std::uint64_t n : ns) {
    const DenseParallelChain chain(minority, n, Opinion::kOne);
    const QuasiStationary qsd = quasi_stationary_distribution(chain);
    const auto times = expected_convergence_rounds(chain);
    const double mid_time =
        times[n / 2 - chain.min_state()];
    const double nd = static_cast<double>(n);
    // QSD indices are state offsets; add min_state for the real mean.
    const double mean_state =
        qsd.mean() + static_cast<double>(chain.min_state());
    table.add_row({Table::fmt(n), Table::fmt(mean_state / nd, 4),
                   Table::fmt(qsd.stddev(), 2),
                   Table::fmt(qsd.stddev() / std::sqrt(nd), 3),
                   Table::fmt(qsd.lambda, 8),
                   Table::fmt(qsd.expected_escape_rounds(), 1),
                   Table::fmt(mid_time, 1)});
    ns_d.push_back(nd);
    log_escape.push_back(std::log(qsd.expected_escape_rounds()));
  }
  table.print(std::cout);
  reporter.add_table("quasi_stationary", table);

  const LinearFit fit = ols_fit(ns_d, log_escape);
  JsonValue fit_json = JsonValue::object();
  fit_json.set("intercept", JsonValue(fit.intercept));
  fit_json.set("rate", JsonValue(fit.slope));
  fit_json.set("r_squared", JsonValue(fit.r_squared));
  reporter.set_extra("log_escape_fit", std::move(fit_json));
  std::printf(
      "\nfit: log(escape time) ~ %.3f + %.4f * n (R^2 = %.4f) — the escape "
      "time grows like\ne^{%.4f n}: exponential, not merely the n^{1-eps} "
      "of Theorem 1. The QSD sits at\np ~ 1/2 (the stable root of F) with "
      "width Theta(sqrt n): the chain is a diffusion\nin an O(sqrt n) tube "
      "around the mean-field trap. The exact absorption times from\nn/2 "
      "track 1/(1-lambda), confirming the eigenvalue picture.\n",
      fit.intercept, fit.slope, fit.r_squared, fit.slope);
  return 0;
}

}  // namespace
}  // namespace bitspread

int main(int argc, char** argv) {
  return bitspread::run_bench("minority_trap", argc, argv, bitspread::run);
}
