// E3 — The contrasting upper bound (Becchetti et al., SODA 2024): the
// minority dynamics with l >= sqrt(n ln n) solves bit-dissemination in
// O(log^2 n) rounds w.h.p.
//
// Series regenerated: convergence time vs n, from the all-wrong start for
// both source opinions, with normalizations T / log^2(n) and T / log(n)
// (the paper's bound is log^2; in practice the run is dominated by the
// "one overshoot round + cleanup" mechanism, so even T / log n is small).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/init.h"
#include "engine/aggregate.h"
#include "random/seeding.h"
#include "protocols/minority.h"
#include "sim/cli.h"
#include "sim/experiment.h"
#include "sim/sweep.h"
#include "sim/table.h"
#include "stats/quantiles.h"

namespace bitspread {
namespace {

int run(const BenchOptions& options, FlightRecorderScope&,
        JsonReporter& reporter) {
  print_banner("E3",
               "SODA'24 upper bound: minority with l = sqrt(n ln n) is "
               "polylog-fast",
               options, reporter);

  const int max_exp = options.quick ? 16 : 22;
  const int reps = options.reps_or(options.quick ? 10 : 25);
  const auto grid = power_of_two_grid(10, max_exp);
  const SeedSequence seeds(options.seed);
  const MinorityDynamics minority(SampleSizePolicy::sqrt_n_log_n());

  Table table({"n", "l", "z", "solved", "mean T", "p90", "T/log2^2(n)",
               "max T"});
  const AggregateParallelEngine engine(minority);
  std::uint64_t cell = 0;
  bool all_solved = true;
  for (const std::uint64_t n : grid) {
    for (const Opinion z : {Opinion::kOne, Opinion::kZero}) {
      StopRule rule;
      rule.max_rounds = 100000;
      const Configuration init = init_all_wrong(n, z);
      const auto runner = [&](Rng& rng) {
        return engine.run(init, rule, rng);
      };
      const ConvergenceMeasurement m =
          measure_convergence(runner, seeds, cell++, reps);
      all_solved = all_solved && (m.converged == reps);
      const double log2n = std::log2(static_cast<double>(n));
      table.add_row({Table::fmt(n),
                     Table::fmt(std::uint64_t{minority.sample_size(n)}),
                     std::to_string(to_int(z)),
                     std::to_string(m.converged) + "/" + std::to_string(reps),
                     Table::fmt(m.rounds.mean(), 2),
                     Table::fmt(quantile(m.round_samples, 0.9), 1),
                     Table::fmt(m.rounds.mean() / (log2n * log2n), 4),
                     Table::fmt(m.rounds.max(), 0)});
    }
  }
  table.print(std::cout);
  reporter.add_table("sqrt_sample_convergence", table);
  reporter.set_extra("all_solved", JsonValue(all_solved));
  std::printf(
      "\nall cells solved: %s. T / log^2 n stays bounded (in fact shrinks) "
      "while n grows %llux:\nthe parallel setting with a large sample size "
      "is exponentially faster than the\nconstant-l regime of E2 — the gap "
      "the paper wants to pin down.\n",
      all_solved ? "YES" : "NO",
      static_cast<unsigned long long>(grid.back() / grid.front()));
  return 0;
}

}  // namespace
}  // namespace bitspread

int main(int argc, char** argv) {
  return bitspread::run_bench("minority_sqrt_upper", argc, argv,
                              bitspread::run);
}
