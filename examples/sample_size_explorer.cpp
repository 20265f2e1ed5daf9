// Sample-size explorer: the paper's open question, interactively.
//
// "What is the minimal sample size for which the minority dynamics converges
// in poly-logarithmic time?" (paper §1). The lower bound says constant l is
// hopeless; the upper bound needs l = sqrt(n ln n). This example sweeps l at
// a fixed population and prints where fast convergence empirically kicks in
// from the hardest start. (bench_minority_ell_sweep runs the full-scale
// version across several n.)
//
//   $ ./sample_size_explorer [n_log2] [--trace]    (default n = 2^14)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/init.h"
#include "stats/quantiles.h"
#include "engine/aggregate.h"
#include "protocols/minority.h"
#include "sim/cli.h"
#include "sim/experiment.h"
#include "sim/table.h"

int main(int argc, char** argv) {
  using namespace bitspread;

  const FlightRecorderScope flight_recorder(
      FlightRecorderOptions::parse(argc, argv));
  const int log2_n =
      argc > 1 && argv[1][0] != '-' ? std::atoi(argv[1]) : 14;
  const std::uint64_t n = std::uint64_t{1} << log2_n;
  constexpr int kReplicates = 10;
  const SeedSequence seeds(11);

  const double sqrt_n_log_n =
      std::sqrt(static_cast<double>(n) * std::log(static_cast<double>(n)));
  std::printf("minority dynamics, n = %llu (sqrt(n ln n) = %.0f), "
              "start = all-wrong, z = 1\n\n",
              static_cast<unsigned long long>(n), sqrt_n_log_n);

  std::vector<std::uint32_t> ells{3, 7, 15, 31};
  for (double frac : {0.05, 0.1, 0.25, 0.5, 1.0}) {
    ells.push_back(static_cast<std::uint32_t>(frac * sqrt_n_log_n));
  }

  Table table({"l", "l/sqrt(n ln n)", "solved", "mean rounds", "median"});
  std::uint64_t cell = 0;
  for (const std::uint32_t ell : ells) {
    const MinorityDynamics protocol(ell);
    const AggregateParallelEngine engine(protocol);
    const Configuration init = init_all_wrong(n, Opinion::kOne);
    StopRule rule;
    rule.max_rounds = 5'000;
    const auto runner = [&](Rng& rng) { return engine.run(init, rule, rng); };
    const ConvergenceMeasurement m =
        measure_convergence(runner, seeds, cell++, kReplicates);
    table.add_row(
        {std::to_string(ell),
         Table::fmt(static_cast<double>(ell) / sqrt_n_log_n, 3),
         std::to_string(m.converged) + "/" + std::to_string(kReplicates),
         m.converged > 0 ? Table::fmt(m.rounds.mean(), 1) : "-",
         m.converged > 0 ? Table::fmt(median(m.round_samples), 1) : "-"});
  }
  table.print(std::cout);
  std::printf(
      "\nThe transition from 'stalls' to 'a few dozen rounds' is the open "
      "question's\nterritory: the paper proves l = O(1) stalls and "
      "l = sqrt(n ln n) flies, with\nnothing known in between.\n");
  return 0;
}
