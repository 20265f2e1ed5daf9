// Ablation (DESIGN.md §6): tie-breaking policies and sample-size parity.
//
// The paper's Protocol 2 breaks the k = l/2 tie uniformly at random; the
// majority literature also uses "keep own". These choices change the bias
// polynomial — majority-with-coin is oblivious while majority-keep-own is
// not — and parity changes minority's table shape (odd l has no tie at
// all). This bench prints both effects:
//   * bias values / classification per policy;
//   * convergence behavior at matched l: minority even-vs-odd l near the
//     E4 threshold, majority tie policies in sourceless consensus (where
//     keep-own's inertia slows the tip-off from balance).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "analysis/bias.h"
#include "analysis/cases.h"
#include "core/init.h"
#include "engine/aggregate.h"
#include "protocols/majority.h"
#include "protocols/minority.h"
#include "random/seeding.h"
#include "sim/cli.h"
#include "sim/experiment.h"
#include "sim/table.h"
#include "telemetry/reporter.h"

namespace bitspread {
namespace {

int run(const BenchOptions& options, FlightRecorderScope&,
        JsonReporter& reporter) {
  print_banner("ablation", "tie-breaking policies and sample-size parity",
               options, reporter);
  const std::uint64_t n = options.quick ? (1 << 12) : (1 << 14);
  const int reps = options.reps_or(options.quick ? 8 : 16);
  const SeedSequence seeds(options.seed);

  reporter.set_workload("n", JsonValue(n));
  reporter.set_workload("replicates", JsonValue(reps));
  const std::uint64_t simulate_start_ns = telemetry::clock_now_ns();

  // Part 1: tie policy changes the bias.
  {
    const MajorityDynamics keep(4, MajorityDynamics::TieBreak::kKeepOwn);
    const MajorityDynamics coin(4, MajorityDynamics::TieBreak::kRandom);
    Table table({"p", "F (tie=own)", "F (tie=coin)"});
    for (int i = 0; i <= 10; ++i) {
      const double p = i / 10.0;
      table.add_row({Table::fmt(p, 1),
                     Table::fmt(BiasFunction(keep, n)(p), 5),
                     Table::fmt(BiasFunction(coin, n)(p), 5)});
    }
    std::printf("majority l = 4, tie policies (oblivious iff coin):\n");
    table.print(std::cout);
    std::printf("tie=own oblivious: %s;  tie=coin oblivious: %s\n\n",
                keep.is_oblivious(n) ? "yes" : "no",
                coin.is_oblivious(n) ? "yes" : "no");
    reporter.set_extra("tie_own_oblivious", JsonValue(keep.is_oblivious(n)));
    reporter.set_extra("tie_coin_oblivious", JsonValue(coin.is_oblivious(n)));
    reporter.add_table("bias_by_tie_policy", table);
  }

  // Part 2: minority parity — even l (with its coin-flip tie) vs the odd
  // neighbors, at sample sizes around E4's empirical threshold.
  {
    Table table({"l", "parity", "solved", "mean T"});
    std::uint64_t cell = 0;
    StopRule rule;
    const double log2n = std::log2(static_cast<double>(n));
    rule.max_rounds = static_cast<std::uint64_t>(20.0 * log2n * log2n);
    for (const std::uint32_t ell : {31u, 32u, 33u, 49u, 50u, 51u, 63u, 64u,
                                    65u}) {
      const MinorityDynamics minority(ell);
      const AggregateParallelEngine engine(minority);
      const Configuration init = init_all_wrong(n, Opinion::kOne);
      const auto runner = [&](Rng& rng) {
        return engine.run(init, rule, rng);
      };
      const ConvergenceMeasurement m =
          measure_convergence(runner, seeds, cell++, reps);
      table.add_row({Table::fmt(std::uint64_t{ell}),
                     ell % 2 == 0 ? "even (tie)" : "odd",
                     std::to_string(m.converged) + "/" + std::to_string(reps),
                     m.converged > 0 ? Table::fmt(m.rounds.mean(), 1) : "-"});
    }
    std::printf("minority around the empirical threshold, n = %llu, "
                "all-wrong start:\n",
                static_cast<unsigned long long>(n));
    table.print(std::cout);
    reporter.add_table("minority_parity", table);
  }

  // Part 3: sourceless majority from balance — keep-own inertia vs coin.
  {
    Table table({"tie policy", "consensus reached", "mean rounds"});
    std::uint64_t cell = 100;
    for (const auto tie : {MajorityDynamics::TieBreak::kKeepOwn,
                           MajorityDynamics::TieBreak::kRandom}) {
      const MajorityDynamics majority(4, tie);
      const AggregateParallelEngine engine(majority);
      StopRule rule;
      rule.max_rounds = 100000;
      const Configuration init{n, n / 2, Opinion::kOne, 0};
      int reached = 0;
      RunningStats rounds;
      for (int rep = 0; rep < reps; ++rep) {
        Rng rng = seeds.stream(cell, rep);
        const RunResult r = engine.run(init, rule, rng);
        if (r.final_config.is_consensus()) {
          ++reached;
          rounds.add(static_cast<double>(r.rounds()));
        }
      }
      ++cell;
      table.add_row({tie == MajorityDynamics::TieBreak::kKeepOwn ? "keep own"
                                                                 : "coin",
                     std::to_string(reached) + "/" + std::to_string(reps),
                     reached > 0 ? Table::fmt(rounds.mean(), 1) : "-"});
    }
    std::printf("\nsourceless majority (l = 4) from an exact 50/50 split:\n");
    table.print(std::cout);
    reporter.add_table("sourceless_majority", table);
  }
  reporter.add_phase(
      "simulate",
      static_cast<double>(telemetry::clock_now_ns() - simulate_start_ns) *
          1e-9);
  std::printf(
      "\nTakeaways: the tie rule changes the protocol's F_n (and whether it "
      "is oblivious),\nbut not its Case classification; minority's parity "
      "matters little away from the\nthreshold (even l is mildly slower "
      "near it); both majority tie rules tip off the\nbalanced sourceless "
      "start in ~10 rounds, keep-own marginally faster (its ties\npreserve "
      "whatever asymmetry the first fluctuation creates).\n");
  return 0;
}

}  // namespace
}  // namespace bitspread

int main(int argc, char** argv) {
  return bitspread::run_bench("tie_ablation", argc, argv, bitspread::run);
}
