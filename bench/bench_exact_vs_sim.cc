// E11 — Machinery validation: exact expected convergence times (dense chain
// solve for the parallel setting, birth-death solve for the sequential one)
// against replicated simulation, at small n where the O(n^3) solve is cheap.
//
// This is the experiment that certifies the simulators ARE the model: every
// simulated mean must land within a few standard errors of the exact
// expectation.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "engine/aggregate.h"
#include "random/seeding.h"
#include "engine/sequential.h"
#include "markov/absorption.h"
#include "markov/birth_death.h"
#include "markov/dense_chain.h"
#include "markov/propagation.h"
#include "markov/propagation.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "sim/cli.h"
#include "sim/table.h"
#include "stats/summary.h"
#include "telemetry/reporter.h"

namespace bitspread {
namespace {

void run(const BenchOptions& options) {
  print_banner("E11", "exact Markov solves vs simulation", options);

  const int reps = options.reps_or(options.quick ? 1500 : 6000);
  const SeedSequence seeds(options.seed);

  JsonReporter reporter("exact_vs_sim");
  reporter.set_experiment("E11");
  reporter.set_seed(options.seed);
  reporter.set_quick(options.quick);
  reporter.set_workload("replicate_cap", JsonValue(reps));
  const std::uint64_t simulate_start_ns = telemetry::clock_now_ns();

  const VoterDynamics voter;
  const MinorityDynamics minority3(3);
  struct Case {
    const MemorylessProtocol* protocol;
    std::uint64_t n;
    std::uint64_t x0;
  };
  // The last minority cell has an exact expectation near 10^6 rounds (the
  // exponential escape of Theorem 1 at work even at n = 24) — replicates are
  // scaled down per cell so every cell costs a comparable number of
  // simulated rounds.
  std::vector<Case> cases{{&voter, 16, 8},
                          {&voter, 32, 8},
                          {&minority3, 16, 8},
                          {&minority3, 20, 10}};
  if (!options.quick) cases.push_back({&minority3, 24, 18});

  Table table({"protocol", "n", "X0", "setting", "exact E[T]", "sim mean",
               "sim stderr", "|diff|/stderr"});
  std::uint64_t cell = 0;
  bool all_within = true;
  for (const Case& c : cases) {
    // Parallel: dense-chain solve, rounds.
    {
      const DenseParallelChain chain(*c.protocol, c.n, Opinion::kOne);
      const double exact =
          expected_convergence_rounds(chain)[c.x0 - chain.min_state()];
      const AggregateParallelEngine engine(*c.protocol);
      StopRule rule;
      rule.max_rounds = 100000000;
      RunningStats stats;
      const double budget = options.quick ? 3e6 : 3e7;
      const int cell_reps = std::max(
          60, std::min(reps, static_cast<int>(budget / (exact + 1.0))));
      for (int rep = 0; rep < cell_reps; ++rep) {
        Rng rng = seeds.stream(cell, rep, 0);
        const RunResult r =
            engine.run(Configuration{c.n, c.x0, Opinion::kOne}, rule, rng);
        stats.add(static_cast<double>(r.rounds()));
      }
      const double sigma = std::max(stats.stderr_mean(), 1e-9);
      const double z_score = std::abs(stats.mean() - exact) / sigma;
      all_within = all_within && z_score < 5.0;
      table.add_row({c.protocol->name(), Table::fmt(c.n), Table::fmt(c.x0),
                     "parallel", Table::fmt(exact, 3),
                     Table::fmt(stats.mean(), 3), Table::fmt(sigma, 3),
                     Table::fmt(z_score, 2)});
    }
    // Sequential: birth-death solve, activations.
    {
      const BirthDeathChain chain(*c.protocol, c.n, Opinion::kOne);
      const double exact =
          chain.expected_absorption_activations()[c.x0 - chain.min_state()];
      const SequentialEngine engine(*c.protocol);
      StopRule rule;
      rule.max_rounds = 100000000;
      RunningStats stats;
      const double budget = options.quick ? 3e6 : 3e7;
      const int cell_reps = std::max(
          60, std::min(reps, static_cast<int>(budget / (exact + 1.0))));
      for (int rep = 0; rep < cell_reps; ++rep) {
        Rng rng = seeds.stream(cell, rep, 1);
        const RunResult r =
            engine.run(Configuration{c.n, c.x0, Opinion::kOne}, rule, rng);
        stats.add(static_cast<double>(r.activations()));
      }
      const double sigma = std::max(stats.stderr_mean(), 1e-9);
      const double z_score = std::abs(stats.mean() - exact) / sigma;
      all_within = all_within && z_score < 5.0;
      table.add_row({c.protocol->name(), Table::fmt(c.n), Table::fmt(c.x0),
                     "sequential", Table::fmt(exact, 3),
                     Table::fmt(stats.mean(), 3), Table::fmt(sigma, 3),
                     Table::fmt(z_score, 2)});
    }
    ++cell;
  }
  table.print(std::cout);
  std::printf(
      "\nall simulated means within 5 standard errors of the exact "
      "expectation: %s\n(parallel exact = fundamental-matrix solve on the "
      "convolution chain; sequential\nexact = tridiagonal birth-death "
      "solve; simulators = the shipping engines).\n",
      all_within ? "YES" : "NO (investigate!)");
  reporter.add_phase(
      "simulate",
      static_cast<double>(telemetry::clock_now_ns() - simulate_start_ns) *
          1e-9);
  reporter.set_workload("cases", JsonValue(cases.size()));
  reporter.set_extra("all_within_5_sigma", JsonValue(all_within));
  reporter.add_table("exact_vs_sim", table);

  // Bonus: the EXACT convergence-time law (not just its mean) from the
  // distribution-propagation module — "w.h.p." as computable numbers.
  {
    const std::uint64_t n = 32, x0 = 8;
    const DenseParallelChain chain(voter, n, Opinion::kOne);
    const std::uint64_t horizon = 2000;
    const auto cdf = convergence_cdf(chain, x0, horizon);
    Table quantiles({"P(tau <= t)", "exact t"});
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      std::uint64_t t = horizon;
      for (std::uint64_t s = 0; s < cdf.size(); ++s) {
        if (cdf[s] >= q) {
          t = s;
          break;
        }
      }
      quantiles.add_row({Table::fmt(q, 3), Table::fmt(t)});
    }
    std::printf("\nexact convergence-time quantiles, voter, n = %llu, "
                "X0 = %llu (distribution propagation):\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(x0));
    quantiles.print(std::cout);
    reporter.add_table("voter_quantiles", quantiles);
  }
  reporter.write_file(options.json_path.value_or("BENCH_exact_vs_sim.json"));
}

}  // namespace
}  // namespace bitspread

int main(int argc, char** argv) {
  bitspread::run(bitspread::parse_bench_options(argc, argv));
  return 0;
}
