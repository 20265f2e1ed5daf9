// E18 — how much synchrony does the minority mechanism need?
//
// The paper's dichotomy: fully parallel updates let minority (with l =
// sqrt(n ln n)) finish in polylog rounds, while fully sequential updates
// make it hopeless. The alpha-synchronous scheduler interpolates: each
// round an independent alpha-fraction of agents updates. This bench sweeps
// alpha and reports the convergence time in EFFECTIVE parallel rounds
// (alpha-rounds * alpha = expected activations / n), from the all-wrong
// start — locating the synchrony threshold the dichotomy hides.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/init.h"
#include "engine/alpha_sync.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "random/seeding.h"
#include "sim/cli.h"
#include "sim/experiment.h"
#include "sim/table.h"

namespace bitspread {
namespace {

void run(const BenchOptions& options) {
  print_banner("E18",
               "alpha-synchrony: interpolating the sequential/parallel "
               "dichotomy",
               options);

  const std::uint64_t n = options.quick ? (1 << 12) : (1 << 14);
  const int reps = options.reps_or(options.quick ? 5 : 10);
  const SeedSequence seeds(options.seed);
  const MinorityDynamics minority(SampleSizePolicy::sqrt_n_log_n());
  const VoterDynamics voter;

  // Dense near alpha = 1: a first pass showed the minority mechanism
  // already collapsing at alpha = 0.9, so the interesting action is in the
  // last few percent of synchrony.
  const std::vector<double> alphas{1.0,  0.999, 0.995, 0.99, 0.97,
                                   0.95, 0.9,   0.7,   0.5,  0.1};

  Table table({"protocol", "alpha", "solved", "mean alpha-rounds",
               "effective parallel rounds"});
  std::uint64_t cell = 0;
  for (const MemorylessProtocol* protocol :
       std::vector<const MemorylessProtocol*>{&minority, &voter}) {
    for (const double alpha : alphas) {
      const AlphaSynchronousEngine engine(*protocol, alpha);
      StopRule rule;
      // Budget: generous polylog for minority, ~n log n for voter, divided
      // by alpha so every alpha gets the same activation budget.
      const double log2n = std::log2(static_cast<double>(n));
      const double base_budget =
          protocol == &voter ? 40.0 * static_cast<double>(n) * log2n
                             : 60.0 * log2n * log2n;
      rule.max_rounds = static_cast<std::uint64_t>(base_budget / alpha);
      const Configuration init = init_all_wrong(n, Opinion::kOne);
      const auto runner = [&](Rng& rng) {
        return engine.run(init, rule, rng);
      };
      const ConvergenceMeasurement m =
          measure_convergence(runner, seeds, cell++, reps);
      table.add_row(
          {protocol->name(), Table::fmt(alpha, 3),
           std::to_string(m.converged) + "/" + std::to_string(reps),
           m.converged > 0 ? Table::fmt(m.rounds.mean(), 1) : "-",
           m.converged > 0 ? Table::fmt(m.rounds.mean() * alpha, 1)
                           : (">" + Table::fmt(
                                  static_cast<double>(rule.max_rounds) * alpha,
                                  0))});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nVoter is alpha-indifferent (its per-activation behavior doesn't "
      "depend on who\nelse moves). Minority is the opposite: where the "
      "polylog mechanism survives, the\neffective time barely grows; below "
      "the threshold it collapses to censored runs —\nthe 'power of "
      "synchronicity' is not a 0/1 property of parallel vs sequential "
      "but\na quantitative threshold in alpha, which this table locates "
      "empirically.\n");
}

}  // namespace
}  // namespace bitspread

int main(int argc, char** argv) {
  bitspread::run(bitspread::parse_bench_options(argc, argv));
  return 0;
}
