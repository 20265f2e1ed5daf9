// E10 — Proposition 5: |E[X_{t+1} | X_t = x] - x - n F_n(x/n)| <= 1, for
// every state x, both source opinions, any protocol.
//
// This is checked EXACTLY, not by sampling: E[X_{t+1} | X_t] comes from the
// dense transition row (convolution of two binomial pmfs), and F_n from Eq. 3.
// The table reports the maximum absolute deviation over all states — the
// paper's bound is 1, and the measured worst case is the |z(1-P_1) -
// (1-z)P_0| <= 1 source term, so deviations approach but never exceed 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "analysis/bias.h"
#include "markov/dense_chain.h"
#include "protocols/custom.h"
#include "protocols/minority.h"
#include "protocols/three_majority.h"
#include "protocols/two_choice.h"
#include "protocols/voter.h"
#include "random/seeding.h"
#include "sim/seeds.h"
#include "sim/cli.h"
#include "sim/table.h"
#include "telemetry/reporter.h"

namespace bitspread {
namespace {

void run(const BenchOptions& options) {
  print_banner("E10", "Proposition 5: the drift identity, exact", options);

  const std::vector<std::uint64_t> ns =
      options.quick ? std::vector<std::uint64_t>{40, 80}
                    : std::vector<std::uint64_t>{40, 80, 160, 320};

  JsonReporter reporter("prop5_drift");
  reporter.set_experiment("E10");
  reporter.set_seed(options.seed);
  reporter.set_quick(options.quick);
  reporter.set_workload("n_max", JsonValue(ns.back()));
  const std::uint64_t exact_start_ns = telemetry::clock_now_ns();

  const VoterDynamics voter;
  const MinorityDynamics minority3(3);
  const MinorityDynamics minority4(4);
  const ThreeMajorityDynamics three_majority;
  const TwoChoiceDynamics two_choice;
  Rng proto_rng(SeedSequence(master_seed_from_env()).derive("prop5-random"));
  const CustomProtocol random_proto = random_protocol(proto_rng, 4);
  const std::vector<const MemorylessProtocol*> protocols{
      &voter, &minority3, &minority4, &three_majority, &two_choice,
      &random_proto};

  Table table({"protocol", "n", "z", "max |E[X']-x-nF(x/n)|", "bound", "ok"});
  bool all_ok = true;
  for (const MemorylessProtocol* protocol : protocols) {
    for (const std::uint64_t n : ns) {
      const BiasFunction bias(*protocol, n);
      for (const Opinion z : {Opinion::kOne, Opinion::kZero}) {
        const DenseParallelChain chain(*protocol, n, z);
        double worst = 0.0;
        for (std::uint64_t x = chain.min_state(); x <= chain.max_state();
             ++x) {
          const double predicted =
              static_cast<double>(x) +
              static_cast<double>(n) *
                  bias(static_cast<double>(x) / static_cast<double>(n));
          worst = std::max(worst, std::abs(chain.row_mean(x) - predicted));
        }
        const bool ok = worst <= 1.0 + 1e-9;
        all_ok = all_ok && ok;
        table.add_row({protocol->name(), Table::fmt(n),
                       std::to_string(to_int(z)), Table::fmt(worst, 6), "1",
                       ok ? "yes" : "NO"});
      }
    }
  }
  table.print(std::cout);
  std::printf("\nProposition 5 holds exactly in every cell: %s\n",
              all_ok ? "YES" : "NO (investigate!)");

  reporter.add_phase(
      "exact_chain",
      static_cast<double>(telemetry::clock_now_ns() - exact_start_ns) * 1e-9);
  reporter.set_extra("all_ok", JsonValue(all_ok));
  reporter.add_table("drift_identity", table);
  reporter.write_file(options.json_path.value_or("BENCH_prop5_drift.json"));
}

}  // namespace
}  // namespace bitspread

int main(int argc, char** argv) {
  bitspread::run(bitspread::parse_bench_options(argc, argv));
  return 0;
}
