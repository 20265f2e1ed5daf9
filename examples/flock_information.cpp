// Flock scenario: the biological motivation from the paper's introduction.
//
// Field studies (Ballerini et al. 2008) found that a bird in a flock attends
// to its ~7 nearest neighbors regardless of flock size — a CONSTANT sample
// size. Suppose one bird spots a predator and "knows" the correct direction
// (the source), while the flock has no memory from one decision to the next.
// Theorem 1 then says: no behavioral rule whatsoever can propagate that
// information to the whole flock quickly. This example makes the theorem
// tangible: it sweeps candidate rules at l = 7 over growing flock sizes and
// prints how far the information actually gets within a realistic number of
// decision rounds.
//
//   $ ./flock_information [--trace]
#include <cstdio>
#include <iostream>
#include <vector>

#include "analysis/mean_field.h"
#include "core/init.h"
#include "engine/aggregate.h"
#include "protocols/custom.h"
#include "protocols/majority.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "sim/cli.h"
#include "sim/table.h"

int main(int argc, char** argv) {
  using namespace bitspread;

  const FlightRecorderScope flight_recorder(
      FlightRecorderOptions::parse(argc, argv));
  constexpr std::uint32_t kNeighbors = 7;
  constexpr std::uint64_t kRounds = 2000;  // Generous decision budget.

  const VoterDynamics voter(kNeighbors);
  const MinorityDynamics minority(kNeighbors);
  const MajorityDynamics majority(kNeighbors,
                                  MajorityDynamics::TieBreak::kKeepOwn);
  // A biologically plausible "quorum" rule: switch toward 1 only if a clear
  // super-majority of neighbors shows it (cf. quorum sensing in the intro).
  const CustomProtocol quorum(
      /*g_zero=*/{0.0, 0.0, 0.0, 0.0, 0.0, 0.8, 1.0, 1.0},
      /*g_one=*/{0.0, 0.0, 0.2, 1.0, 1.0, 1.0, 1.0, 1.0}, "quorum");

  const std::vector<const MemorylessProtocol*> rules{&voter, &minority,
                                                     &majority, &quorum};

  std::printf("one informed bird, %u observed neighbors, %llu decision "
              "rounds, flock starts on the wrong heading\n\n",
              kNeighbors, static_cast<unsigned long long>(kRounds));

  Table table({"rule", "flock size", "informed fraction reached",
               "consensus?", "mean-field fixed points"});
  OutcomeLedger ledger;
  for (const MemorylessProtocol* rule : rules) {
    for (const std::uint64_t flock : {200ULL, 2000ULL, 20000ULL}) {
      const AggregateParallelEngine engine(*rule);
      Rng rng(31 + flock);
      StopRule stop;
      stop.max_rounds = kRounds;
      const RunResult result =
          engine.run(init_all_wrong(flock, Opinion::kOne), stop, rng);
      ledger.add_run(result);

      std::string fps;
      const MeanFieldMap map(*rule, flock);
      for (const FixedPoint& fp : map.fixed_points()) {
        fps += Table::fmt(fp.p, 2) + "(" +
               to_string(fp.stability).substr(0, 1) + ") ";
      }
      table.add_row(
          {rule->name(), Table::fmt(flock),
           Table::fmt(result.final_config.fraction_ones(), 3),
           result.converged() ? "yes" : "no", fps});
    }
  }
  table.print(std::cout);
  std::cout << '\n';
  ledger.report(std::cout);
  std::printf(
      "\n(s) = stable, (u) = unstable, (m) = marginal fixed point of the "
      "mean-field map.\nThe informed bird's heading does not take over any "
      "large flock within the budget:\nwith 7-neighbor sampling and no "
      "memory this needs ~flock-size rounds (Theorem 1),\nregardless of the "
      "rule. Fast spreading requires either growing samples\n"
      "(sqrt(n log n) — implausible for birds) or a little memory "
      "(trend-following,\nsee bench_memory_extension).\n");
  return ledger.exit_status();
}
