// E15 — §1.3: the majority-bit-dissemination variant, where sources
// conflict. Korman & Vacus (2022) proved this problem IMPOSSIBLE with
// passive communication; this bench shows the face of that impossibility:
// no consensus state even exists while both camps are non-empty, and the
// free population merely *tracks* the majority camp with a quality that
// depends on the protocol and the imbalance — it never stabilizes.
//
// Series: for each protocol and stubborn imbalance ratio, the fraction of
// rounds where the free majority agrees with the majority preference and
// the fraction of rounds with >= 90% alignment.
#include <cstdio>
#include <iostream>
#include <vector>

#include "engine/conflicting.h"
#include "protocols/majority.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "random/seeding.h"
#include "sim/cli.h"
#include "sim/table.h"

namespace bitspread {
namespace {

void run(const BenchOptions& options) {
  print_banner("E15",
               "conflicting sources (majority bit-dissemination): no "
               "stabilization, only tracking",
               options);

  const std::uint64_t n = options.quick ? (1 << 12) : (1 << 14);
  const std::uint64_t rounds = options.quick ? 20000 : 100000;
  const std::uint64_t stubborn_total = n / 50;  // 2% stubborn agents.
  const SeedSequence seeds(options.seed);

  const VoterDynamics voter;
  const MinorityDynamics minority3(3);
  const MinorityDynamics minority_sqrt(SampleSizePolicy::sqrt_n_log_n());
  const MajorityDynamics majority5(5, MajorityDynamics::TieBreak::kKeepOwn);
  const std::vector<const MemorylessProtocol*> protocols{
      &voter, &minority3, &minority_sqrt, &majority5};

  Table table({"protocol", "stubborn 1s:0s", "P(track majority)",
               "P(>=90% aligned)", "final ones frac"});
  std::uint64_t cell = 0;
  for (const MemorylessProtocol* protocol : protocols) {
    const ConflictingAggregateEngine engine(*protocol);
    for (const double imbalance : {0.5, 0.6, 0.75, 0.9}) {
      const auto stubborn_ones =
          static_cast<std::uint64_t>(imbalance * stubborn_total);
      const std::uint64_t stubborn_zeros = stubborn_total - stubborn_ones;
      ConflictingConfiguration config{n, n / 2, stubborn_ones,
                                      stubborn_zeros};
      Rng rng = seeds.stream(cell++);
      const auto result = engine.watch(config, rounds, rng);
      table.add_row(
          {protocol->name(),
           Table::fmt(stubborn_ones) + ":" + Table::fmt(stubborn_zeros),
           Table::fmt(result.tracking_fraction, 3),
           Table::fmt(result.near_consensus_fraction, 3),
           Table::fmt(result.final_config.fraction_ones(), 3)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nNo cell ever reaches (or could reach) a consensus: with both camps "
      "non-empty the\nones-count is pinned inside (0, n) forever — the "
      "structural face of the\nimpossibility result for passive "
      "communication. Tracking quality varies: voter's\nmix leans with the "
      "camp imbalance; majority amplifies whichever side it started\nnear; "
      "minority with sqrt(n ln n) samples ironically *fights* the majority "
      "camp\n(its one-round overshoot flips the free population each "
      "round).\n");
}

}  // namespace
}  // namespace bitspread

int main(int argc, char** argv) {
  bitspread::run(bitspread::parse_bench_options(argc, argv));
  return 0;
}
