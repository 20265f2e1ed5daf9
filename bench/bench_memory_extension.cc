// E12 — Discussion (§5): does a little memory break the barrier?
//
// The paper conjectures the lower bound might extend to constant memory,
// while Korman & Vacus (2022) solve the problem with Theta(log log n) bits
// and l = Theta(log n). We compare, at equal sample size l = ceil(2 ln n)
// and from the all-wrong start:
//   * memory-less minority and majority (covered by the l = o(sqrt n)
//     territory where nothing fast is known);
//   * the stateful trend-follower (remembers last round's sample count:
//     ceil(log2(l+1)) bits, the budget of [7]-style protocols);
//   * the 1-bit undecided-state dynamics;
// all under the per-agent engine (the aggregate reduction does not apply to
// stateful protocols), plus memory-less Voter as the "always solves it,
// slowly" baseline.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/init.h"
#include "core/stateful.h"
#include "random/seeding.h"
#include "engine/agent.h"
#include "protocols/follow_trend.h"
#include "protocols/majority.h"
#include "protocols/minority.h"
#include "protocols/undecided.h"
#include "protocols/voter.h"
#include "sim/cli.h"
#include "sim/table.h"
#include "stats/summary.h"

namespace bitspread {
namespace {

void run(const BenchOptions& options) {
  print_banner("E12", "Discussion: bounded memory vs memory-less, equal l",
               options);

  const std::vector<int> exps = options.quick ? std::vector<int>{8, 10}
                                              : std::vector<int>{8, 10, 12};
  const int reps = options.reps_or(options.quick ? 5 : 10);
  const SeedSequence seeds(options.seed);

  Table table({"protocol", "memory", "n", "l", "solved", "mean T",
               "final ones frac"});
  std::uint64_t cell = 0;
  for (const int exp : exps) {
    const std::uint64_t n = std::uint64_t{1} << exp;
    const auto policy = SampleSizePolicy::log_n(2.0);
    const std::uint32_t ell = policy.sample_size(n);

    const VoterDynamics voter;
    const MinorityDynamics minority(policy);
    const MajorityDynamics majority(policy,
                                    MajorityDynamics::TieBreak::kKeepOwn);
    const MemorylessAsStateful voter_s(voter);
    const MemorylessAsStateful minority_s(minority);
    const MemorylessAsStateful majority_s(majority);
    const TrendFollowerDynamics trend(policy, n);
    const UndecidedStateDynamics usd;

    struct Entry {
      const StatefulProtocol* protocol;
      const char* memory;
    };
    const std::vector<Entry> entries{
        {&voter_s, "none"},
        {&minority_s, "none"},
        {&majority_s, "none"},
        {&trend, "log2(l+1) bits"},
        {&usd, "1 bit"}};

    for (const Entry& entry : entries) {
      const AgentParallelEngine engine(*entry.protocol);
      StopRule rule;
      // Polylog budget for everyone except voter, which gets its Theta(n
      // log n) due; memory should show up as solving within polylog.
      const double log2n = std::log2(static_cast<double>(n));
      rule.max_rounds =
          entry.protocol == &voter_s
              ? static_cast<std::uint64_t>(40.0 * static_cast<double>(n) *
                                           log2n)
              : static_cast<std::uint64_t>(20.0 * log2n * log2n);
      int solved = 0;
      RunningStats rounds;
      double final_fraction = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        Rng rng = seeds.stream(cell, rep);
        const RunResult r =
            engine.run(init_all_wrong(n, Opinion::kOne), rule, rng);
        if (r.converged()) {
          ++solved;
          rounds.add(static_cast<double>(r.rounds()));
        }
        final_fraction += r.final_config.fraction_ones() / reps;
      }
      ++cell;
      table.add_row({entry.protocol->name(), entry.memory, Table::fmt(n),
                     Table::fmt(std::uint64_t{ell}),
                     std::to_string(solved) + "/" + std::to_string(reps),
                     solved > 0 ? Table::fmt(rounds.mean(), 1) : "-",
                     Table::fmt(final_fraction, 3)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nbudgets: polylog (20 log^2 n) for everything except voter "
      "(40 n log n).\nWhat to look for: at l = Theta(log n) no memory-less "
      "dynamics here beats the\nbarrier from the all-wrong start, while the "
      "trend-follower's little memory lets it\nride the source's pull "
      "(simplified [7]; their exact protocol has stronger\nguarantees). "
      "USD's single bit is majority-flavored and stays pinned wrong —\n"
      "memory alone is not enough, it must implement trend detection.\n");
}

}  // namespace
}  // namespace bitspread

int main(int argc, char** argv) {
  bitspread::run(bitspread::parse_bench_options(argc, argv));
  return 0;
}
