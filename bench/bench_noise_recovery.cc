// bench_noise_recovery — the robustness analogue of perf_smoke (registered as
// a ctest, see bench/CMakeLists.txt).
//
// Sweeps the fault grid (observation noise epsilon x zealot fraction z) for
// Voter and Minority(sqrt(n log n)) over n in {2^10..2^16}, with one source
// flip mid-run, and writes BENCH_robustness.json: initial convergence time,
// per-flip recovery time, and converged/censored/degraded counts per cell.
// Uses the exact aggregate faulty engine, so a cell's cost is rounds, not
// agents. The expected science (EXPERIMENTS.md E21): Voter's zero bias makes
// it collapse under any persistent adversary — noisy and zealot cells censor
// or degrade — while Minority's drift recovers from flips in polylog rounds
// until epsilon overwhelms the sqrt(n log n) sample.
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/init.h"
#include "engine/aggregate.h"
#include "faults/environment.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "random/seeding.h"
#include "sim/cli.h"
#include "sim/table.h"

namespace bitspread {
namespace {

constexpr double kQuorum = 0.9;

struct Cell {
  std::string protocol;
  std::uint64_t n = 0;
  double epsilon = 0.0;
  double zealots = 0.0;
  std::uint64_t flip_round = 0;
  std::uint64_t max_rounds = 0;
  int replicates = 0;

  int converged = 0;
  int censored = 0;
  int degraded = 0;
  // Segment 0 (initial convergence from the all-wrong start) and segment 1
  // (re-convergence after the flip), counting only recovered segments.
  int initial_recovered = 0;
  double initial_mean_rounds = 0.0;
  int post_flip_recovered = 0;
  double post_flip_mean_rounds = 0.0;
  double seconds = 0.0;
};

// Round cap per protocol: Voter needs Theta(n log n) rounds fault-free, the
// sqrt-sample Minority polylog. The caps leave a ~4x margin over the typical
// fault-free time so a censored cell is a verdict, not an artifact.
std::uint64_t voter_cap(std::uint64_t n) {
  const double cap = 4.0 * static_cast<double>(n) * std::log(static_cast<double>(n));
  return std::max<std::uint64_t>(20'000, static_cast<std::uint64_t>(cap));
}

Cell run_cell(const MemorylessProtocol& protocol, const std::string& name,
              std::uint64_t n, double epsilon, double zealots,
              std::uint64_t max_rounds, int replicates,
              const SeedSequence& seeds, std::uint64_t cell_index) {
  Cell cell;
  cell.protocol = name;
  cell.n = n;
  cell.epsilon = epsilon;
  cell.zealots = zealots;
  cell.flip_round = max_rounds / 2;
  cell.max_rounds = max_rounds;
  cell.replicates = replicates;

  EnvironmentModel model;
  model.observation_noise = epsilon;
  model.zealot_fraction = zealots;
  model.source_flip_rounds = {cell.flip_round};
  model.convergence_quorum = kQuorum;

  StopRule rule;
  rule.max_rounds = max_rounds;

  const AggregateParallelEngine engine(protocol);
  double initial_sum = 0.0, post_flip_sum = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < replicates; ++rep) {
    Rng rng = seeds.stream(cell_index, static_cast<std::uint64_t>(rep));
    const RunResult result =
        engine.run(init_all_wrong(n, Opinion::kOne), rule, model, rng);
    cell.converged += result.converged();
    cell.censored += result.censored();
    cell.degraded += result.degraded();
    if (!result.recoveries.empty() && result.recoveries[0].recovered) {
      ++cell.initial_recovered;
      initial_sum += static_cast<double>(result.recoveries[0].recovery_rounds());
    }
    if (result.recoveries.size() > 1 && result.recoveries[1].recovered) {
      ++cell.post_flip_recovered;
      post_flip_sum +=
          static_cast<double>(result.recoveries[1].recovery_rounds());
    }
  }
  cell.seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  if (cell.initial_recovered > 0)
    cell.initial_mean_rounds = initial_sum / cell.initial_recovered;
  if (cell.post_flip_recovered > 0)
    cell.post_flip_mean_rounds = post_flip_sum / cell.post_flip_recovered;
  return cell;
}

int run(const BenchOptions& options, FlightRecorderScope&,
        JsonReporter& reporter) {
  const bool quick = options.quick;
  const std::vector<std::uint64_t> sizes =
      quick ? std::vector<std::uint64_t>{1u << 10, 1u << 12}
            : std::vector<std::uint64_t>{1u << 10, 1u << 12, 1u << 14,
                                         1u << 16};
  const std::vector<double> eps_grid =
      quick ? std::vector<double>{0.0, 0.05}
            : std::vector<double>{0.0, 0.02, 0.05};
  const std::vector<double> zealot_grid =
      quick ? std::vector<double>{0.0, 0.1}
            : std::vector<double>{0.0, 0.05, 0.1};
  const int replicates = options.reps_or(quick ? 2 : 5);
  const SeedSequence seeds(options.seed);
  reporter.set_workload("quorum", JsonValue(kQuorum));
  reporter.set_workload("replicates", JsonValue(replicates));

  const VoterDynamics voter;
  const MinorityDynamics minority(SampleSizePolicy::sqrt_n_log_n());
  struct Entry {
    const MemorylessProtocol* protocol;
    const char* name;
  };
  const std::vector<Entry> protocols = {{&voter, "voter"},
                                        {&minority, "minority_sqrt"}};

  std::vector<Cell> cells;
  for (const Entry& entry : protocols) {
    for (const std::uint64_t n : sizes) {
      const std::uint64_t cap =
          std::strcmp(entry.name, "voter") == 0 ? voter_cap(n) : 2000;
      for (const double eps : eps_grid) {
        for (const double z : zealot_grid) {
          cells.push_back(run_cell(*entry.protocol, entry.name, n, eps, z,
                                   cap, replicates, seeds, cells.size()));
        }
      }
    }
  }

  std::cout << "bench_noise_recovery (quorum=" << kQuorum
            << ", flip at cap/2)\n";
  Table table({"protocol", "n", "epsilon", "zealots", "flip_round",
               "max_rounds", "converged", "censored", "degraded",
               "initial_recovered", "initial_mean_rounds",
               "post_flip_recovered", "post_flip_mean_rounds", "seconds"});
  double seconds = 0.0;
  // Convergence rate per protocol, fault-free cells vs faulty ones:
  // converged runs and all runs under keys like "voter_clean".
  std::map<std::string, std::pair<int, int>> rates;
  for (const Cell& c : cells) {
    table.add_row({c.protocol, Table::fmt(c.n), Table::fmt(c.epsilon, 2),
                   Table::fmt(c.zealots, 2), Table::fmt(c.flip_round),
                   Table::fmt(c.max_rounds), std::to_string(c.converged),
                   std::to_string(c.censored), std::to_string(c.degraded),
                   std::to_string(c.initial_recovered),
                   Table::fmt(c.initial_mean_rounds, 1),
                   std::to_string(c.post_flip_recovered),
                   Table::fmt(c.post_flip_mean_rounds, 1),
                   Table::fmt(c.seconds, 4)});
    seconds += c.seconds;
    auto& [converged, runs] =
        rates[std::string(c.protocol == "voter" ? "voter" : "minority") +
              (c.epsilon > 0.0 || c.zealots > 0.0 ? "_faulty" : "_clean")];
    converged += c.converged;
    runs += c.replicates;
  }
  table.print(std::cout);
  reporter.add_table("cells", table);
  reporter.add_phase("simulate", seconds, cells.size());
  JsonValue derived = JsonValue::object();
  for (const auto& [key, tally] : rates) {
    derived.set(key + "_convergence_rate",
                JsonValue(static_cast<double>(tally.first) / tally.second));
  }
  reporter.set_extra("derived", std::move(derived));
  return 0;
}

}  // namespace
}  // namespace bitspread

int main(int argc, char** argv) {
  return bitspread::run_bench("robustness", argc, argv, bitspread::run);
}
