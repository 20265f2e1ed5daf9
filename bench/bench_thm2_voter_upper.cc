// E1 — Theorem 2: the Voter dynamics solves bit-dissemination in O(n log n)
// rounds w.h.p. (+ Figure 4: the backward coalescing-random-walk dual).
//
// Series regenerated:
//   (a) mean/median/p90 convergence time of Voter vs n, from the all-wrong
//       start, with the normalization T / (n ln n) which Theorem 2 predicts
//       to be bounded;
//   (b) the empirical scaling exponent alpha of T ~ c n^alpha (expect ~1,
//       the log factor shows up as a mildly drifting normalized column);
//   (c) the dual process of Appendix B: n coalescing random walks running
//       backward in time, absorbed at the source; Theorem 2's proof bounds
//       the voter convergence time by the dual's absorption time, and the
//       table shows the two track each other.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/init.h"
#include "engine/aggregate.h"
#include "random/seeding.h"
#include "protocols/voter.h"
#include "sim/cli.h"
#include "sim/experiment.h"
#include "sim/sweep.h"
#include "sim/table.h"
#include "stats/quantiles.h"
#include "stats/regression.h"
#include "telemetry/reporter.h"

namespace bitspread {
namespace {

// Figure 4's dual: every agent hosts a walk; each round every walk not yet
// at the source moves to a fresh uniform agent (walks sharing a position
// coalesce, since they would use the same sample). Returns rounds until all
// walks sit on the source.
std::uint64_t dual_coalescence_time(std::uint64_t n, Rng& rng,
                                    std::uint64_t cap) {
  // Occupied non-source positions only: walks sharing a position have
  // coalesced, and a walk landing on the source is absorbed forever, so one
  // deduplicated position set fully describes the dual state.
  std::vector<std::uint64_t> positions;
  positions.reserve(n);
  for (std::uint64_t j = 1; j < n; ++j) positions.push_back(j);
  for (std::uint64_t round = 0; round < cap; ++round) {
    if (positions.empty()) return round;
    for (auto& p : positions) p = rng.next_below(n);
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());
    if (!positions.empty() && positions.front() == 0) {
      positions.erase(positions.begin());  // Absorbed at the source.
    }
  }
  return cap;
}

// The phase sink the report reads. main installs it outside the front
// door's recorder scope, so --trace prints this sink too.
telemetry::PhaseStats phase_stats;

int run(const BenchOptions& options, FlightRecorderScope&,
        JsonReporter& reporter) {
  print_banner("E1", "Theorem 2: Voter solves bit-dissemination in O(n log n)",
               options, reporter);

  const int max_exp = options.quick ? 11 : 14;
  const int reps = options.reps_or(options.quick ? 5 : 15);
  const auto grid = power_of_two_grid(7, max_exp);
  const SeedSequence seeds(options.seed);
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);

  reporter.set_workload("protocol", JsonValue("voter"));
  reporter.set_workload("n_max", JsonValue(grid.back()));
  reporter.set_workload("reps", JsonValue(std::int64_t{reps}));

  OutcomeLedger ledger;

  Table table({"n", "reps", "mean T", "median", "p90", "T/(n ln n)",
               "dual mean", "dual/(n ln n)"});
  std::vector<double> ns, means;
  double simulate_seconds = 0.0, dual_seconds = 0.0;
  std::uint64_t cell = 0;
  for (const std::uint64_t n : grid) {
    const double n_log_n =
        static_cast<double>(n) * std::log(static_cast<double>(n));
    StopRule rule;
    rule.max_rounds = static_cast<std::uint64_t>(60.0 * n_log_n);
    const Configuration init = init_all_wrong(n, Opinion::kOne);
    const auto runner = [&](Rng& rng) { return engine.run(init, rule, rng); };
    const std::uint64_t simulate_start_ns = telemetry::clock_now_ns();
    const ConvergenceMeasurement m =
        measure_convergence(runner, seeds, cell, reps);
    simulate_seconds +=
        static_cast<double>(telemetry::clock_now_ns() - simulate_start_ns) *
        1e-9;
    ledger.add(m);

    RunningStats dual;
    const std::uint64_t dual_start_ns = telemetry::clock_now_ns();
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng = seeds.stream(cell, rep, /*phase=*/1);
      dual.add(static_cast<double>(
          dual_coalescence_time(n, rng, rule.max_rounds)));
    }
    dual_seconds +=
        static_cast<double>(telemetry::clock_now_ns() - dual_start_ns) * 1e-9;
    ++cell;

    table.add_row({Table::fmt(n), std::to_string(m.converged),
                   Table::fmt(m.rounds.mean(), 1),
                   Table::fmt(median(m.round_samples), 1),
                   Table::fmt(quantile(m.round_samples, 0.9), 1),
                   Table::fmt(m.rounds.mean() / n_log_n, 3),
                   Table::fmt(dual.mean(), 1),
                   Table::fmt(dual.mean() / n_log_n, 3)});
    ns.push_back(static_cast<double>(n));
    means.push_back(m.rounds.mean());
  }
  table.print(std::cout);

  const LinearFit fit = loglog_fit(ns, means);
  std::printf(
      "\nfit: T(n) ~ %.2f * n^%.3f  (R^2 = %.4f); Theorem 2 predicts "
      "exponent 1 with a log factor,\nand T/(n ln n) bounded — compare the "
      "normalized columns, which stay O(1) while n grows %ux.\n",
      std::exp(fit.intercept), fit.slope, fit.r_squared,
      static_cast<unsigned>(grid.back() / grid.front()));

  JsonValue fit_json = JsonValue::object();
  fit_json.set("constant", JsonValue(std::exp(fit.intercept)));
  fit_json.set("exponent", JsonValue(fit.slope));
  fit_json.set("r_squared", JsonValue(fit.r_squared));
  reporter.set_extra("convergence_fit", std::move(fit_json));
  reporter.add_phase("simulate", simulate_seconds);
  reporter.add_phase("dual", dual_seconds);
  reporter.add_phase_stats(phase_stats);
  reporter.set_metrics(ledger.metrics());
  reporter.add_table("voter_convergence", table);
  return 0;
}

}  // namespace
}  // namespace bitspread

int main(int argc, char** argv) {
  const bitspread::telemetry::SinkScope phase_sink(
      {.phases = &bitspread::phase_stats});
  return bitspread::run_bench("thm2_voter_upper", argc, argv, bitspread::run);
}
