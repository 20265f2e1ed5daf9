// bench_topology — the structured-topology trajectory probe (registered as a
// ctest, see bench/CMakeLists.txt).
//
// Three phases, one BENCH_topology.json:
//
//   (a) spread: the Minority(3) dynamics on the sharded engine over every
//       generator family (complete baseline, ring, 2-d torus, random
//       d-regular, Erdos-Renyi), from the all-wrong start, for a bounded
//       round horizon. Rows record coverage (fraction holding the correct
//       opinion when the horizon hits), agent-steps/sec, its ratio to the
//       complete row, and the kernel dispatch decision — every row runs the
//       bitslice kernel (on graphs, over CSR rows). partition_cut(n/4) per
//       graph quantifies the locality the paper's uniform-sampling model
//       deliberately lacks.
//   (b) voter_dual: the ring Voter (l = 1) consensus time against the
//       backward coalescing-random-walk dual on the same cycle — the E1
//       duality of bench_thm2_voter_upper, extended off the complete graph
//       (the distribution-level KS check lives in
//       tests/engine_topology_test.cc; this phase records the means).
//   (c) generators: what each generator's set-up costs at n = 2^20 (2^14
//       under --quick): build seconds, the median of three fresh builds,
//       and the CSR it returns.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/init.h"
#include "core/stateful.h"
#include "engine/agent.h"
#include "engine/sharded.h"
#include "engine/stopping.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "random/seeding.h"
#include "sim/cli.h"
#include "sim/table.h"
#include "stats/summary.h"
#include "telemetry/reporter.h"
#include "topology/topology.h"

namespace bitspread {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// One spread-phase measurement: a bounded-horizon Minority(3) run on one
// graph.
struct SpreadRow {
  std::string name;
  std::string graph;
  std::uint64_t rounds = 0;
  double coverage = 0.0;
  double seconds = 0.0;
  double items_per_second = 0.0;
  const char* backend = "";
  const char* reason = "";
  Topology::PartitionCut cut;
};

SpreadRow measure_spread(const std::string& name, const Topology* topology,
                         const Topology& described, std::uint64_t n,
                         std::uint64_t horizon, std::uint64_t seed) {
  const MinorityDynamics minority(3);
  const ShardedAgentEngine engine(minority, {.topology = topology});
  const Configuration init = init_all_wrong(n, Opinion::kOne);

  // Dispatch decision first (uses the population's round scratch).
  auto probe = engine.make_population(init);
  const ShardedAgentEngine::KernelDispatch dispatch =
      engine.step_dispatch(probe);

  StopRule rule;
  rule.max_rounds = horizon;
  const auto start = std::chrono::steady_clock::now();
  const RunResult result = engine.run(init, rule, seed);
  SpreadRow row;
  row.seconds = seconds_since(start);
  row.name = name;
  row.graph = described.describe();
  row.rounds = result.ticks;
  row.coverage = static_cast<double>(result.final_config.ones) /
                 static_cast<double>(n);
  row.items_per_second =
      row.seconds > 0.0
          ? static_cast<double>(result.ticks * (n - 1)) / row.seconds
          : 0.0;
  row.backend = kernel::backend_name(dispatch.backend);
  row.reason = dispatch.reason;
  row.cut = described.partition_cut(n / 4);
  return row;
}

// The ring dual of the E1 coalescing argument: one walk per non-source node,
// each round every surviving walk steps to a uniform cycle neighbour, walks
// sharing a node coalesce, and node 0 absorbs. Returns rounds until empty.
std::uint64_t ring_dual_coalescence_time(std::uint64_t n, Rng& rng,
                                         std::uint64_t cap) {
  std::vector<std::uint64_t> walkers;
  walkers.reserve(n);
  for (std::uint64_t j = 1; j < n; ++j) walkers.push_back(j);
  for (std::uint64_t round = 0; round < cap; ++round) {
    if (walkers.empty()) return round;
    for (std::uint64_t& w : walkers) {
      w = rng.next_below(2) == 0 ? (w + n - 1) % n : (w + 1) % n;
    }
    std::sort(walkers.begin(), walkers.end());
    walkers.erase(std::unique(walkers.begin(), walkers.end()), walkers.end());
    if (!walkers.empty() && walkers.front() == 0) {
      walkers.erase(walkers.begin());  // Absorbed at the source.
    }
  }
  return cap;
}

// Ring Voter (l = 1) consensus time from the all-wrong start on the agent
// engine, capped. Returns cap when censored.
std::uint64_t ring_voter_consensus_time(const AgentParallelEngine& engine,
                                        std::uint64_t n, Rng& rng,
                                        std::uint64_t cap) {
  auto population =
      engine.make_population(init_all_wrong(n, Opinion::kOne));
  for (std::uint64_t round = 0; round < cap; ++round) {
    if (population.config().is_consensus()) return round;
    engine.step(population, rng);
  }
  return cap;
}

// One generator's set-up: the median of three fresh builds (the previous
// graph freed first, so each build starts from the same heap) and the CSR
// the build returns.
struct GeneratorRow {
  std::string graph;
  std::uint64_t edges = 0;
  double csr_mb = 0.0;
  double build_s = 0.0;
};

GeneratorRow measure_generator(const std::function<Topology()>& build) {
  std::vector<double> seconds;
  Topology topo;
  for (int rep = 0; rep < 3; ++rep) {
    topo = Topology();
    const auto start = std::chrono::steady_clock::now();
    topo = build();
    seconds.push_back(seconds_since(start));
  }
  std::sort(seconds.begin(), seconds.end());
  GeneratorRow row;
  row.graph = topo.describe();
  row.edges = topo.edge_count();
  row.csr_mb = static_cast<double>(topo.offsets().size() * 8 +
                                   topo.adjacency().size() * 4) /
               (1024.0 * 1024.0);
  row.build_s = seconds[1];
  return row;
}

int run(const BenchOptions& options, FlightRecorderScope&,
        JsonReporter& reporter) {
  print_banner("T1", "Topology seam: spread off the complete graph",
               options, reporter);

  const std::uint64_t n = options.quick ? (1u << 12) : (1u << 14);
  const std::uint32_t side =
      static_cast<std::uint32_t>(std::llround(std::sqrt(double(n))));
  const std::uint64_t horizon = options.quick ? 512 : 2048;
  const std::uint32_t degree = 8;
  const double er_p = static_cast<double>(2 * degree) / static_cast<double>(n);

  reporter.set_workload("protocol", JsonValue("minority"));
  reporter.set_workload("n", JsonValue(n));
  reporter.set_workload("horizon", JsonValue(horizon));
  reporter.set_workload("degree", JsonValue(degree));

  // --- Phase (a): bounded-horizon spread per generator family. ------------
  const Topology complete = Topology::complete(n);
  const Topology ring = Topology::ring(n);
  const Topology torus = Topology::torus(side, 2);
  const Topology regular =
      Topology::random_regular(n, degree, options.seed + 101);
  const Topology er = Topology::erdos_renyi(n, er_p, options.seed + 202);

  struct Case {
    const char* name;
    const Topology* handle;  // nullptr = engine default (complete).
    const Topology* described;
  };
  const Case cases[] = {
      {"spread_complete", nullptr, &complete},
      {"spread_ring", &ring, &ring},
      {"spread_torus", &torus, &torus},
      {"spread_regular", &regular, &regular},
      {"spread_erdos_renyi", &er, &er},
  };

  std::vector<SpreadRow> rows;
  double spread_seconds = 0.0;
  for (const Case& c : cases) {
    rows.push_back(measure_spread(c.name, c.handle, *c.described, n, horizon,
                                  options.seed + 7));
    spread_seconds += rows.back().seconds;
  }

  // Rate relative to the complete row at equal n.
  const auto vs_complete = [&rows](const SpreadRow& row) {
    return rows.front().items_per_second > 0.0
               ? row.items_per_second / rows.front().items_per_second
               : 0.0;
  };
  Table spread_table({"graph", "rounds", "coverage", "Magent-steps/s",
                      "vs complete", "backend", "cut(n/4)"});
  for (const SpreadRow& row : rows) {
    spread_table.add_row({row.graph, Table::fmt(row.rounds),
                          Table::fmt(row.coverage, 4),
                          Table::fmt(row.items_per_second / 1e6, 2),
                          Table::fmt(vs_complete(row), 3), row.backend,
                          Table::fmt(row.cut.cut_fraction, 5)});
  }
  spread_table.print(std::cout);
  std::printf(
      "\nEvery row runs the bitslice kernel; structured rows sample CSR rows\n"
      "(dispatch: \"%s\").\n",
      rows.back().reason);

  // --- Phase (b): ring Voter vs the coalescing dual. ----------------------
  const std::uint64_t voter_n = options.quick ? 128 : 256;
  const int reps = options.reps_or(options.quick ? 20 : 40);
  const std::uint64_t cap = 40 * voter_n * voter_n;
  const Topology voter_ring = Topology::ring(voter_n);
  const VoterDynamics voter;
  const MemorylessAsStateful adapter(voter);
  const AgentParallelEngine voter_engine(
      adapter, AgentParallelEngine::Sampling::kWithReplacement, &voter_ring);
  const SeedSequence seeds(options.seed);

  RunningStats voter_stats, dual_stats;
  int censored = 0;
  const auto dual_start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    Rng voter_rng = seeds.stream(0, static_cast<std::uint64_t>(rep),
                                 /*phase=*/0);
    const std::uint64_t t =
        ring_voter_consensus_time(voter_engine, voter_n, voter_rng, cap);
    if (t == cap) ++censored;
    voter_stats.add(static_cast<double>(t));
    Rng dual_rng = seeds.stream(0, static_cast<std::uint64_t>(rep),
                                /*phase=*/1);
    dual_stats.add(static_cast<double>(
        ring_dual_coalescence_time(voter_n, dual_rng, cap)));
  }
  const double dual_seconds = seconds_since(dual_start);

  Table dual_table({"n", "reps", "voter mean T", "dual mean T", "voter/dual",
                    "censored"});
  dual_table.add_row(
      {Table::fmt(voter_n), std::to_string(reps),
       Table::fmt(voter_stats.mean(), 1), Table::fmt(dual_stats.mean(), 1),
       Table::fmt(dual_stats.mean() > 0.0
                      ? voter_stats.mean() / dual_stats.mean()
                      : 0.0,
                  3),
       std::to_string(censored)});
  dual_table.print(std::cout);
  std::printf(
      "\nring duality: consensus from all-wrong =d backward coalescing walks\n"
      "absorbed at the source — the means must track (KS check in\n"
      "tests/engine_topology_test.cc).\n");

  // --- Phase (c): generator set-up. ---------------------------------------
  const std::uint64_t gen_n = options.quick ? (1u << 14) : (1u << 20);
  const std::uint32_t gen_side =
      static_cast<std::uint32_t>(std::llround(std::sqrt(double(gen_n))));
  const std::uint64_t gen_seed = options.seed;
  const std::function<Topology()> generators[] = {
      [&] { return Topology::ring(gen_n); },
      [&] { return Topology::torus(gen_side, 2); },
      [&] { return Topology::random_regular(gen_n, degree, gen_seed + 101); },
      [&] {
        return Topology::erdos_renyi(
            gen_n, 16.0 / static_cast<double>(gen_n), gen_seed + 202);
      },
      [&] { return Topology::barabasi_albert(gen_n, degree, gen_seed + 8); },
  };
  const auto generator_start = std::chrono::steady_clock::now();
  std::vector<GeneratorRow> generator_rows;
  for (const auto& build : generators) {
    generator_rows.push_back(measure_generator(build));
  }
  const double generator_seconds = seconds_since(generator_start);
  Table generator_table({"graph", "edges", "CSR MB", "build s"});
  for (const GeneratorRow& row : generator_rows) {
    generator_table.add_row({row.graph, Table::fmt(row.edges),
                             Table::fmt(row.csr_mb, 2),
                             Table::fmt(row.build_s, 4)});
  }
  generator_table.print(std::cout);
  std::printf(
      "\nbuild s: median of three fresh builds; every generator builds its\n"
      "CSR in place (DESIGN.md 3.10).\n");

  // --- Report. ------------------------------------------------------------
  JsonValue benchmarks = JsonValue::array();
  for (const SpreadRow& row : rows) {
    JsonValue json = JsonValue::object();
    json.set("name", JsonValue(row.name));
    json.set("graph", JsonValue(row.graph));
    json.set("rounds", JsonValue(row.rounds));
    json.set("coverage", JsonValue(row.coverage));
    json.set("seconds", JsonValue(row.seconds));
    json.set("items_per_second", JsonValue(row.items_per_second));
    json.set("ratio_to_complete", JsonValue(vs_complete(row)));
    json.set("backend", JsonValue(row.backend));
    json.set("dispatch_reason", JsonValue(row.reason));
    JsonValue cut = JsonValue::object();
    cut.set("blocks", JsonValue(row.cut.blocks));
    cut.set("cut_edges", JsonValue(row.cut.cut_edges));
    cut.set("internal_edges", JsonValue(row.cut.internal_edges));
    cut.set("cut_fraction", JsonValue(row.cut.cut_fraction));
    json.set("partition_cut", std::move(cut));
    benchmarks.push_back(std::move(json));
  }
  reporter.set_extra("benchmarks", std::move(benchmarks));

  JsonValue duality = JsonValue::object();
  duality.set("n", JsonValue(voter_n));
  duality.set("reps", JsonValue(std::int64_t{reps}));
  duality.set("voter_mean", JsonValue(voter_stats.mean()));
  duality.set("dual_mean", JsonValue(dual_stats.mean()));
  duality.set("ratio", JsonValue(dual_stats.mean() > 0.0
                                     ? voter_stats.mean() / dual_stats.mean()
                                     : 0.0));
  duality.set("censored", JsonValue(std::int64_t{censored}));
  reporter.set_extra("ring_duality", std::move(duality));

  JsonValue generator_json = JsonValue::array();
  for (const GeneratorRow& row : generator_rows) {
    JsonValue json = JsonValue::object();
    json.set("graph", JsonValue(row.graph));
    json.set("edges", JsonValue(row.edges));
    json.set("csr_mb", JsonValue(row.csr_mb));
    json.set("build_s", JsonValue(row.build_s));
    generator_json.push_back(std::move(json));
  }
  reporter.set_extra("generators", std::move(generator_json));

  reporter.add_phase("spread", spread_seconds);
  reporter.add_phase("voter_dual", dual_seconds);
  reporter.add_phase("generators", generator_seconds);
  reporter.add_table("topology_spread", spread_table);
  reporter.add_table("ring_duality", dual_table);
  reporter.add_table("generators", generator_table);
  return 0;
}

}  // namespace
}  // namespace bitspread

int main(int argc, char** argv) {
  return bitspread::run_bench("topology", argc, argv, bitspread::run);
}
