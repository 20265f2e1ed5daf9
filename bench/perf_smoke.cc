// perf_smoke — the machine-readable perf-trajectory probe (registered as a
// ctest, see bench/CMakeLists.txt).
//
// Runs the agent-level engines end-to-end on one fixed workload and writes
// BENCH_engine.json with items/sec counters, so successive PRs can diff the
// repo's throughput the same way EXPERIMENTS.md diffs its science. Kept
// deliberately small (~seconds in --quick mode): it is a smoke probe, not a
// statistics-grade benchmark — bench_micro_engine is the latter.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/init.h"
#include "engine/kernel/kernel.h"
#include "profile/pmu.h"
#include "core/stateful.h"
#include "engine/agent.h"
#include "engine/aggregate.h"
#include "engine/alpha_sync.h"
#include "engine/conflicting.h"
#include "engine/sharded.h"
#include "protocols/minority.h"
#include "sim/cli.h"
#include "sim/parallel.h"
#include "telemetry/reporter.h"

namespace bitspread {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Measurement {
  std::string name;
  unsigned threads_requested = 1;
  unsigned threads = 1;  // Worker count that actually ran (post-clamping).
  double seconds = 0.0;
  double items_per_second = 0.0;
};

// Steps `engine` for `rounds` rounds and reports non-source updates/sec.
// `threads_requested` is the configured worker count (0 = auto); `threads`
// is what the pool really used for this row's fan-out width.
template <typename StepFn>
Measurement measure(const std::string& name, unsigned threads_requested,
                    unsigned threads, std::uint64_t rounds,
                    std::uint64_t items_per_round, StepFn&& step) {
  step(0);  // Warm-up round: sizes every reusable buffer.
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) step(r + 1);
  Measurement m;
  m.name = name;
  m.threads_requested = threads_requested;
  m.threads = threads;
  m.seconds = seconds_since(start);
  m.items_per_second =
      m.seconds > 0.0
          ? static_cast<double>(rounds * items_per_round) / m.seconds
          : 0.0;
  return m;
}

}  // namespace
}  // namespace bitspread

int main(int argc, char** argv) {
  using namespace bitspread;

  bool quick = std::getenv("BITSPREAD_QUICK") != nullptr;
  std::string out_path = "BENCH_engine.json";
  FlightRecorderOptions recorder_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
    recorder_options.parse_flag(arg);
  }
  FlightRecorderScope flight_recorder(recorder_options);

  const std::uint64_t n = quick ? (1u << 14) : (1u << 17);
  const std::uint64_t rounds = quick ? 96 : 256;
  const MinorityDynamics minority(3);
  const std::uint32_t ell = minority.sample_size(n);
  const std::uint64_t updates_per_round = n - 1;  // One source never updates.
  // Affinity-aware usable-CPU count; std::thread::hardware_concurrency()
  // can report 0 or the bare-metal count inside containers.
  const unsigned hw = host_concurrency();
  const Configuration init = init_half(n, Opinion::kOne);
  // The sharded engine fans out one work item per 4096-agent block; that is
  // the clamp that decides how many workers a row can actually occupy.
  const int sharded_items = static_cast<int>(
      (n + ShardedAgentEngine::kBlockAgents - 1) /
      ShardedAgentEngine::kBlockAgents);

  std::vector<Measurement> results;

  {
    const MemorylessAsStateful adapter(minority);
    const AgentParallelEngine engine(adapter);
    auto population = engine.make_population(init);
    Rng rng(1);
    results.push_back(measure("agent_serial_step", 1, 1, rounds,
                              updates_per_round,
                              [&](std::uint64_t) { engine.step(population, rng); }));
  }
  const SeedSequence seeds(2);
  for (const unsigned threads : {1u, hw}) {
    const ShardedAgentEngine engine(minority, {.threads = threads});
    auto population = engine.make_population(init);
    const std::string name =
        threads == 1 ? "sharded_step_threads1" : "sharded_step_threads_hw";
    results.push_back(measure(name, threads,
                              planned_workers(sharded_items, threads), rounds,
                              updates_per_round, [&](std::uint64_t round) {
                                engine.step(population, round, seeds);
                                // O(1): the sharded population tracks its
                                // ones-count incrementally.
                                telemetry::record_round(
                                    round, population.count_ones(), n);
                              }));
    if (hw == 1) break;  // Both configs identical on a single-core host.
  }
  // Per-kernel-backend rows (single-threaded): the legacy per-agent loop,
  // the portable scalar-word kernel, and every SIMD backend this host can
  // run. sharded_step_threads1 above stays the kAuto headline row.
  {
    std::vector<kernel::Backend> row_backends{kernel::Backend::kLegacy};
    for (const kernel::Backend b : kernel::available_backends()) {
      row_backends.push_back(b);
    }
    for (const kernel::Backend backend : row_backends) {
      const ShardedAgentEngine engine(minority,
                                      {.threads = 1, .kernel = backend});
      auto population = engine.make_population(init);
      const std::string name =
          std::string("sharded_step_") + kernel::backend_name(backend);
      results.push_back(measure(name, 1, 1, rounds, updates_per_round,
                                [&](std::uint64_t round) {
                                  engine.step(population, round, seeds);
                                  telemetry::record_round(
                                      round, population.count_ones(), n);
                                }));
    }
  }
  const std::uint64_t agg_rounds = quick ? 20000 : 100000;
  {
    // Aggregate-engine reference: the same dynamics at O(l) per round.
    const AggregateParallelEngine engine(minority);
    Configuration config = init;
    Rng rng(3);
    results.push_back(measure("aggregate_step", 1, 1, agg_rounds, 1,
                              [&](std::uint64_t round) {
                                config = engine.step(config, rng);
                                if (config.is_consensus()) config = init;
                                telemetry::record_round(round, config.ones, n);
                              }));
  }
  {
    // Alpha-synchronous aggregate step: adds the activation-thinning draws.
    const AlphaSynchronousEngine engine(minority, 0.5);
    Configuration config = init;
    Rng rng(4);
    results.push_back(measure("alpha_sync_step", 1, 1, agg_rounds, 1,
                              [&](std::uint64_t round) {
                                config = engine.step(config, rng);
                                if (config.is_consensus()) config = init;
                                telemetry::record_round(round, config.ones, n);
                              }));
  }
  {
    // Conflicting-sources aggregate step: two camps, two binomial splits per
    // round. No reset: with both camps non-empty no consensus exists.
    const ConflictingAggregateEngine engine(minority);
    ConflictingConfiguration config{n, n / 2, 2, 2};
    Rng rng(5);
    results.push_back(measure("conflicting_step", 1, 1, agg_rounds, 1,
                              [&](std::uint64_t round) {
                                config = engine.step(config, rng);
                                telemetry::record_round(round, config.ones, n);
                              }));
  }

  const auto rate = [&results](const char* name) {
    for (const Measurement& m : results) {
      if (m.name == name) return m.items_per_second;
    }
    return 0.0;
  };
  const double serial = rate("agent_serial_step");
  const double sharded1 = rate("sharded_step_threads1");
  const double sharded_hw_rate = rate("sharded_step_threads_hw");
  // Single-core hosts skip the _hw row; fall back to the 1-thread rate so the
  // derived speedups stay well-defined (and equal) there.
  const double sharded_hw = sharded_hw_rate > 0.0 ? sharded_hw_rate : sharded1;
#ifdef NDEBUG
  const char* build_type = "Release";
#else
  const char* build_type = "Debug";
#endif

  JsonReporter reporter("engine");
  reporter.set_seed(0);  // Fixed internal seeds (1, 2, 3); no --seed knob.
  reporter.set_quick(quick);
  reporter.set_workload("protocol", JsonValue("minority"));
  reporter.set_workload("n", JsonValue(n));
  reporter.set_workload("ell", JsonValue(ell));
  reporter.set_workload("rounds", JsonValue(rounds));
  // Profiling provenance: rows must be self-describing so HISTORY.jsonl can
  // tell a PMU-attributed run from a fallback one (bench_history gates only
  // set-comparable metrics).
  const profile::PmuCounterSet& counters = profile::thread_counters();
  const bool pmu_available = counters.available();
  JsonValue benchmarks = JsonValue::array();
  for (const Measurement& m : results) {
    JsonValue row = JsonValue::object();
    row.set("name", JsonValue(m.name));
    row.set("threads", JsonValue(m.threads));
    row.set("threads_requested", JsonValue(m.threads_requested));
    row.set("seconds", JsonValue(m.seconds));
    row.set("items_per_second", JsonValue(m.items_per_second));
    row.set("pmu_available", JsonValue(pmu_available));
    benchmarks.push_back(std::move(row));
    reporter.add_phase(m.name, m.seconds, rounds);
  }
  reporter.set_extra("benchmarks", std::move(benchmarks));
  JsonValue pmu_info = JsonValue::object();
  pmu_info.set("available", JsonValue(pmu_available));
  if (!pmu_available) {
    pmu_info.set("unavailable_reason",
                 JsonValue(counters.unavailable_reason()));
  }
  pmu_info.set("counters_open", JsonValue(counters.counters_open()));
  pmu_info.set("sampling_active", JsonValue(flight_recorder.sampling_active()));
  pmu_info.set("exporter_active", JsonValue(flight_recorder.exporter_active()));
  reporter.set_extra("pmu", std::move(pmu_info));
  JsonValue kernel_info = JsonValue::object();
  kernel_info.set("auto_backend",
                  JsonValue(kernel::backend_name(
                      kernel::resolve(kernel::Backend::kAuto))));
  JsonValue backend_names = JsonValue::array();
  for (const kernel::Backend b : kernel::available_backends()) {
    backend_names.push_back(JsonValue(kernel::backend_name(b)));
  }
  kernel_info.set("available", std::move(backend_names));
  reporter.set_extra("kernel", std::move(kernel_info));
  JsonValue derived = JsonValue::object();
  derived.set("sharded_1t_speedup_vs_agent_serial",
              JsonValue(serial > 0 ? sharded1 / serial : 0.0));
  derived.set("sharded_hw_speedup_vs_agent_serial",
              JsonValue(serial > 0 ? sharded_hw / serial : 0.0));
  const double legacy_rate = rate("sharded_step_legacy");
  derived.set("kernel_speedup_vs_legacy",
              JsonValue(legacy_rate > 0 ? sharded1 / legacy_rate : 0.0));
  reporter.set_extra("derived", std::move(derived));
  const WorkerPoolTelemetry pool = WorkerPool::shared().telemetry();
  JsonValue pool_json = JsonValue::object();
  pool_json.set("generations", JsonValue(pool.generations));
  pool_json.set("items", JsonValue(pool.items));
  pool_json.set("dispatch_seconds",
                JsonValue(static_cast<double>(pool.dispatch_ns) * 1e-9));
  pool_json.set("mean_wake_us",
                JsonValue(pool.generations > 0
                              ? static_cast<double>(pool.wake_ns) * 1e-3 /
                                    static_cast<double>(pool.generations)
                              : 0.0));
  pool_json.set("utilization", JsonValue(pool.utilization()));
  reporter.set_extra("worker_pool", std::move(pool_json));
  if (flight_recorder.recorder() != nullptr) {
    reporter.set_flight_recorder(*flight_recorder.recorder());
  }
  if (!reporter.write_file(out_path)) return 1;

  std::cout << "perf_smoke (" << build_type << ", n=" << n << ", l=" << ell
            << ", host_concurrency=" << hw << ")\n";
  for (const Measurement& m : results) {
    std::printf("  %-26s %2u thread(s)  %10.3f M items/s\n", m.name.c_str(),
                m.threads, m.items_per_second / 1e6);
  }
  std::printf("  sharded/serial speedup: %.2fx (1 thread), %.2fx (%u threads)\n",
              serial > 0 ? sharded1 / serial : 0.0,
              serial > 0 ? sharded_hw / serial : 0.0, hw);
  const double legacy_print_rate = rate("sharded_step_legacy");
  std::printf("  kernel/legacy speedup:  %.2fx (auto backend: %s)\n",
              legacy_print_rate > 0 ? sharded1 / legacy_print_rate : 0.0,
              kernel::backend_name(kernel::resolve(kernel::Backend::kAuto)));
  std::cout << "wrote " << out_path << "\n";
#ifndef NDEBUG
  std::cout << "WARNING: Debug build — numbers are not comparable with the "
               "recorded perf trajectory.\n";
#endif
  return 0;
}
