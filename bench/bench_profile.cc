// bench_profile — the hardware-counter attribution probe (registered as a
// ctest, see bench/CMakeLists.txt).
//
// Runs the sharded engine through the RunDriver once per kernel backend
// (legacy + every backend this host can dispatch) with the PMU sink and the
// phase sink installed, and writes BENCH_profile.json: per-backend
// gather/decide/fault/commit sub-phase rows with cycles, instructions, IPC,
// and LLC-miss-per-agent-step — the numbers ROADMAP item 1 needs to steer
// the gather vectorization. See DESIGN.md §3.8 for the fallback ladder;
// on a no-PMU host the report is still valid and carries
// pmu_available:false (rows degrade to wall time + rdtsc cycles).
//
// Each backend is ALSO run without any sink installed and the final
// configurations are compared: profiling must never perturb a simulation
// (the kernel golden digests pin the same property at full depth).
#include <cstdio>
#include <cstring>
#include <deque>
#include <iostream>
#include <string>
#include <vector>

#include "core/init.h"
#include "engine/kernel/kernel.h"
#include "engine/sharded.h"
#include "engine/stopping.h"
#include "profile/counters.h"
#include "profile/pmu.h"
#include "protocols/minority.h"
#include "sim/cli.h"
#include "telemetry/reporter.h"

namespace bitspread {
namespace {

// The four kernel sub-phases, report order.
constexpr telemetry::Phase kSubPhases[] = {
    telemetry::Phase::kKernelGather,
    telemetry::Phase::kKernelFault,
    telemetry::Phase::kKernelDecide,
    telemetry::Phase::kKernelCommit,
};

struct BackendProfile {
  kernel::Backend backend = kernel::Backend::kLegacy;
  double seconds = 0.0;
  std::uint64_t agent_steps = 0;
  std::uint64_t final_ones = 0;
  bool identical_unprofiled = false;
  telemetry::PhaseStats phases;
  profile::PmuPhaseStats pmu;
  // Whole-run counter delta of the driver thread (meaningful in every
  // build; exact for this bench because it runs threads=1 workloads whose
  // pool inlines single-item generations onto the caller).
  profile::CounterDelta total;
};

}  // namespace
}  // namespace bitspread

int main(int argc, char** argv) {
  using namespace bitspread;

  BenchOptions options = parse_bench_options(argc, argv);
  const std::string out_path =
      options.json_path.value_or("BENCH_profile.json");
  FlightRecorderScope flight_recorder(options.recorder);

  const std::uint64_t n = options.quick ? (1u << 14) : (1u << 16);
  const std::uint64_t rounds = options.quick ? 64 : 256;
  const MinorityDynamics minority(3);
  const std::uint32_t ell = minority.sample_size(n);
  const Configuration init = init_half(n, Opinion::kOne);
  // Fixed work: never stop on consensus, so every backend runs exactly
  // `rounds` rounds and rows are load-comparable.
  StopRule rule;
  rule.max_rounds = rounds;
  rule.stop_on_any_consensus = false;
  const std::uint64_t seed = options.seed != 0 ? options.seed : 7;

  profile::PmuCounterSet& counters = profile::thread_counters();
  const bool pmu_available = counters.available();

  std::vector<kernel::Backend> backends{kernel::Backend::kLegacy};
  for (const kernel::Backend b : kernel::available_backends()) {
    backends.push_back(b);
  }

  // deque: BackendProfile embeds atomics (immovable); elements are built in
  // place and never relocated.
  std::deque<BackendProfile> profiles;
  for (const kernel::Backend backend : backends) {
    const ShardedAgentEngine engine(minority, {.threads = 1, .kernel = backend});

    // Reference run, no sinks: the payload profiling must not perturb.
    const RunResult reference = engine.run(init, rule, seed);

    BackendProfile& profile = profiles.emplace_back();
    profile.backend = backend;
    profile::CounterSnapshot begin;
    profile::CounterSnapshot end;
    RunResult result;
    {
      const telemetry::SinkScope sinks(
          {.phases = &profile.phases, .pmu = &profile.pmu});
      counters.read(begin);
      const auto start = telemetry::clock_now_ns();
      result = engine.run(init, rule, seed);
      profile.seconds =
          static_cast<double>(telemetry::clock_now_ns() - start) * 1e-9;
      counters.read(end);
    }

    profile.total = counters.delta(begin, end);
    profile.agent_steps = result.rounds() * (n - init.sources);
    profile.final_ones = result.final_config.ones;
    profile.identical_unprofiled =
        result.final_config.ones == reference.final_config.ones &&
        result.ticks == reference.ticks;
    if (!profile.identical_unprofiled) {
      std::cerr << "FATAL: profiled run diverged from unprofiled run on "
                << kernel::backend_name(backend) << "\n";
      return 1;
    }
  }

  // Sub-phase markers exist where the backend ran the word-parallel kernel
  // (the legacy loop has none).
  const auto has_markers = [](const BackendProfile& p) {
    return p.backend != kernel::Backend::kLegacy;
  };

  JsonReporter reporter("profile");
  reporter.set_seed(seed);
  reporter.set_quick(options.quick);
  reporter.set_workload("protocol", JsonValue("minority"));
  reporter.set_workload("n", JsonValue(n));
  reporter.set_workload("ell", JsonValue(ell));
  reporter.set_workload("rounds", JsonValue(rounds));

  JsonValue pmu_info = JsonValue::object();
  pmu_info.set("available", JsonValue(pmu_available));
  if (!pmu_available) {
    pmu_info.set("unavailable_reason", JsonValue(counters.unavailable_reason()));
  }
  pmu_info.set("counters_open", JsonValue(counters.counters_open()));
  pmu_info.set("sampling_active", JsonValue(flight_recorder.sampling_active()));
  pmu_info.set("exporter_active", JsonValue(flight_recorder.exporter_active()));
  reporter.set_extra("pmu", std::move(pmu_info));

  JsonValue rows = JsonValue::array();
  for (const BackendProfile& p : profiles) {
    JsonValue row = JsonValue::object();
    row.set("backend", JsonValue(kernel::backend_name(p.backend)));
    row.set("pmu_available", JsonValue(pmu_available));
    row.set("subphase_markers", JsonValue(has_markers(p)));
    row.set("seconds", JsonValue(p.seconds));
    row.set("agent_steps", JsonValue(p.agent_steps));
    row.set("agent_steps_per_second",
            JsonValue(p.seconds > 0.0
                          ? static_cast<double>(p.agent_steps) / p.seconds
                          : 0.0));
    row.set("identical_to_unprofiled", JsonValue(p.identical_unprofiled));

    // Whole-run driver-thread totals (every build, every host).
    JsonValue total = JsonValue::object();
    total.set("wall_seconds", JsonValue(static_cast<double>(p.total.wall_ns) * 1e-9));
    for (int c = 0; c < profile::kCounterCount; ++c) {
      if (!p.total.valid[static_cast<std::size_t>(c)]) continue;
      total.set(profile::counter_name(static_cast<profile::Counter>(c)),
                JsonValue(p.total.value[static_cast<std::size_t>(c)]));
    }
    if (p.total.ipc() > 0.0) total.set("ipc", JsonValue(p.total.ipc()));
    if (p.total.multiplexed) total.set("multiplexed", JsonValue(true));
    row.set("run_total", std::move(total));

    // The gather/fault/decide/commit split (kernel rows).
    if (has_markers(p)) {
      double kernel_wall = 0.0;
      for (const telemetry::Phase phase : kSubPhases) {
        kernel_wall += p.phases.total_seconds(phase);
      }
      JsonValue subs = JsonValue::array();
      for (const telemetry::Phase phase : kSubPhases) {
        JsonValue sub = JsonValue::object();
        // "kernel_gather" -> "gather": rows read like the ISSUE vocabulary.
        const char* name = telemetry::phase_name(phase);
        sub.set("sub_phase", JsonValue(std::strncmp(name, "kernel_", 7) == 0
                                           ? name + 7
                                           : name));
        const double wall = p.phases.total_seconds(phase);
        sub.set("wall_seconds", JsonValue(wall));
        sub.set("wall_share",
                JsonValue(kernel_wall > 0.0 ? wall / kernel_wall : 0.0));
        sub.set("samples", JsonValue(p.pmu.samples(phase)));
        for (int c = 0; c < profile::kCounterCount; ++c) {
          const auto counter = static_cast<profile::Counter>(c);
          if (!p.pmu.counted(phase, counter)) continue;
          sub.set(profile::counter_name(counter),
                  JsonValue(p.pmu.total(phase, counter)));
        }
        if (p.pmu.pmu_backed()) {
          const double ipc = p.pmu.ipc(phase);
          if (ipc > 0.0) sub.set("ipc", JsonValue(ipc));
          if (p.pmu.counted(phase, profile::Counter::kLlcMisses) &&
              p.agent_steps > 0) {
            sub.set("llc_miss_per_agent_step",
                    JsonValue(static_cast<double>(p.pmu.total(
                                  phase, profile::Counter::kLlcMisses)) /
                              static_cast<double>(p.agent_steps)));
          }
          if (p.pmu.counted(phase, profile::Counter::kLlcMisses) &&
              p.pmu.counted(phase, profile::Counter::kInstructions) &&
              p.pmu.total(phase, profile::Counter::kInstructions) > 0) {
            sub.set("mpki",
                    JsonValue(1000.0 *
                              static_cast<double>(p.pmu.total(
                                  phase, profile::Counter::kLlcMisses)) /
                              static_cast<double>(p.pmu.total(
                                  phase, profile::Counter::kInstructions))));
          }
        }
        subs.push_back(std::move(sub));
      }
      row.set("sub_phases", std::move(subs));
    }

    // Full per-phase dump (driver phases + sub-phases) for tooling.
    row.set("pmu_phases",
            profile::pmu_stats_to_json(p.pmu, pmu_available,
                                       counters.unavailable_reason()));
    rows.push_back(std::move(row));

    reporter.add_phase(std::string("profile_") +
                           kernel::backend_name(p.backend),
                       p.seconds, rounds);
  }
  reporter.set_extra("profiles", std::move(rows));
  if (flight_recorder.recorder() != nullptr) {
    reporter.set_flight_recorder(*flight_recorder.recorder());
  }
  if (!reporter.write_file(out_path)) return 1;

  std::cout << "bench_profile (n=" << n << ", l=" << ell
            << ", rounds=" << rounds << ", pmu="
            << (pmu_available ? "available" : "fallback") << ")\n";
  for (const BackendProfile& p : profiles) {
    std::printf("  %-12s %8.3f M agent-steps/s\n",
                kernel::backend_name(p.backend),
                p.seconds > 0.0
                    ? static_cast<double>(p.agent_steps) / p.seconds / 1e6
                    : 0.0);
    if (!has_markers(p)) continue;
    double kernel_wall = 0.0;
    for (const telemetry::Phase phase : kSubPhases) {
      kernel_wall += p.phases.total_seconds(phase);
    }
    for (const telemetry::Phase phase : kSubPhases) {
      const double wall = p.phases.total_seconds(phase);
      std::printf("    %-14s %6.1f%%  %.4fs\n", telemetry::phase_name(phase),
                  kernel_wall > 0.0 ? 100.0 * wall / kernel_wall : 0.0, wall);
    }
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
