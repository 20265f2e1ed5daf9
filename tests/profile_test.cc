// Tests for the §3.8 profiling subsystem: the multiplex-scaling core, the
// fallback ladder, per-phase PMU accumulation, the JSON rendering, the
// sampling profiler, and — the property everything else leans on — that a
// profiled run is bit-identical to an unprofiled one.
//
// The suite runs green on the host's rung and under BITSPREAD_NO_PMU=1
// (forced fallback rung; the dedicated ctest variant in CMakeLists sets it).
#include "profile/counters.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/init.h"
#include "engine/kernel/kernel.h"
#include "engine/sharded.h"
#include "engine/stopping.h"
#include "profile/pmu.h"
#include "profile/sampling.h"
#include "protocols/minority.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace profile {
namespace {

CounterSnapshot snap(std::uint64_t cycles, std::uint64_t instructions,
                     std::uint64_t enabled_ns, std::uint64_t running_ns,
                     std::uint64_t wall_ns, std::uint64_t tsc = 0) {
  CounterSnapshot s;
  s.value[static_cast<std::size_t>(Counter::kCycles)] = cycles;
  s.value[static_cast<std::size_t>(Counter::kInstructions)] = instructions;
  s.time_enabled_ns = enabled_ns;
  s.time_running_ns = running_ns;
  s.wall_ns = wall_ns;
  s.tsc = tsc;
  return s;
}

std::array<bool, kCounterCount> open_mask(bool cycles, bool instructions) {
  std::array<bool, kCounterCount> open{};
  open[static_cast<std::size_t>(Counter::kCycles)] = cycles;
  open[static_cast<std::size_t>(Counter::kInstructions)] = instructions;
  return open;
}

// --------------------------------------------------------------------------
// scale_delta: the pure multiplex-scaling core.

TEST(ScaleDelta, UnmultiplexedPassesRawCounts) {
  const CounterSnapshot begin = snap(1000, 2000, 5000, 5000, 100);
  const CounterSnapshot end = snap(1500, 3200, 9000, 9000, 400);
  const CounterDelta d =
      scale_delta(begin, end, open_mask(true, true), /*pmu=*/true);
  EXPECT_TRUE(d.pmu);
  EXPECT_FALSE(d.multiplexed);
  EXPECT_DOUBLE_EQ(d.scale, 1.0);
  EXPECT_EQ(d.value[static_cast<std::size_t>(Counter::kCycles)], 500u);
  EXPECT_EQ(d.value[static_cast<std::size_t>(Counter::kInstructions)], 1200u);
  EXPECT_TRUE(d.valid[static_cast<std::size_t>(Counter::kCycles)]);
  EXPECT_TRUE(d.valid[static_cast<std::size_t>(Counter::kInstructions)]);
  EXPECT_EQ(d.wall_ns, 300u);
  EXPECT_DOUBLE_EQ(d.ipc(), 1200.0 / 500.0);
}

TEST(ScaleDelta, MultiplexedCountsAreScaledAndFlagged) {
  // The group was on the PMU for half its enabled window: the standard
  // perf estimate doubles the raw counts and flags the row.
  const CounterSnapshot begin = snap(0, 0, 0, 0, 0);
  const CounterSnapshot end = snap(1000, 3000, 8000, 4000, 100);
  const CounterDelta d =
      scale_delta(begin, end, open_mask(true, true), /*pmu=*/true);
  EXPECT_TRUE(d.multiplexed);
  EXPECT_DOUBLE_EQ(d.scale, 2.0);
  EXPECT_EQ(d.value[static_cast<std::size_t>(Counter::kCycles)], 2000u);
  EXPECT_EQ(d.value[static_cast<std::size_t>(Counter::kInstructions)], 6000u);
  // IPC is scale-invariant: both sides were scaled by the same factor.
  EXPECT_DOUBLE_EQ(d.ipc(), 3.0);
}

TEST(ScaleDelta, ClosedCountersAreInvalid) {
  // Rung 2: instructions never opened — its slot must stay invalid and
  // the IPC must refuse to divide.
  const CounterSnapshot begin = snap(100, 999, 10, 10, 0);
  const CounterSnapshot end = snap(400, 999, 20, 20, 0);
  const CounterDelta d =
      scale_delta(begin, end, open_mask(true, false), /*pmu=*/true);
  EXPECT_TRUE(d.valid[static_cast<std::size_t>(Counter::kCycles)]);
  EXPECT_FALSE(d.valid[static_cast<std::size_t>(Counter::kInstructions)]);
  EXPECT_DOUBLE_EQ(d.ipc(), 0.0);
}

TEST(ScaleDelta, FallbackRungUsesTscAndWall) {
  // Rung 3: no PMU. Cycles come from the tsc pair (when the ISA has one),
  // wall time always survives, and nothing else is valid.
  const CounterSnapshot begin = snap(0, 0, 0, 0, 1000, 5000);
  const CounterSnapshot end = snap(0, 0, 0, 0, 4000, 9000);
  const CounterDelta d =
      scale_delta(begin, end, open_mask(false, false), /*pmu=*/false);
  EXPECT_FALSE(d.pmu);
  EXPECT_FALSE(d.multiplexed);
  EXPECT_EQ(d.wall_ns, 3000u);
  EXPECT_TRUE(d.valid[static_cast<std::size_t>(Counter::kCycles)]);
  EXPECT_EQ(d.value[static_cast<std::size_t>(Counter::kCycles)], 4000u);
  EXPECT_FALSE(d.valid[static_cast<std::size_t>(Counter::kInstructions)]);
  EXPECT_DOUBLE_EQ(d.ipc(), 0.0);
}

TEST(ScaleDelta, BackwardsClocksClampToZero) {
  // A torn read pair (end < begin) must clamp, never wrap to 2^64-ish.
  const CounterSnapshot begin = snap(500, 0, 100, 100, 900, 70);
  const CounterSnapshot end = snap(400, 0, 90, 90, 800, 60);
  const CounterDelta pmu_d =
      scale_delta(begin, end, open_mask(true, false), /*pmu=*/true);
  EXPECT_EQ(pmu_d.value[static_cast<std::size_t>(Counter::kCycles)], 0u);
  EXPECT_EQ(pmu_d.wall_ns, 0u);
  const CounterDelta fb =
      scale_delta(begin, end, open_mask(false, false), /*pmu=*/false);
  EXPECT_FALSE(fb.valid[static_cast<std::size_t>(Counter::kCycles)]);
}

// --------------------------------------------------------------------------
// PmuCounterSet: the ladder on this host, and the forced fallback.

TEST(PmuCounterSet, ReadsAreMonotoneOnEveryRung) {
  PmuCounterSet& set = thread_counters();
  if (!set.available()) {
    EXPECT_STRNE(set.unavailable_reason(), "")
        << "fallback rung must explain itself";
  }
  CounterSnapshot a;
  CounterSnapshot b;
  set.read(a);
  // Burn a little CPU so every clock moves.
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink += static_cast<std::uint64_t>(i);
  set.read(b);
  EXPECT_GE(b.wall_ns, a.wall_ns);
  const CounterDelta d = set.delta(a, b);
  EXPECT_EQ(d.pmu, set.available());
  EXPECT_GT(d.wall_ns, 0u);
  if (set.available()) {
    EXPECT_TRUE(d.valid[static_cast<std::size_t>(Counter::kCycles)]);
    EXPECT_GT(d.value[static_cast<std::size_t>(Counter::kCycles)], 0u);
  }
}

TEST(PmuCounterSet, ForcedFallbackViaEnvironment) {
  // BITSPREAD_NO_PMU=1 must force rung 3 regardless of the host. A fresh
  // set is constructed under the override (thread_counters() may already
  // have latched the host's real rung).
  ASSERT_EQ(setenv("BITSPREAD_NO_PMU", "1", 1), 0);
  {
    PmuCounterSet forced;
    EXPECT_FALSE(forced.available());
    EXPECT_STREQ(forced.unavailable_reason(), "BITSPREAD_NO_PMU=1");
    EXPECT_EQ(forced.counters_open(), 0);
    CounterSnapshot a;
    CounterSnapshot b;
    forced.read(a);
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 100000; ++i) sink += static_cast<std::uint64_t>(i);
    forced.read(b);
    const CounterDelta d = forced.delta(a, b);
    EXPECT_FALSE(d.pmu);
    EXPECT_GT(d.wall_ns, 0u);
  }
  unsetenv("BITSPREAD_NO_PMU");
}

// --------------------------------------------------------------------------
// PmuPhaseStats: per-phase accumulation and JSON rendering.

CounterDelta synthetic_delta(std::uint64_t cycles, std::uint64_t instructions,
                             bool multiplexed) {
  CounterDelta d;
  d.value[static_cast<std::size_t>(Counter::kCycles)] = cycles;
  d.valid[static_cast<std::size_t>(Counter::kCycles)] = true;
  d.value[static_cast<std::size_t>(Counter::kInstructions)] = instructions;
  d.valid[static_cast<std::size_t>(Counter::kInstructions)] = true;
  d.wall_ns = 50;
  d.multiplexed = multiplexed;
  d.pmu = true;
  return d;
}

TEST(PmuPhaseStats, AccumulatesPerPhase) {
  PmuPhaseStats stats;
  const auto gather = telemetry::Phase::kKernelGather;
  const auto decide = telemetry::Phase::kKernelDecide;
  stats.add(gather, synthetic_delta(100, 250, false));
  stats.add(gather, synthetic_delta(300, 350, false));
  stats.add(decide, synthetic_delta(10, 40, true));

  EXPECT_EQ(stats.samples(gather), 2u);
  EXPECT_EQ(stats.total(gather, Counter::kCycles), 400u);
  EXPECT_EQ(stats.total(gather, Counter::kInstructions), 600u);
  EXPECT_EQ(stats.wall_ns(gather), 100u);
  EXPECT_DOUBLE_EQ(stats.ipc(gather), 1.5);
  EXPECT_FALSE(stats.multiplexed(gather));
  EXPECT_TRUE(stats.multiplexed(decide));
  EXPECT_DOUBLE_EQ(stats.ipc(decide), 4.0);
  EXPECT_TRUE(stats.pmu_backed());
  // Phases never recorded stay empty.
  EXPECT_EQ(stats.samples(telemetry::Phase::kFaultApply), 0u);
  EXPECT_DOUBLE_EQ(stats.ipc(telemetry::Phase::kFaultApply), 0.0);

  stats.reset();
  EXPECT_EQ(stats.samples(gather), 0u);
  EXPECT_EQ(stats.total(gather, Counter::kCycles), 0u);
  EXPECT_FALSE(stats.pmu_backed());
}

TEST(PmuPhaseStats, JsonCarriesPhasesAndFallbackStamp) {
  PmuPhaseStats stats;
  stats.add(telemetry::Phase::kKernelGather, synthetic_delta(100, 220, false));
  const JsonValue with_pmu = pmu_stats_to_json(stats, true, "");
  const std::string dumped = with_pmu.dump();
  EXPECT_NE(dumped.find("\"pmu_available\": true"), std::string::npos);
  EXPECT_NE(dumped.find("kernel_gather"), std::string::npos);
  EXPECT_NE(dumped.find("\"ipc\""), std::string::npos);
  // Zero-sample phases are skipped.
  EXPECT_EQ(dumped.find("round_step"), std::string::npos);

  PmuPhaseStats empty;
  const JsonValue without =
      pmu_stats_to_json(empty, false, "BITSPREAD_NO_PMU=1");
  const std::string fallback = without.dump();
  EXPECT_NE(fallback.find("\"pmu_available\": false"), std::string::npos);
  EXPECT_NE(fallback.find("BITSPREAD_NO_PMU=1"), std::string::npos);
}

// --------------------------------------------------------------------------
// Probes: sink discipline and bit-identity.

TEST(Probes, KernelBlockProfilerRecordsOnlyWhenSinked) {
  PmuPhaseStats pmu_stats;
  telemetry::PhaseStats phase_stats;
  {
    // Resolved with no sink installed, a profiler stays dormant for its
    // whole block, even if a sink appears meanwhile.
    KernelBlockProfiler dormant;
    const telemetry::SinkScope scope(
        {.phases = &phase_stats, .pmu = &pmu_stats});
    dormant.enter(telemetry::Phase::kKernelFault);
    dormant.leave();
  }
  EXPECT_EQ(pmu_stats.samples(telemetry::Phase::kKernelFault), 0u);
  EXPECT_EQ(phase_stats.count(telemetry::Phase::kKernelFault), 0u);
  {
    const telemetry::SinkScope scope(
        {.phases = &phase_stats, .pmu = &pmu_stats});
    KernelBlockProfiler prof;
    prof.enter(telemetry::Phase::kKernelGather);
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 10000; ++i) sink += static_cast<std::uint64_t>(i);
    prof.enter(telemetry::Phase::kKernelCommit);
    for (int i = 0; i < 10000; ++i) sink += static_cast<std::uint64_t>(i);
    prof.leave();
  }

  EXPECT_EQ(pmu_stats.samples(telemetry::Phase::kKernelGather), 1u);
  EXPECT_EQ(pmu_stats.samples(telemetry::Phase::kKernelCommit), 1u);
  EXPECT_GT(phase_stats.total_seconds(telemetry::Phase::kKernelGather), 0.0);
  // pmu_backed mirrors the host's rung: hardware deltas or wall-only.
  EXPECT_EQ(pmu_stats.pmu_backed(), thread_counters().available());
}

TEST(Probes, ProfiledRunIsBitIdentical) {
  // The load-bearing property: installing both sinks must not change a
  // single RNG draw. Golden digests pin the same thing at full depth; this
  // is the fast in-tree version over every available backend.
  const std::uint64_t n = 1u << 10;
  const MinorityDynamics minority(3);
  const Configuration init = init_half(n, Opinion::kOne);
  StopRule rule;
  rule.max_rounds = 16;
  rule.stop_on_any_consensus = false;

  std::vector<kernel::Backend> backends{kernel::Backend::kLegacy};
  for (const kernel::Backend b : kernel::available_backends()) {
    backends.push_back(b);
  }
  for (const kernel::Backend backend : backends) {
    const ShardedAgentEngine engine(minority,
                                    {.threads = 1, .kernel = backend});
    const RunResult plain = engine.run(init, rule, /*seed=*/42);

    PmuPhaseStats pmu_stats;
    telemetry::PhaseStats phase_stats;
    RunResult profiled;
    {
      const telemetry::SinkScope scope(
          {.phases = &phase_stats, .pmu = &pmu_stats});
      profiled = engine.run(init, rule, /*seed=*/42);
    }

    EXPECT_EQ(profiled.final_config.ones, plain.final_config.ones)
        << "backend " << kernel::backend_name(backend);
    EXPECT_EQ(profiled.ticks, plain.ticks)
        << "backend " << kernel::backend_name(backend);
    if (backend != kernel::Backend::kLegacy) {
      EXPECT_GT(pmu_stats.samples(telemetry::Phase::kKernelGather), 0u)
          << "kernel backends must record sub-phase samples";
    }
  }
}

// --------------------------------------------------------------------------
// SamplingProfiler

TEST(SamplingProfiler, CollectsAndFoldsSamples) {
  SamplingProfiler profiler;
#if !defined(__linux__)
  EXPECT_FALSE(profiler.start(97));
  EXPECT_STRNE(profiler.why(), "");
  return;
#else
  ASSERT_TRUE(profiler.start(997)) << profiler.why();
  EXPECT_TRUE(profiler.running());
  // ITIMER_PROF ticks on consumed CPU time: spin until samples land (997 Hz
  // → ~1 ms of CPU each; the loop bounds total work at a few CPU-seconds).
  volatile std::uint64_t sink = 0;
  for (std::uint64_t spin = 0;
       profiler.samples_taken() < 3 && spin < 4'000'000'000ull; ++spin) {
    sink += spin;
  }
  profiler.stop();
  EXPECT_FALSE(profiler.running());
  ASSERT_GE(profiler.samples_taken(), 1u);
  const std::string folded = profiler.folded();
  ASSERT_FALSE(folded.empty());
  // Every line is "stack count\n" with a positive count.
  const std::string line = folded.substr(0, folded.find('\n'));
  const std::size_t space = line.rfind(' ');
  ASSERT_NE(space, std::string::npos) << line;
  EXPECT_GT(std::atoll(line.c_str() + space + 1), 0) << line;
#endif
}

TEST(SamplingProfiler, SecondProfilerIsRefused) {
#if defined(__linux__)
  SamplingProfiler first;
  ASSERT_TRUE(first.start(97)) << first.why();
  SamplingProfiler second;
  EXPECT_FALSE(second.start(97));
  EXPECT_STRNE(second.why(), "");
  first.stop();
  // Once the owner stopped, a new profiler may start again.
  SamplingProfiler third;
  EXPECT_TRUE(third.start(97)) << third.why();
  third.stop();
#endif
}

}  // namespace
}  // namespace profile
}  // namespace bitspread
