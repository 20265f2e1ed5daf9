// E13 — engine micro-benchmarks (google-benchmark).
//
// Quantifies the design choices DESIGN.md §6 calls out:
//   * the aggregate engine's O(1)-in-n round vs the agent engine's O(n*l);
//   * closed-form aggregate adoption (Voter, Minority, 3-majority) vs the
//     generic Eq. 4 summation;
//   * the cost of the sqrt(n ln n) sample-size regime (O(l) per round).
#include <benchmark/benchmark.h>

#include "core/init.h"
#include "core/stateful.h"
#include "engine/agent.h"
#include "engine/aggregate.h"
#include "engine/kernel/kernel.h"
#include "engine/sequential.h"
#include "engine/sharded.h"
#include "profile/pmu.h"
#include "protocols/minority.h"
#include "protocols/three_majority.h"
#include "protocols/voter.h"
#include "sim/parallel.h"

namespace bitspread {
namespace {

void BM_AggregateStepVoter(benchmark::State& state) {
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  Rng rng(1);
  Configuration config = init_half(n, Opinion::kOne);
  for (auto _ : state) {
    config = engine.step(config, rng);
    benchmark::DoNotOptimize(config.ones);
    // Keep the state away from absorption so every step does real work.
    if (config.is_consensus()) config = init_half(n, Opinion::kOne);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AggregateStepVoter)->Arg(1 << 10)->Arg(1 << 20)->Arg(1 << 30);

void BM_AggregateStepMinority3(benchmark::State& state) {
  const MinorityDynamics minority(3);
  const AggregateParallelEngine engine(minority);
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  Rng rng(2);
  Configuration config = init_half(n, Opinion::kOne);
  for (auto _ : state) {
    config = engine.step(config, rng);
    benchmark::DoNotOptimize(config.ones);
    if (config.is_consensus()) config = init_half(n, Opinion::kOne);
  }
}
BENCHMARK(BM_AggregateStepMinority3)->Arg(1 << 10)->Arg(1 << 20)->Arg(1 << 30);

void BM_AggregateStepMinoritySqrt(benchmark::State& state) {
  const MinorityDynamics minority(SampleSizePolicy::sqrt_n_log_n());
  const AggregateParallelEngine engine(minority);
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  Rng rng(3);
  Configuration config = init_half(n, Opinion::kOne);
  for (auto _ : state) {
    config = engine.step(config, rng);
    benchmark::DoNotOptimize(config.ones);
    if (config.is_consensus()) config = init_half(n, Opinion::kOne);
  }
  state.counters["l"] = minority.sample_size(n);
}
BENCHMARK(BM_AggregateStepMinoritySqrt)->Arg(1 << 14)->Arg(1 << 20);

void BM_AgentStepMinority3(benchmark::State& state) {
  const MinorityDynamics minority(3);
  const MemorylessAsStateful adapter(minority);
  const AgentParallelEngine engine(adapter);
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  Rng rng(4);
  auto population = engine.make_population(init_half(n, Opinion::kOne));
  for (auto _ : state) {
    engine.step(population, rng);
    benchmark::DoNotOptimize(population.views.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AgentStepMinority3)->Arg(1 << 10)->Arg(1 << 14);

// Sharded engine, serial schedule: same workload as BM_AgentStepMinority3 so
// the packed-plane + g-table speedup is read off directly.
void BM_ShardedStepMinority3(benchmark::State& state) {
  const MinorityDynamics minority(3);
  const ShardedAgentEngine engine(minority, {.threads = 1});
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  const SeedSequence seeds(4);
  auto population = engine.make_population(init_half(n, Opinion::kOne));
  std::uint64_t round = 0;
  for (auto _ : state) {
    engine.step(population, round++, seeds);
    benchmark::DoNotOptimize(population.count_ones());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ShardedStepMinority3)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 20);

// Per-kernel-backend rows on the same workload as BM_ShardedStepMinority3:
// the legacy per-agent loop vs the portable scalar-word bitslice kernel vs
// the SIMD backends. The label reports the backend that actually ran, so on
// a host without AVX2/AVX-512F/NEON those rows show their scalar fallback.
void BM_ShardedStepKernelBackend(benchmark::State& state,
                                 kernel::Backend backend) {
  const MinorityDynamics minority(3);
  const ShardedAgentEngine engine(minority,
                                  {.threads = 1, .kernel = backend});
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  const SeedSequence seeds(4);
  auto population = engine.make_population(init_half(n, Opinion::kOne));
  state.SetLabel(kernel::backend_name(engine.step_backend(population)));
  std::uint64_t round = 0;
  for (auto _ : state) {
    engine.step(population, round++, seeds);
    benchmark::DoNotOptimize(population.count_ones());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  // Profiling provenance (kept on the kernel rows HISTORY.jsonl compares):
  // whether this host granted hardware counters.
  state.counters["pmu_available"] =
      profile::thread_counters().available() ? 1.0 : 0.0;
}
BENCHMARK_CAPTURE(BM_ShardedStepKernelBackend, legacy,
                  kernel::Backend::kLegacy)
    ->Arg(1 << 14)
    ->Arg(1 << 17);
BENCHMARK_CAPTURE(BM_ShardedStepKernelBackend, scalar,
                  kernel::Backend::kScalarWord)
    ->Arg(1 << 14)
    ->Arg(1 << 17);
BENCHMARK_CAPTURE(BM_ShardedStepKernelBackend, avx2, kernel::Backend::kAvx2)
    ->Arg(1 << 14)
    ->Arg(1 << 17);
BENCHMARK_CAPTURE(BM_ShardedStepKernelBackend, avx512,
                  kernel::Backend::kAvx512)
    ->Arg(1 << 14)
    ->Arg(1 << 17);
BENCHMARK_CAPTURE(BM_ShardedStepKernelBackend, neon, kernel::Backend::kNeon)
    ->Arg(1 << 14)
    ->Arg(1 << 17);

// Multi-thread scaling of the kernel path at the acceptance workload size:
// sharded_step_threadsN in the perf-trajectory reports.
void BM_ShardedStepThreadsN(benchmark::State& state) {
  const MinorityDynamics minority(3);
  const ShardedAgentEngine engine(
      minority, {.threads = static_cast<unsigned>(state.range(0))});
  const std::uint64_t n = 1 << 17;
  const SeedSequence seeds(4);
  auto population = engine.make_population(init_half(n, Opinion::kOne));
  std::uint64_t round = 0;
  for (auto _ : state) {
    engine.step(population, round++, seeds);
    benchmark::DoNotOptimize(population.count_ones());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["threads"] = static_cast<double>(
      planned_workers(static_cast<int>(n / ShardedAgentEngine::kBlockAgents),
                      static_cast<unsigned>(state.range(0))));
}
BENCHMARK(BM_ShardedStepThreadsN)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)  // 0 = host concurrency
    ->UseRealTime();

// Sharded engine with a worker pool: bit-identical to the serial schedule by
// construction, so this row measures pure scheduling overhead/speedup.
void BM_ShardedStepMinority3MT(benchmark::State& state) {
  const MinorityDynamics minority(3);
  const ShardedAgentEngine engine(
      minority, {.threads = static_cast<unsigned>(state.range(1))});
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  const SeedSequence seeds(4);
  auto population = engine.make_population(init_half(n, Opinion::kOne));
  std::uint64_t round = 0;
  for (auto _ : state) {
    engine.step(population, round++, seeds);
    benchmark::DoNotOptimize(population.count_ones());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_ShardedStepMinority3MT)
    ->Args({1 << 20, 0})   // 0 = hardware concurrency
    ->Args({1 << 20, 2})
    ->Args({1 << 20, 4})
    ->UseRealTime();  // Work happens on pool workers; wall time is the truth.

// Without-replacement sampling past the old l <= 64 cap: Floyd's O(l)
// subset draws on the packed plane.
void BM_ShardedStepWithoutReplacement(benchmark::State& state) {
  const MinorityDynamics minority(
      static_cast<std::uint32_t>(state.range(1)));
  const ShardedAgentEngine engine(
      minority, {.threads = 1,
                 .sampling = ShardedAgentEngine::Sampling::kWithoutReplacement});
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  const SeedSequence seeds(5);
  auto population = engine.make_population(init_half(n, Opinion::kOne));
  std::uint64_t round = 0;
  for (auto _ : state) {
    engine.step(population, round++, seeds);
    benchmark::DoNotOptimize(population.count_ones());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["l"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_ShardedStepWithoutReplacement)
    ->Args({1 << 14, 3})
    ->Args({1 << 14, 101})
    ->Args({1 << 14, 1001});

void BM_SequentialActivation(benchmark::State& state) {
  const MinorityDynamics minority(3);
  const SequentialEngine engine(minority);
  const std::uint64_t n = 1 << 20;
  Rng rng(5);
  Configuration config = init_half(n, Opinion::kOne);
  for (auto _ : state) {
    config = engine.step(config, rng);
    benchmark::DoNotOptimize(config.ones);
  }
}
BENCHMARK(BM_SequentialActivation);

// Ablation: closed-form aggregate adoption vs the generic Eq. 4 walk.
void BM_AdoptionClosedFormMinority(benchmark::State& state) {
  const MinorityDynamics minority(
      static_cast<std::uint32_t>(state.range(0)));
  double p = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        minority.aggregate_adoption(Opinion::kZero, p, 1 << 20));
    p = p < 0.7 ? p + 1e-6 : 0.3;  // Defeat value caching.
  }
}
BENCHMARK(BM_AdoptionClosedFormMinority)->Arg(3)->Arg(63)->Arg(1023);

void BM_AdoptionGenericSumMinority(benchmark::State& state) {
  const MinorityDynamics minority(
      static_cast<std::uint32_t>(state.range(0)));
  double p = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eq4_adoption_sum(minority, Opinion::kZero, p, 1 << 20));
    p = p < 0.7 ? p + 1e-6 : 0.3;
  }
}
BENCHMARK(BM_AdoptionGenericSumMinority)->Arg(3)->Arg(63)->Arg(1023);

void BM_AdoptionClosedFormVoter(benchmark::State& state) {
  const VoterDynamics voter(8);
  double p = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        voter.aggregate_adoption(Opinion::kZero, p, 1 << 20));
    p = p < 0.7 ? p + 1e-6 : 0.3;
  }
}
BENCHMARK(BM_AdoptionClosedFormVoter);

void BM_AdoptionGenericSumVoter(benchmark::State& state) {
  const VoterDynamics voter(8);
  double p = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eq4_adoption_sum(voter, Opinion::kZero, p, 1 << 20));
    p = p < 0.7 ? p + 1e-6 : 0.3;
  }
}
BENCHMARK(BM_AdoptionGenericSumVoter);

}  // namespace
}  // namespace bitspread
