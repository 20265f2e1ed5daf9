// The topology seam end-to-end: a complete-graph handle is BIT-identical to
// the pre-topology engines (null handle); the bitslice kernel engages on
// every graph family (only a fractional g-table still takes the legacy
// loop); its graph form — kernel/2 over CSR rows — is pinned by a scalar
// golden matrix that every SIMD backend reproduces, is bit-identical across
// thread/shard counts, and matches the legacy loop in law (one-step counts
// and crossing times); a faulty graph run checkpoint/restores
// digest-identically while a mismatched graph is refused; and Voter
// consensus times match the backward coalescing-random-walk dual on every
// family (the E1 dual of tests/engine_cross_validation_test.cc, extended
// off the complete graph).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <string>
#include <vector>

#include "core/configuration.h"
#include "core/init.h"
#include "core/stateful.h"
#include "engine/agent.h"
#include "engine/sharded.h"
#include "engine/stopping.h"
#include "engine/trajectory.h"
#include "faults/environment.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "random/rng.h"
#include "snapshot/checkpoint.h"
#include "snapshot/format.h"
#include "snapshot/state.h"
#include "stats/ks.h"
#include "topology/topology.h"

namespace bitspread {
namespace {

class ScopedCheckpointer {
 public:
  explicit ScopedCheckpointer(snapshot::Checkpointer* checkpointer) {
    snapshot::install_checkpointer(checkpointer);
  }
  ~ScopedCheckpointer() {
    snapshot::install_checkpointer(nullptr);
    snapshot::clear_interrupt();
  }
};

std::string fresh_ring_base(const std::string& name) {
  const std::string base = testing::TempDir() + "bitspread_topo_" + name;
  for (std::uint32_t slot = 0; slot < 256; ++slot) {
    std::remove((base + "." + std::to_string(slot) + ".snap").c_str());
  }
  return base;
}

std::string ring_file_for_round(const snapshot::Checkpointer& ring,
                                std::uint64_t round) {
  for (std::uint32_t slot = 0; slot < ring.options().ring; ++slot) {
    const std::string path = ring.ring_entry_path(slot);
    const auto file = snapshot::SnapshotFile::load(path);
    if (!file) continue;
    snapshot::RunSnapshot snap;
    if (snapshot::RunSnapshot::decode(*file, snap) && snap.round == round) {
      return path;
    }
  }
  return {};
}

// All-wrong start: the lone stubborn source is the only correct agent.
Configuration all_wrong(std::uint64_t n) {
  return Configuration{n, 1, Opinion::kOne, 1};
}

StopRule capped(std::uint64_t max_rounds) {
  StopRule rule;
  rule.max_rounds = max_rounds;
  return rule;
}

// --- Bit-identity of the complete-graph handle ---------------------------

TEST(TopologySeam, CompleteHandleIsBitIdenticalOnAgentEngine) {
  const MinorityDynamics minority(3);
  const MemorylessAsStateful adapter(minority);
  const Topology complete = Topology::complete(1000);
  const AgentParallelEngine null_handle(adapter);
  const AgentParallelEngine explicit_handle(
      adapter, AgentParallelEngine::Sampling::kWithReplacement, &complete);
  const Configuration init = init_fraction_ones(1000, Opinion::kOne, 0.5);
  Rng rng_a(7), rng_b(7);
  const RunResult a = null_handle.run(init, capped(50), rng_a);
  const RunResult b = explicit_handle.run(init, capped(50), rng_b);
  EXPECT_EQ(snapshot::payload_digest(a), snapshot::payload_digest(b));
  EXPECT_EQ(rng_a(), rng_b()) << "draw sequences diverged";
}

TEST(TopologySeam, CompleteHandleIsBitIdenticalOnAgentEngineDistinct) {
  const MinorityDynamics minority(3);
  const MemorylessAsStateful adapter(minority);
  const Topology complete = Topology::complete(1000);
  const AgentParallelEngine null_handle(
      adapter, AgentParallelEngine::Sampling::kWithoutReplacement);
  const AgentParallelEngine explicit_handle(
      adapter, AgentParallelEngine::Sampling::kWithoutReplacement, &complete);
  const Configuration init = init_fraction_ones(1000, Opinion::kOne, 0.5);
  Rng rng_a(8), rng_b(8);
  const RunResult a = null_handle.run(init, capped(50), rng_a);
  const RunResult b = explicit_handle.run(init, capped(50), rng_b);
  EXPECT_EQ(snapshot::payload_digest(a), snapshot::payload_digest(b));
  EXPECT_EQ(rng_a(), rng_b()) << "draw sequences diverged";
}

TEST(TopologySeam, CompleteHandleIsBitIdenticalOnShardedEngine) {
  const MinorityDynamics minority(3);
  const Topology complete = Topology::complete(1 << 13);
  const Configuration init =
      init_fraction_ones(1 << 13, Opinion::kOne, 0.5);
  // Both the legacy per-agent loop and the kAuto bitslice path must be
  // unaffected by an explicit complete handle.
  for (const kernel::Backend backend :
       {kernel::Backend::kLegacy, kernel::Backend::kAuto}) {
    const ShardedAgentEngine null_handle(minority,
                                         {.threads = 2, .kernel = backend});
    const ShardedAgentEngine explicit_handle(
        minority,
        {.threads = 2, .kernel = backend, .topology = &complete});
    EXPECT_EQ(
        snapshot::payload_digest(null_handle.run(init, capped(40), 99)),
        snapshot::payload_digest(explicit_handle.run(init, capped(40), 99)))
        << "backend " << static_cast<int>(backend);
  }
}

// --- Kernel dispatch eligibility -----------------------------------------

TEST(TopologySeam, KernelStillEngagesOnCompleteGraph) {
  const MinorityDynamics minority(3);
  const Topology complete = Topology::complete(1 << 12);
  const ShardedAgentEngine engine(minority,
                                  {.threads = 1, .topology = &complete});
  auto population =
      engine.make_population(init_fraction_ones(1 << 12, Opinion::kOne, 0.5));
  const ShardedAgentEngine::KernelDispatch dispatch =
      engine.step_dispatch(population);
  EXPECT_NE(dispatch.backend, kernel::Backend::kLegacy);
  EXPECT_STREQ(dispatch.reason, "eligible");
}

// --- The kernel on graphs --------------------------------------------------

// One small graph per structured family, for dispatch and law checks.
struct Family {
  const char* name;
  Topology topology;
};

std::vector<Family> small_families() {
  return {{"ring", Topology::ring(64)},
          {"torus", Topology::torus(8, 2)},
          {"random_regular", Topology::random_regular(64, 4, 5)},
          {"erdos_renyi", Topology::erdos_renyi(96, 0.1, 6)},
          {"barabasi_albert", Topology::barabasi_albert(80, 2, 7)}};
}

TEST(TopologySeam, KernelEngagesOnEveryFamily) {
  const MinorityDynamics minority(3);
  for (const Family& family : small_families()) {
    for (const auto sampling :
         {AgentParallelEngine::Sampling::kWithReplacement,
          AgentParallelEngine::Sampling::kWithoutReplacement}) {
      if (sampling == AgentParallelEngine::Sampling::kWithoutReplacement &&
          !family.topology.supports_distinct(3)) {
        continue;
      }
      const ShardedAgentEngine engine(
          minority,
          {.threads = 1, .sampling = sampling, .topology = &family.topology});
      auto population = engine.make_population(
          init_half(family.topology.size(), Opinion::kOne));
      const ShardedAgentEngine::KernelDispatch dispatch =
          engine.step_dispatch(population);
      EXPECT_NE(dispatch.backend, kernel::Backend::kLegacy) << family.name;
      EXPECT_STREQ(dispatch.reason, "eligible") << family.name;
    }
  }
}

TEST(TopologySeam, FractionalGTableOnAGraphTakesLegacyAndSaysWhy) {
  // Voter at l = 3 has g = k/3: no boolean circuit, so even on a graph the
  // round takes the per-agent loop, and says so.
  const VoterDynamics voter(3);
  const Topology ring = Topology::ring(1 << 12);
  const ShardedAgentEngine engine(voter, {.threads = 1, .topology = &ring});
  auto population =
      engine.make_population(init_fraction_ones(1 << 12, Opinion::kOne, 0.5));
  const ShardedAgentEngine::KernelDispatch dispatch =
      engine.step_dispatch(population);
  EXPECT_EQ(dispatch.backend, kernel::Backend::kLegacy);
  EXPECT_NE(std::strstr(dispatch.reason, "fractional g-table"), nullptr)
      << "reason was: " << dispatch.reason;
  EXPECT_EQ(engine.step_backend(population), kernel::Backend::kLegacy);
}

// Golden graphs: every structured family, n % 64 != 0 and over three
// 4096-agent blocks, so tail words, block seams and several rounds of
// irregular rows are all exercised. The graphs are pinned by seed.
std::vector<Family> golden_families() {
  return {{"ring", Topology::ring(12345)},
          {"torus", Topology::torus(111, 2)},
          {"random_regular", Topology::random_regular(12346, 6, 21)},
          {"erdos_renyi", Topology::erdos_renyi(12345, 20.0 / 12345, 22)},
          {"barabasi_albert", Topology::barabasi_albert(12345, 3, 23)}};
}

// Every fault channel at once, with a source flip at round 4.
EnvironmentModel graph_fault_model() {
  EnvironmentModel model;
  model.observation_noise = 0.02;
  model.spontaneous_rate = 0.01;
  model.spontaneous_bias = 0.3;
  model.churn_rate = 0.005;
  model.zealot_fraction = 0.05;
  model.source_flip_rounds = {4};
  return model;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 3);
  return h * 0x2545f4914f6cdd1dull;
}

// Fault-free: the whole plane folded after each of 10 steps. Faulty: a
// 10-round run through the RunDriver (so the flip applies), folding X_t of
// every round and the payload digest.
std::uint64_t graph_digest(const MemorylessProtocol& protocol,
                           const Topology& topology, kernel::Backend backend,
                           bool distinct, bool faulty, unsigned threads = 1,
                           std::uint32_t shards = 0) {
  const ShardedAgentEngine engine(
      protocol,
      {.threads = threads,
       .shards = shards,
       .sampling = distinct ? AgentParallelEngine::Sampling::kWithoutReplacement
                            : AgentParallelEngine::Sampling::kWithReplacement,
       .kernel = backend,
       .topology = &topology});
  const Configuration init = init_half(topology.size(), Opinion::kOne);
  std::uint64_t h = 0xcbf29ce484222325ull;
  if (!faulty) {
    const SeedSequence seeds(99);
    auto population = engine.make_population(init);
    for (std::uint64_t t = 0; t < 10; ++t) {
      engine.step(population, t, seeds);
      for (const std::uint64_t word : population.plane_words()) {
        h = fold(h, word);
      }
    }
    return h;
  }
  Trajectory trajectory;
  const RunResult result =
      engine.run(init, capped(10), graph_fault_model(), 99, &trajectory);
  for (const Trajectory::Point& point : trajectory.points()) {
    h = fold(h, point.ones);
  }
  return fold(h, snapshot::payload_digest(result));
}

// The graph golden matrix (kernel/2 over CSR rows, scalar backend): Minority
// l = 3 with replacement and l = 2 (tie coins) without, fault-free and with
// every fault channel. Regenerate by re-running: a failing row prints its
// computed value. Every backend must reproduce these (asserted below), so
// they are backend-independent.
struct GraphGolden {
  const char* family;
  std::uint64_t with_replacement;
  std::uint64_t distinct;
  std::uint64_t faulty_with_replacement;
  std::uint64_t faulty_distinct;
};

constexpr GraphGolden kGraphGoldens[] = {
    {"ring", 0xefcae9e6fcaf0f22ull, 0x53cd83365e7988a1ull,
     0xf05515f6aff77ae5ull, 0x4c9a4ac6f257493cull},
    {"torus", 0x435acf57b76669a6ull, 0xd678e3a17c8c5cc4ull,
     0x293ee10e7798ef05ull, 0xb19122c8f5be1ce0ull},
    {"random_regular", 0xb6f41a83e124699aull, 0xd4e94c74ba21f61dull,
     0xdcccfe4eb0b3ce75ull, 0x427ab9d965490482ull},
    {"erdos_renyi", 0x1ff93de05482c8f6ull, 0xdae1b6d5a856f64aull,
     0x1c3e0c98b047cdf9ull, 0xa972cca0dec81800ull},
    {"barabasi_albert", 0x4cba6224483d9454ull, 0x6f7d1e4753112f21ull,
     0x6b0dd7785aeef35full, 0x1cb2d598ee1b116aull},
};

// Checks one backend against the pinned matrix.
void expect_graph_goldens(kernel::Backend backend) {
  const MinorityDynamics minority3(3);
  const MinorityDynamics minority2(2);
  const std::vector<Family> families = golden_families();
  ASSERT_EQ(families.size(), std::size(kGraphGoldens));
  for (std::size_t f = 0; f < families.size(); ++f) {
    const GraphGolden& golden = kGraphGoldens[f];
    const Topology& topology = families[f].topology;
    ASSERT_STREQ(families[f].name, golden.family);
    ASSERT_GE(topology.min_degree(), 2u) << golden.family;
    const struct {
      const MinorityDynamics& protocol;
      bool distinct;
      bool faulty;
      std::uint64_t expected;
    } cells[] = {{minority3, false, false, golden.with_replacement},
                 {minority2, true, false, golden.distinct},
                 {minority3, false, true, golden.faulty_with_replacement},
                 {minority2, true, true, golden.faulty_distinct}};
    for (const auto& cell : cells) {
      const std::uint64_t got = graph_digest(cell.protocol, topology, backend,
                                             cell.distinct, cell.faulty);
      EXPECT_EQ(got, cell.expected)
          << kernel::backend_name(backend) << " " << golden.family
          << " distinct=" << cell.distinct << " faulty=" << cell.faulty
          << " computed 0x" << std::hex << std::setw(16)
          << std::setfill('0') << got;
    }
  }
}

TEST(GraphKernel, ScalarDigestMatrixMatchesPinnedValues) {
  expect_graph_goldens(kernel::Backend::kScalarWord);
}

TEST(GraphKernel, SimdBackendsMatchScalarOnEveryFamily) {
  // On a host without AVX2/NEON this checks nothing beyond the scalar row;
  // the CI kernel matrix runs it with auto dispatch and forced scalar.
  for (const kernel::Backend backend : kernel::available_backends()) {
    if (backend == kernel::Backend::kScalarWord) continue;
    expect_graph_goldens(backend);
  }
}

TEST(GraphKernel, AutoEngagesTheKernelAndLegacyStaysTheOracle) {
  // kAuto lands on the pinned kernel/2 digest; an explicit kLegacy request
  // runs the per-agent loop (a different stream schedule) and says why.
  const MinorityDynamics minority(3);
  const Family family = golden_families()[3];
  const std::uint64_t via_auto = graph_digest(
      minority, family.topology, kernel::Backend::kAuto, false, false);
  const std::uint64_t via_legacy = graph_digest(
      minority, family.topology, kernel::Backend::kLegacy, false, false);
  EXPECT_EQ(via_auto, kGraphGoldens[3].with_replacement);
  EXPECT_NE(via_auto, via_legacy);

  const ShardedAgentEngine pinned(
      minority, {.threads = 1,
                 .kernel = kernel::Backend::kLegacy,
                 .topology = &family.topology});
  auto population = pinned.make_population(
      init_half(family.topology.size(), Opinion::kOne));
  EXPECT_STREQ(pinned.step_dispatch(population).reason,
               "legacy loop requested");
}

TEST(GraphKernel, BitIdenticalAcrossThreadsAndShards) {
  const MinorityDynamics minority(3);
  for (const Family& family : golden_families()) {
    for (const bool faulty : {false, true}) {
      const std::uint64_t reference = graph_digest(
          minority, family.topology, kernel::Backend::kAuto, false, faulty);
      for (const unsigned threads : {1u, 2u, 4u}) {
        for (const std::uint32_t shards : {1u, 3u, 7u}) {
          EXPECT_EQ(graph_digest(minority, family.topology,
                                 kernel::Backend::kAuto, false, faulty,
                                 threads, shards),
                    reference)
              << family.name << " faulty=" << faulty << " threads="
              << threads << " shards=" << shards;
        }
      }
    }
  }
}

// --- Sharded determinism and cross-engine law on a ring ------------------

// The ring tests below run each sharded engine on both of its paths on a
// graph: the bitslice kernel (kAuto) and the legacy per-agent loop that
// fractional g-tables and stateful protocols still take (kLegacy).
constexpr kernel::Backend kGraphPaths[] = {kernel::Backend::kAuto,
                                           kernel::Backend::kLegacy};

TEST(TopologySeam, ShardedRingRunIsBitIdenticalAcrossThreadsAndShards) {
  const MinorityDynamics minority(3);
  const Topology ring = Topology::ring(1 << 13);
  const Configuration init =
      init_fraction_ones(1 << 13, Opinion::kOne, 0.5);
  for (const kernel::Backend backend : kGraphPaths) {
    const ShardedAgentEngine reference(
        minority,
        {.threads = 1, .shards = 1, .kernel = backend, .topology = &ring});
    const std::uint64_t golden =
        snapshot::payload_digest(reference.run(init, capped(60), 1234));
    for (const auto& [threads, shards] :
         std::vector<std::pair<unsigned, std::uint32_t>>{
             {2, 1}, {4, 3}, {3, 7}}) {
      const ShardedAgentEngine engine(minority, {.threads = threads,
                                                 .shards = shards,
                                                 .kernel = backend,
                                                 .topology = &ring});
      EXPECT_EQ(snapshot::payload_digest(engine.run(init, capped(60), 1234)),
                golden)
          << kernel::backend_name(backend) << " threads=" << threads
          << " shards=" << shards;
    }
  }
}

TEST(TopologySeam, ShardedMatchesAgentEngineInLawOnRing) {
  // Same ring, same protocol, different engines (and different stream
  // schedules): the consensus-time laws must agree (KS).
  const VoterDynamics voter(1);
  const MemorylessAsStateful adapter(voter);
  const std::uint64_t n = 32;
  const Topology ring = Topology::ring(n);
  const AgentParallelEngine agent(
      adapter, AgentParallelEngine::Sampling::kWithReplacement, &ring);
  const StopRule rule = capped(1000000);

  const int kTrials = 150;
  for (const kernel::Backend backend : kGraphPaths) {
    const ShardedAgentEngine sharded(
        voter, {.threads = 2, .kernel = backend, .topology = &ring});
    std::vector<double> agent_times, sharded_times;
    for (int i = 0; i < kTrials; ++i) {
      Rng rng(50000 + i);
      const RunResult a = agent.run(all_wrong(n), rule, rng);
      const RunResult b = sharded.run(all_wrong(n), rule, 60000 + i);
      ASSERT_TRUE(a.converged());
      ASSERT_TRUE(b.converged()) << kernel::backend_name(backend);
      agent_times.push_back(static_cast<double>(a.rounds()));
      sharded_times.push_back(static_cast<double>(b.rounds()));
    }
    const double d = ks_statistic(agent_times, sharded_times);
    EXPECT_GT(ks_p_value(d, agent_times.size(), sharded_times.size()), 1e-3)
        << kernel::backend_name(backend) << " KS=" << d;
  }
}

// --- Checkpoint/restore with a structured topology -----------------------

TEST(TopologySeam, FaultyRingRunResumesDigestIdentically) {
  const MinorityDynamics minority(3);
  const Topology ring = Topology::ring(1 << 13);
  const Configuration init =
      init_fraction_ones(1 << 13, Opinion::kOne, 0.5);
  EnvironmentModel faults;
  faults.observation_noise = 0.01;
  faults.churn_rate = 0.001;
  for (const kernel::Backend backend : kGraphPaths) {
    const std::string name = kernel::backend_name(backend);
    const ShardedAgentEngine engine(
        minority, {.threads = 2, .kernel = backend, .topology = &ring});
    const auto run = [&] {
      return engine.run(init, capped(80), faults, 31);
    };

    const std::uint64_t golden = snapshot::payload_digest(run());

    snapshot::CheckpointOptions options;
    options.path = fresh_ring_base("faultring_" + name);
    options.every = 10;
    options.ring = 64;
    snapshot::Checkpointer writer(options);
    {
      const ScopedCheckpointer installed(&writer);
      EXPECT_EQ(snapshot::payload_digest(run()), golden)
          << name << ": checkpointing perturbed the run";
    }
    EXPECT_GT(writer.written(), 0u) << name;

    const std::string entry = ring_file_for_round(writer, 40);
    ASSERT_FALSE(entry.empty()) << name;
    snapshot::Checkpointer resumer(options);
    ASSERT_TRUE(resumer.load_resume(entry)) << name;
    const ScopedCheckpointer installed(&resumer);
    EXPECT_EQ(snapshot::payload_digest(run()), golden)
        << name << ": resume from round 40 diverged";
    EXPECT_EQ(resumer.resumed_runs(), 1u) << name;
  }
}

TEST(TopologySeam, MismatchedTopologySnapshotIsRefused) {
  // A snapshot of a ring run must not resume a torus run: restore() refuses
  // on the TOPO digest, and the torus run falls back to a fresh — still
  // correct — run.
  const MinorityDynamics minority(3);
  const std::uint64_t n = 1 << 12;  // 64^2, a valid 2-d torus size.
  const Topology ring = Topology::ring(n);
  const Topology torus = Topology::torus(64, 2);
  const ShardedAgentEngine on_ring(minority,
                                   {.threads = 1, .topology = &ring});
  const ShardedAgentEngine on_torus(minority,
                                    {.threads = 1, .topology = &torus});
  const Configuration init = init_fraction_ones(n, Opinion::kOne, 0.5);
  const std::uint64_t torus_golden =
      snapshot::payload_digest(on_torus.run(init, capped(120), 77));

  snapshot::CheckpointOptions options;
  options.path = fresh_ring_base("mismatch");
  options.every = 10;
  options.ring = 64;
  snapshot::Checkpointer writer(options);
  {
    const ScopedCheckpointer installed(&writer);
    on_ring.run(init, capped(60), 77);
  }
  EXPECT_GT(writer.written(), 0u);

  // take_resume() claims the snapshot (the tag matches), but restore()
  // must refuse it on the TOPO digest: had the ring plane been accepted,
  // the torus run would continue from it for 60 more rounds and its
  // payload digest would diverge from the fresh torus golden.
  snapshot::Checkpointer resumer(options);
  ASSERT_TRUE(resumer.load_resume("auto"));
  const ScopedCheckpointer installed(&resumer);
  EXPECT_EQ(snapshot::payload_digest(on_torus.run(init, capped(120), 77)),
            torus_golden)
      << "a mismatched-topology snapshot leaked into the run";
}

// --- The coalescing-random-walk dual -------------------------------------

// Backward dual of the voter (ell = 1) on any graph with a stubborn source
// at node 0: one walker per initially-wrong agent; each round every walker
// moves to a uniform entry of its CSR row (walkers sharing a node share the
// move — they have coalesced), then walkers standing on the source are
// absorbed. The round when the last walker dies is distributed exactly as
// the consensus time from the all-wrong start. The step reads the row
// itself rather than going through Topology::sample_neighbors, so the
// engines' sampling seam is checked against an independent draw.
std::uint64_t dual_coalescence_time(const Topology& topology, Rng& rng) {
  const std::uint64_t n = topology.size();
  const std::vector<std::uint64_t>& offsets = topology.offsets();
  const std::vector<std::uint32_t>& adjacency = topology.adjacency();
  std::vector<std::uint64_t> walkers;
  walkers.reserve(n - 1);
  for (std::uint64_t i = 1; i < n; ++i) walkers.push_back(i);
  std::uint64_t round = 0;
  while (!walkers.empty()) {
    ++round;
    for (std::uint64_t& w : walkers) {
      const std::uint64_t degree = offsets[w + 1] - offsets[w];
      w = adjacency[offsets[w] + rng.next_below(degree)];
    }
    std::sort(walkers.begin(), walkers.end());
    walkers.erase(std::unique(walkers.begin(), walkers.end()), walkers.end());
    if (!walkers.empty() && walkers.front() == 0) {
      walkers.erase(walkers.begin());  // Absorbed at the source.
    }
  }
  return round;
}

TEST(TopologySeam, RingVoterConsensusMatchesCoalescingDual) {
  // E1 extended to the ring: the agent engine's ring-voter consensus time
  // from the all-wrong start equals (in law) the dual's last-coalescence
  // time. This cross-validates the CSR sampling seam against an
  // independently-coded process — an error in row construction or in the
  // per-agent draw law shifts the Theta(n^2) consensus time and fails the
  // KS comparison.
  const VoterDynamics voter(1);
  const MemorylessAsStateful adapter(voter);
  const std::uint64_t n = 32;
  const Topology ring = Topology::ring(n);
  const AgentParallelEngine engine(
      adapter, AgentParallelEngine::Sampling::kWithReplacement, &ring);
  const StopRule rule = capped(1000000);

  const int kTrials = 250;
  std::vector<double> engine_times, dual_times;
  for (int i = 0; i < kTrials; ++i) {
    Rng engine_rng(70000 + i), dual_rng(80000 + i);
    const RunResult result = engine.run(all_wrong(n), rule, engine_rng);
    ASSERT_TRUE(result.converged());
    engine_times.push_back(static_cast<double>(result.rounds()));
    dual_times.push_back(
        static_cast<double>(dual_coalescence_time(ring, dual_rng)));
  }
  const double d = ks_statistic(engine_times, dual_times);
  EXPECT_GT(ks_p_value(d, engine_times.size(), dual_times.size()), 1e-3)
      << "KS=" << d;
}

TEST(TopologySeam, ShardedKernelVoterMatchesTheDualOnEveryFamily) {
  // The same dual, now against the sharded engine's bitslice kernel on four
  // families: an error in the per-slot degree bound, the row gather or the
  // rejection rule shifts the consensus-time law and fails the KS check.
  const VoterDynamics voter(1);
  const std::vector<Family> families = {
      {"ring", Topology::ring(32)},
      {"torus", Topology::torus(6, 2)},
      {"random_regular", Topology::random_regular(40, 3, 8)},
      {"erdos_renyi", Topology::erdos_renyi(40, 0.15, 9)}};
  const StopRule rule = capped(1000000);
  const int kTrials = 250;
  for (const Family& family : families) {
    ASSERT_TRUE(family.topology.connected()) << family.name;
    const std::uint64_t n = family.topology.size();
    const ShardedAgentEngine engine(
        voter, {.threads = 1, .topology = &family.topology});
    auto probe = engine.make_population(all_wrong(n));
    ASSERT_NE(engine.step_backend(probe), kernel::Backend::kLegacy);
    std::vector<double> engine_times, dual_times;
    for (int i = 0; i < kTrials; ++i) {
      Rng dual_rng(90000 + i);
      const RunResult result = engine.run(all_wrong(n), rule, 91000 + i);
      ASSERT_TRUE(result.converged()) << family.name;
      engine_times.push_back(static_cast<double>(result.rounds()));
      dual_times.push_back(static_cast<double>(
          dual_coalescence_time(family.topology, dual_rng)));
    }
    const double d = ks_statistic(engine_times, dual_times);
    EXPECT_GT(ks_p_value(d, engine_times.size(), dual_times.size()), 1e-3)
        << family.name << " KS=" << d;
  }
}

// --- The kernel against the legacy loop, in law -----------------------------

TEST(GraphKernel, OneStepCountsMatchLegacyInLaw) {
  // One Minority round from X = n/2 on each family: the ones count after
  // the kernel's round and after the legacy loop's are draws from one law.
  // l = 3 with replacement; l = 2 without (every family has degree >= 2).
  for (const Family& family : small_families()) {
    for (const bool distinct : {false, true}) {
      const MinorityDynamics minority(distinct ? 2 : 3);
      const auto sampling =
          distinct ? AgentParallelEngine::Sampling::kWithoutReplacement
                   : AgentParallelEngine::Sampling::kWithReplacement;
      const ShardedAgentEngine with_kernel(
          minority, {.threads = 1,
                     .sampling = sampling,
                     .kernel = kernel::Backend::kAuto,
                     .topology = &family.topology});
      const ShardedAgentEngine with_legacy(
          minority, {.threads = 1,
                     .sampling = sampling,
                     .kernel = kernel::Backend::kLegacy,
                     .topology = &family.topology});
      const Configuration init =
          init_half(family.topology.size(), Opinion::kOne);
      const int kTrials = 1500;
      std::vector<double> kernel_ones, legacy_ones;
      for (int i = 0; i < kTrials; ++i) {
        auto a = with_kernel.make_population(init);
        auto b = with_legacy.make_population(init);
        with_kernel.step(a, 0, SeedSequence(100000 + i));
        with_legacy.step(b, 0, SeedSequence(200000 + i));
        kernel_ones.push_back(static_cast<double>(a.count_ones()));
        legacy_ones.push_back(static_cast<double>(b.count_ones()));
      }
      const double d = ks_statistic(kernel_ones, legacy_ones);
      EXPECT_GT(ks_p_value(d, kernel_ones.size(), legacy_ones.size()), 1e-3)
          << family.name << " distinct=" << distinct << " KS=" << d;
    }
  }
}

TEST(GraphKernel, CrossingTimesMatchLegacyInLaw) {
  // Voter (l = 1) from X = n/2 until X leaves [3n/8, 5n/8]: the crossing
  // time integrates many rounds of the row law, kernel vs legacy loop.
  const VoterDynamics voter(1);
  for (const Family& family : small_families()) {
    const std::uint64_t n = family.topology.size();
    StopRule rule;
    rule.interval_lo = 3 * n / 8;
    rule.interval_hi = 5 * n / 8;
    const ShardedAgentEngine with_kernel(
        voter, {.threads = 1,
                .kernel = kernel::Backend::kAuto,
                .topology = &family.topology});
    const ShardedAgentEngine with_legacy(
        voter, {.threads = 1,
                .kernel = kernel::Backend::kLegacy,
                .topology = &family.topology});
    const Configuration init = init_half(n, Opinion::kOne);
    const int kTrials = 400;
    std::vector<double> kernel_times, legacy_times;
    for (int i = 0; i < kTrials; ++i) {
      kernel_times.push_back(static_cast<double>(
          with_kernel.run(init, rule, 300000 + i).rounds()));
      legacy_times.push_back(static_cast<double>(
          with_legacy.run(init, rule, 400000 + i).rounds()));
    }
    const double d = ks_statistic(kernel_times, legacy_times);
    EXPECT_GT(ks_p_value(d, kernel_times.size(), legacy_times.size()), 1e-3)
        << family.name << " KS=" << d;
  }
}

}  // namespace
}  // namespace bitspread
