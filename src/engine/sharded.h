// The sharded agent-level engine: deterministic multithreaded rounds over a
// bit-packed, double-buffered opinion plane.
//
// AgentParallelEngine (engine/agent.h) is the reference per-agent simulator:
// single-threaded, one byte per opinion, a fresh snapshot per round. This
// engine is its scale-out rebuild for the workloads the aggregate reduction
// cannot serve — stateful protocols, adversarial internal states, and
// cross-validation at large n — built around three ideas:
//
//  1. *Deterministic sharding.* Agents are partitioned into fixed 4096-agent
//     blocks, and every (round, block) pair owns a SeedSequence-derived RNG
//     stream. Worker threads and scheduling chunks ("shards") only decide
//     WHO processes a block, never WHICH randomness it sees, so a run is
//     bit-identical for every thread count and every shard count — the
//     guarantee sim/parallel.h proves across replicates, pushed down into a
//     single run (tested in tests/engine_sharded_test.cc).
//  2. *Packed double buffering.* Displayed opinions live in two 1-bit-per-
//     agent planes (read round t, write round t+1, swap); the l random
//     probes per update touch 1/8th the memory of a byte snapshot and no
//     per-round allocation ever happens. Per-agent memory states, which no
//     other agent can observe, stay in place in a separate array.
//  3. *A memory-less fast path.* For a MemorylessProtocol the next opinion
//     is Bernoulli(g_n^[b](k)), so the engine tabulates g once per round
//     and updates agents with one table lookup + one uniform draw — no
//     virtual dispatch inside the hot loop.
//
// Rounds are fanned out through the shared WorkerPool (sim/parallel.h), so
// per-round dispatch costs no thread creation.
#ifndef BITSPREAD_ENGINE_SHARDED_H_
#define BITSPREAD_ENGINE_SHARDED_H_

#include <cstdint>
#include <vector>

#include "core/configuration.h"
#include "core/protocol.h"
#include "core/stateful.h"
#include "engine/agent.h"
#include "engine/kernel/kernel.h"
#include "engine/stopping.h"
#include "engine/trajectory.h"
#include "random/floyd.h"
#include "random/seeding.h"
#include "topology/topology.h"

namespace bitspread {

struct ShardedEngineOptions {
  // Worker threads per round (0 = hardware concurrency). Never affects
  // results.
  unsigned threads = 0;
  // Scheduling chunks the blocks are grouped into per round (0 = one
  // chunk per block). Never affects results.
  std::uint32_t shards = 0;
  AgentParallelEngine::Sampling sampling =
      AgentParallelEngine::Sampling::kWithReplacement;
  // Step-kernel backend (engine/kernel/kernel.h). kAuto engages the fastest
  // bitslice backend whenever the round is eligible ({0,1/2,1}-valued
  // g-table, n < 2^32, l <= 128, memory-less protocol), on any graph;
  // ineligible rounds — and kLegacy — take the per-agent loop. The kernel
  // runs its own documented stream schedule ("kernel/2", over CSR rows on a
  // structured graph), so backends are bit-identical to each other but not
  // to kLegacy; distribution identity is pinned by cross-validation tests.
  kernel::Backend kernel = kernel::Backend::kAuto;
  // Graph the agents PULL over (src/topology). Null means the complete
  // graph — the paper's uniform PULL — and is bit-identical to the
  // pre-topology engine (so is an explicit complete handle). The pointee
  // must outlive the engine and satisfy topology->size() == n. Both the
  // kernel and the per-agent loop sample CSR rows directly;
  // without-replacement sampling requires ell <= topology->min_degree().
  const Topology* topology = nullptr;
};

class ShardedAgentEngine {
 public:
  using Sampling = AgentParallelEngine::Sampling;
  using Options = ShardedEngineOptions;

  // The fixed randomness/ownership unit: 64 words of 64 agents. Block
  // boundaries are word-aligned so concurrent writers never share a word.
  static constexpr std::uint64_t kBlockWords = 64;
  static constexpr std::uint64_t kBlockAgents = kBlockWords * 64;

  // Memory-less protocols take the g-table fast path.
  explicit ShardedAgentEngine(const MemorylessProtocol& protocol,
                              Options options = {}) noexcept
      : memoryless_(&protocol), options_(options) {}

  // Stateful protocols take the generic virtual-update path. A
  // MemorylessAsStateful adapter is unwrapped back onto the fast path.
  explicit ShardedAgentEngine(const StatefulProtocol& protocol,
                              Options options = {}) noexcept;

  // The packed population. Index i < source_count() is a source agent;
  // layout matches AgentParallelEngine::make_population (sources, then
  // non-source ones, then non-source zeros).
  class Population {
   public:
    std::uint64_t size() const noexcept { return n_; }
    std::uint64_t source_count() const noexcept { return sources_; }
    Opinion correct() const noexcept { return correct_; }
    std::uint64_t count_ones() const noexcept { return ones_; }
    Configuration config() const noexcept {
      return Configuration{n_, ones_, correct_, sources_};
    }

    Opinion opinion(std::uint64_t i) const noexcept {
      return ((current_[i >> 6] >> (i & 63)) & 1) != 0 ? Opinion::kOne
                                                       : Opinion::kZero;
    }
    // Per-agent memory state (0 for memory-less populations).
    std::uint32_t state(std::uint64_t i) const noexcept {
      return states_.empty() ? 0 : states_[i];
    }

    // Mutators for adversarial initial conditions (self-stabilization
    // quantifies over every internal state).
    void set_opinion(std::uint64_t i, Opinion opinion) noexcept;
    void set_state(std::uint64_t i, std::uint32_t state);
    // Re-targets the correct opinion (source flips mirror through here).
    void set_correct(Opinion correct) noexcept { correct_ = correct; }

    // Churn replacements performed by the most recent faulty step.
    std::uint64_t last_step_churned() const noexcept;

    // --- Snapshot accessors (snapshot/state.h) ----------------------
    // The packed round-t plane and the per-agent memory array, verbatim.
    const std::vector<std::uint64_t>& plane_words() const noexcept {
      return current_;
    }
    const std::vector<std::uint32_t>& memory_states() const noexcept {
      return states_;
    }
    // Replaces the plane (and memory) wholesale and recounts ones; false
    // when the shapes don't fit this population or padding bits are set.
    // The write plane and all round scratch are rebuilt by the next step().
    bool restore_plane(const std::vector<std::uint64_t>& plane,
                       const std::vector<std::uint32_t>& states);

   private:
    friend class ShardedAgentEngine;

    std::uint64_t n_ = 0;
    std::uint64_t sources_ = 1;
    Opinion correct_ = Opinion::kOne;
    std::uint64_t ones_ = 0;

    // Double-buffered opinion planes, 1 bit per agent; bits >= n_ in the
    // last word stay zero. `current_` is round t, `next_` is written
    // during step() and swapped in.
    std::vector<std::uint64_t> current_;
    std::vector<std::uint64_t> next_;
    // Per-agent memory, updated in place by the owning block (empty on the
    // memory-less fast path).
    std::vector<std::uint32_t> states_;

    // Reusable round scratch (resized once, then allocation-free).
    std::vector<std::uint64_t> block_ones_;
    // Churn replacements per block, filled by faulty rounds (each block is
    // written by exactly one worker, so no atomics are needed).
    std::vector<std::uint64_t> block_churned_;
    std::vector<double> gtable_;
    std::vector<FloydSampler> samplers_;
    // Step-kernel round scratch: the compiled g-circuit and, in
    // without-replacement mode, per-chunk index buffers (ell * 64 each).
    kernel::CircuitTable circuit_;
    std::vector<std::uint32_t> kernel_index_;
    // Fallback uniform-PULL topology used when the engine options carry no
    // handle; sized by make_population so the probe loops always sample
    // through one Topology seam.
    Topology uniform_;
  };

  Population make_population(const Configuration& config) const;

  // One synchronous round. `round` and `seeds` key the per-block streams:
  // stepping the same population with the same (round, seeds) replays
  // bit-for-bit, independent of threads/shards.
  void step(Population& population, std::uint64_t round,
            const SeedSequence& seeds) const;

  // One faulty synchronous round. Every fault draw (probe noise, spontaneous
  // flips, churn) comes from the block's own (round, block)-derived stream —
  // a distinct stream phase from the fault-free path — so the determinism
  // guarantee is unchanged: bit-identical for every thread/shard count.
  void step(Population& population, std::uint64_t round,
            const SeedSequence& seeds, const FaultSession& session) const;

  // Runs from `config` under `rule`. The master `seed` fully determines the
  // outcome; thread/shard counts never do.
  RunResult run(const Configuration& config, const StopRule& rule,
                std::uint64_t seed, Trajectory* trajectory = nullptr) const;

  // Faulty run under an EnvironmentModel: operational bit-flip noise on
  // every probe, frozen zealot slots, the spontaneous channel folded into
  // the per-round g-table (fast path) or applied as a post-update override
  // (stateful path), per-agent churn, and mid-run source flips. Still
  // bit-identical across thread/shard counts.
  RunResult run(const Configuration& config, const StopRule& rule,
                const EnvironmentModel& faults, std::uint64_t seed,
                Trajectory* trajectory = nullptr) const;

  // Same, from an explicit (possibly adversarial) population, advanced in
  // place.
  RunResult run_population(Population& population, const StopRule& rule,
                           std::uint64_t seed,
                           Trajectory* trajectory = nullptr) const;

  std::uint32_t sample_size(std::uint64_t n) const noexcept {
    return memoryless_ != nullptr ? memoryless_->sample_size(n)
                                  : protocol_->sample_size(n);
  }
  const Options& options() const noexcept { return options_; }
  bool memoryless_fast_path() const noexcept { return memoryless_ != nullptr; }

  // The kernel backend a step on `population` would dispatch to after all
  // eligibility checks (kLegacy when the per-agent loop would run instead).
  // Uses the population's round scratch; intended for benches and tests.
  kernel::Backend step_backend(Population& population,
                               const FaultSession* session = nullptr) const;

  // step_backend plus the WHY: `reason` names the first failed eligibility
  // rule ("fractional g-table: ...", "legacy loop requested", ...) or reads
  // "eligible" when a bitslice backend engages.
  struct KernelDispatch {
    kernel::Backend backend = kernel::Backend::kLegacy;
    const char* reason = "";
  };
  KernelDispatch step_dispatch(Population& population,
                               const FaultSession* session = nullptr) const;

  // The graph this engine samples over (the options handle, or the
  // complete graph when none was given).
  const Topology& topology_of(const Population& population) const noexcept {
    return options_.topology != nullptr ? *options_.topology
                                        : population.uniform_;
  }
  // Identity carried in the snapshot TOPO section: 0 for complete/none,
  // the CSR digest otherwise. restore() refuses a mismatch — resuming a
  // ring run on a torus would silently diverge.
  std::uint64_t topology_digest() const noexcept {
    return options_.topology != nullptr ? options_.topology->identity_digest()
                                        : 0;
  }

 private:
  // Per-round kernel dispatch, built by prepare_kernel.
  struct KernelRound {
    kernel::Backend backend = kernel::Backend::kLegacy;
    kernel::BlockFn fn = nullptr;
    kernel::FaultChannels faults;
    bool faulty = false;
    std::uint32_t threshold = 0;
  };

  // Tabulates the protocol's base g-table (no fault folding) into
  // population.gtable_. No-op on the stateful path.
  void build_gtable(Population& population, std::uint32_t ell) const;
  // Resolves the backend and compiles the circuit; false = legacy fallback.
  // `reason`, when non-null, receives the first failed eligibility rule
  // (or "eligible" on success).
  bool prepare_kernel(Population& population, std::uint32_t ell,
                      const FaultSession* session, KernelRound& plan,
                      const char** reason = nullptr) const;

  // The one body of both step() overloads. `session` (null: fault-free)
  // picks the stream phases, the spontaneous fold into the legacy g-table
  // and the legacy block function.
  void step_round(Population& population, std::uint64_t round,
                  const SeedSequence& seeds,
                  const FaultSession* session) const;

  void process_block_kernel(Population& population, std::uint64_t block,
                            std::uint32_t ell, const KernelRound& plan,
                            std::uint64_t lane_seed, FloydSampler& sampler,
                            std::uint32_t* index_scratch) const;
  void process_block(Population& population, std::uint64_t block,
                     std::uint32_t ell, Rng& rng,
                     FloydSampler& sampler) const;
  void process_block_faulty(Population& population, std::uint64_t block,
                            std::uint32_t ell, const FaultSession& session,
                            Rng& rng, FloydSampler& sampler) const;

  const MemorylessProtocol* memoryless_ = nullptr;  // Fast path when set.
  const StatefulProtocol* protocol_ = nullptr;      // Generic path otherwise.
  Options options_;
};

}  // namespace bitspread

#endif  // BITSPREAD_ENGINE_SHARDED_H_
