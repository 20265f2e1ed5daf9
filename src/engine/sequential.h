// The sequential engine: one uniformly chosen non-source agent activates per
// step (the setting of Becchetti et al., IJCAI 2023, where the Omega(n)
// parallel-round lower bound holds for EVERY sample size).
//
// For memory-less protocols the aggregate state (z, X_t) again suffices: an
// activation picks a non-source agent (opinion 1 with probability
// #non-source-ones / #non-source), draws its sample count K ~ Bin(l, X/n),
// and flips its opinion with probability g^[b](K). The induced chain on X is
// a birth-death chain (X moves by at most 1), exactly as the paper's §1
// discussion of the two settings' different mathematical natures describes;
// markov/birth_death.h computes its exact expected absorption times.
//
// Time is reported both in activations and in parallel rounds (1 parallel
// round = n activations), the unit the paper uses for comparisons.
#ifndef BITSPREAD_ENGINE_SEQUENTIAL_H_
#define BITSPREAD_ENGINE_SEQUENTIAL_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/configuration.h"
#include "core/protocol.h"
#include "engine/stopping.h"
#include "engine/trajectory.h"
#include "random/rng.h"
#include "topology/topology.h"

namespace bitspread {

class SequentialEngine {
 public:
  // The birth-death reduction above holds ONLY under uniform PULL (the
  // activated agent's sample law must depend on X alone). Like the aggregate
  // engine, a topology handle is accepted for interface symmetry but must be
  // the complete graph (null = complete).
  explicit SequentialEngine(const MemorylessProtocol& protocol,
                            const Topology* topology = nullptr) noexcept
      : protocol_(&protocol), topology_(topology) {
    assert(topology == nullptr || topology->is_complete());
  }

  // One activation. `config` must be valid and have at least one non-source
  // agent.
  Configuration step(const Configuration& config, Rng& rng) const;

  // StopRule::max_rounds is interpreted in PARALLEL rounds (n activations
  // each) so rules are interchangeable across engines. The trajectory, if
  // given, is recorded once per parallel round. The result reports
  // TimeUnit::kActivations: `ticks` counts activations.
  RunResult run(Configuration config, const StopRule& rule, Rng& rng,
                Trajectory* trajectory = nullptr) const;

  const MemorylessProtocol& protocol() const noexcept { return *protocol_; }

  // Always a complete graph (or null); see the constructor note.
  const Topology* topology() const noexcept { return topology_; }

 private:
  const MemorylessProtocol* protocol_;
  const Topology* topology_ = nullptr;
};

}  // namespace bitspread

#endif  // BITSPREAD_ENGINE_SEQUENTIAL_H_
