// The agent-level parallel engine: explicit per-agent simulation.
//
// O(n*l) work per round, so it is reserved for (a) stateful protocols, where
// the aggregate reduction does not apply, and (b) cross-validating the
// aggregate engine (the two are distribution-identical for memory-less
// protocols; see tests/engine_cross_validation_test.cc). Sources occupy the
// first `sources` slots of the population and never update.
#ifndef BITSPREAD_ENGINE_AGENT_H_
#define BITSPREAD_ENGINE_AGENT_H_

#include <vector>

#include "core/configuration.h"
#include "core/stateful.h"
#include "engine/stopping.h"
#include "engine/trajectory.h"
#include "faults/environment.h"
#include "random/floyd.h"
#include "random/rng.h"
#include "topology/topology.h"

namespace bitspread {

class FaultSession;

class AgentParallelEngine {
 public:
  enum class Sampling {
    kWithReplacement,    // The paper's model: l u.a.r. draws from all agents.
    kWithoutReplacement  // Distinct-agent samples (Floyd's algorithm).
  };

  // `topology` is the graph agents PULL over (src/topology). Null means the
  // complete graph — the paper's uniform self-inclusive sampling — and is
  // bit-identical to the pre-topology engine. The pointee must outlive the
  // engine and satisfy topology->size() == n; without-replacement sampling
  // additionally requires ell <= topology->min_degree().
  explicit AgentParallelEngine(
      const StatefulProtocol& protocol,
      Sampling sampling = Sampling::kWithReplacement,
      const Topology* topology = nullptr) noexcept
      : protocol_(&protocol), sampling_(sampling), topology_(topology) {}

  // The explicit population. Index i < sources is a source agent.
  struct Population {
    std::vector<StatefulProtocol::AgentView> views;
    Opinion correct = Opinion::kOne;
    std::uint64_t sources = 1;

    std::uint64_t count_ones() const noexcept;
    Configuration config() const noexcept;

    // Reusable per-step scratch, owned here so repeated stepping allocates
    // nothing: the round-t opinion snapshot and the without-replacement
    // sampling table. Never read between steps.
    std::vector<Opinion> snapshot;
    FloydSampler sampler;
    // Fallback uniform-PULL topology used when the engine carries no handle;
    // sized by make_population so observation always routes through one
    // Topology seam.
    Topology uniform;
  };

  // Lays out a population matching `config`: sources first (holding z), then
  // the non-source ones, then the non-source zeros, every agent in the
  // protocol's initial view for its opinion. Agent order never matters (the
  // model is fully anonymous), so the deterministic layout is w.l.o.g.
  Population make_population(const Configuration& config) const;

  // One synchronous round: every non-source agent samples and updates.
  void step(Population& population, Rng& rng) const;

  RunResult run(Configuration config, const StopRule& rule, Rng& rng,
                Trajectory* trajectory = nullptr) const;

  // Run starting from an explicit population (e.g. adversarial internal
  // states for self-stabilization tests). The population is advanced in
  // place.
  RunResult run_population(Population& population, const StopRule& rule,
                           Rng& rng, Trajectory* trajectory = nullptr) const;

  // Faulty run under an EnvironmentModel, fully operational: every observed
  // bit passes through a BSC(epsilon), zealot slots never update, the
  // spontaneous channel overrides the post-update opinion with probability
  // eta (internal state is kept), churned agents restart in the protocol's
  // initial view for the currently wrong opinion, and source flips reset the
  // source views mid-run. Distribution-identical to the aggregate faulty run
  // for memory-less protocols.
  RunResult run(Configuration config, const StopRule& rule,
                const EnvironmentModel& faults, Rng& rng,
                Trajectory* trajectory = nullptr) const;

  // One faulty synchronous round (noise + zealots + spontaneous channel);
  // churn and source flips are per-round-boundary work owned by the
  // RunDriver's fault lifecycle.
  void step_faulty(Population& population, const FaultSession& session,
                   Rng& rng) const;

  const StatefulProtocol& protocol() const noexcept { return *protocol_; }

  // The graph this engine samples over (the options handle, or the complete
  // graph when none was given).
  const Topology& topology_of(const Population& population) const noexcept {
    return topology_ != nullptr ? *topology_ : population.uniform;
  }

 private:
  // Counts ones among agent `agent`'s l observed neighbors (its whole
  // population under uniform PULL, its CSR row on a structured graph).
  std::uint32_t observe_ones(const std::vector<Opinion>& opinions,
                             const Topology& topo, std::uint64_t agent,
                             std::uint32_t ell, Rng& rng,
                             FloydSampler& sampler) const noexcept;
  // As observe_ones, but each observed bit flips with probability epsilon.
  std::uint32_t observe_ones_noisy(const std::vector<Opinion>& opinions,
                                   const Topology& topo, std::uint64_t agent,
                                   std::uint32_t ell, double epsilon, Rng& rng,
                                   FloydSampler& sampler) const noexcept;

  const StatefulProtocol* protocol_;
  Sampling sampling_;
  const Topology* topology_ = nullptr;
};

}  // namespace bitspread

#endif  // BITSPREAD_ENGINE_AGENT_H_
