// Population protocols: the paper's §1.3 contrast class.
//
// In a population protocol, a scheduler picks a uniformly random ORDERED
// pair of agents per step and both update as a function of BOTH full states
// — active communication, unlike the paper's passive model where an agent
// sees only sampled opinions. Dudek & Kosowski (STOC 2018, [22] in the
// paper) solve bit-dissemination here with O(1) states; the paper stresses
// that this "does not fit the framework of passive communications". This
// engine exists to measure that contrast: with active pairwise exchange,
// information spread is epidemic-fast (Theta(log n) parallel time), so the
// Omega(n^{1-eps}) barrier is specifically a price of passivity, not of
// small memory. The engine is fault-free: the contrast (E20) is drawn on
// the fault-free dynamics.
#ifndef BITSPREAD_POPULATION_ENGINE_H_
#define BITSPREAD_POPULATION_ENGINE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/opinion.h"
#include "engine/stopping.h"
#include "engine/trajectory.h"
#include "random/rng.h"

namespace bitspread {

// A pairwise transition function over a finite state space. States are
// small integers; the displayed opinion is a projection of the state.
class PairwiseProtocol {
 public:
  virtual ~PairwiseProtocol() = default;

  virtual std::uint32_t state_count() const noexcept = 0;

  // The interaction (initiator, responder) -> (initiator', responder').
  // May randomize through rng.
  virtual std::pair<std::uint32_t, std::uint32_t> interact(
      std::uint32_t initiator, std::uint32_t responder, Rng& rng) const = 0;

  // The opinion an agent in `state` displays / would act on.
  virtual Opinion opinion(std::uint32_t state) const noexcept = 0;

  // State assigned to a non-source agent initially holding `opinion`.
  virtual std::uint32_t initial_state(Opinion opinion) const noexcept = 0;

  // State of a source agent holding `correct` (sources never update).
  virtual std::uint32_t source_state(Opinion correct) const noexcept = 0;

  virtual std::string name() const = 0;
};

class PopulationEngine {
 public:
  explicit PopulationEngine(const PairwiseProtocol& protocol) noexcept
      : protocol_(&protocol) {}

  struct Population {
    std::vector<std::uint32_t> states;  // Index < sources: pinned source.
    std::uint64_t sources = 1;
    Opinion correct = Opinion::kOne;

    std::uint64_t count_ones(const PairwiseProtocol& protocol) const noexcept;
  };

  Population make_population(std::uint64_t n, Opinion correct,
                             std::uint64_t initial_ones,
                             std::uint64_t sources = 1) const;

  // One interaction: a uniformly random ordered pair (distinct agents);
  // source agents participate (their state is visible to partners) but
  // their own state never changes.
  void interact(Population& population, Rng& rng) const;

  // StopRule::max_rounds in parallel rounds (n interactions each, the
  // standard population-protocol normalization); the result reports
  // TimeUnit::kActivations (ticks = interactions). The trajectory and the
  // flight-recorder round stream are recorded once per parallel round.
  RunResult run(Population& population, const StopRule& rule, Rng& rng,
                Trajectory* trajectory = nullptr) const;

  const PairwiseProtocol& protocol() const noexcept { return *protocol_; }

 private:
  const PairwiseProtocol* protocol_;
};

}  // namespace bitspread

#endif  // BITSPREAD_POPULATION_ENGINE_H_
