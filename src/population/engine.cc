#include "population/engine.h"

#include <cassert>

#include "engine/run_loop.h"

namespace bitspread {
namespace {

// Fault-free stepper: one tick = one scheduler round of n interactions; the
// display configuration is recounted once per round (O(n), the same
// amortization the hand-rolled loop used).
struct PopulationStepper {
  const PopulationEngine& engine;
  Rng& rng;
  PopulationEngine::Population& population;
  Configuration state;
  std::uint64_t samples = 0;

  Configuration& config() noexcept { return state; }
  void step(std::uint64_t /*tick*/) {
    const std::uint64_t n = population.states.size();
    for (std::uint64_t i = 0; i < n; ++i) engine.interact(population, rng);
    state.ones = population.count_ones(engine.protocol());
    // Each interaction reveals both partners' full states: two
    // observations per interaction is the passive-sampling equivalent.
    samples += 2 * n;
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
};

}  // namespace

std::uint64_t PopulationEngine::Population::count_ones(
    const PairwiseProtocol& protocol) const noexcept {
  std::uint64_t ones = 0;
  for (const std::uint32_t state : states) {
    ones += to_int(protocol.opinion(state));
  }
  return ones;
}

PopulationEngine::Population PopulationEngine::make_population(
    std::uint64_t n, Opinion correct, std::uint64_t initial_ones,
    std::uint64_t sources) const {
  assert(sources <= n);
  Population population;
  population.sources = sources;
  population.correct = correct;
  population.states.reserve(n);
  const std::uint64_t source_ones = correct == Opinion::kOne ? sources : 0;
  assert(initial_ones >= source_ones &&
         initial_ones - source_ones <= n - sources);
  for (std::uint64_t i = 0; i < sources; ++i) {
    population.states.push_back(protocol_->source_state(correct));
  }
  for (std::uint64_t i = 0; i < initial_ones - source_ones; ++i) {
    population.states.push_back(protocol_->initial_state(Opinion::kOne));
  }
  for (std::uint64_t i = sources + (initial_ones - source_ones); i < n; ++i) {
    population.states.push_back(protocol_->initial_state(Opinion::kZero));
  }
  return population;
}

void PopulationEngine::interact(Population& population, Rng& rng) const {
  const std::uint64_t n = population.states.size();
  assert(n >= 2);
  const std::uint64_t a = rng.next_below(n);
  std::uint64_t b = rng.next_below(n - 1);
  if (b >= a) ++b;
  const auto [next_a, next_b] =
      protocol_->interact(population.states[a], population.states[b], rng);
  if (a >= population.sources) population.states[a] = next_a;
  if (b >= population.sources) population.states[b] = next_b;
}

RunResult PopulationEngine::run(Population& population, const StopRule& rule,
                                Rng& rng, Trajectory* trajectory) const {
  const std::uint64_t n = population.states.size();
  PopulationStepper stepper{
      *this, rng, population,
      Configuration{n, population.count_ones(*protocol_), population.correct,
                    population.sources}};
  return RunDriver(TimePolicy::interaction_rounds(n))
      .run(stepper, rule, trajectory);
}

}  // namespace bitspread
