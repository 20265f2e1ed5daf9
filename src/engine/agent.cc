#include "engine/agent.h"

#include <cassert>

#include "engine/run_loop.h"
#include "faults/session.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace {

// Fault-free stepper over an explicit population (run and run_population).
struct AgentPopulationStepper {
  const AgentParallelEngine& engine;
  AgentParallelEngine::Population& population;
  Rng& rng;
  Configuration state;
  std::uint64_t samples = 0;

  Configuration& config() noexcept { return state; }
  void step(std::uint64_t /*tick*/) {
    engine.step(population, rng);
    state = population.config();
    samples += (state.n - state.sources) *
               engine.protocol().sample_size(state.n);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
};

// Faulty stepper: noise/zealots/spontaneous inside step_faulty, per-agent
// churn and the flip mirror at the driver's round boundaries. The O(n)
// ones-recount happens once per round, in end_round.
struct AgentFaultyStepper {
  const AgentParallelEngine& engine;
  AgentParallelEngine::Population& population;
  FaultSession& session;
  Rng& rng;
  Configuration state;
  std::uint64_t samples = 0;
  std::uint64_t churn_events = 0;

  Configuration& config() noexcept { return state; }
  void step(std::uint64_t /*tick*/) {
    engine.step_faulty(population, session, rng);
    samples += session.free_agents() *
               engine.protocol().sample_size(state.n);
  }
  void sync_flip() {
    // Mirror the flip onto the explicit state: sources display the new
    // correct opinion (fresh initial views), everyone else is untouched.
    population.correct = state.correct;
    for (std::uint64_t i = 0; i < population.sources; ++i) {
      population.views[i] = engine.protocol().initial_view(state.correct);
    }
    assert(population.config().ones == state.ones);
  }
  void end_round(std::uint64_t /*round*/) {
    const EnvironmentModel& model = session.model();
    if (model.churn_rate > 0.0) {
      // Each free agent crashes independently; its replacement boots in the
      // protocol's initial view for the currently wrong opinion.
      const Opinion wrong = opposite(population.correct);
      for (std::uint64_t i = population.sources;
           i < population.views.size(); ++i) {
        if (session.is_zealot(i)) continue;
        if (rng.bernoulli(model.churn_rate)) {
          population.views[i] = engine.protocol().initial_view(wrong);
          ++churn_events;
        }
      }
    }
    state = population.config();
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
  std::uint64_t churned() const noexcept { return churn_events; }
};

// Sequential activation stepper: birth-death increments, no recount.
struct AgentActivationStepper {
  const AgentSequentialEngine& engine;
  AgentParallelEngine::Population& population;
  Rng& rng;
  Configuration state;
  std::uint64_t samples = 0;

  Configuration& config() noexcept { return state; }
  void step(std::uint64_t /*tick*/) {
    state.ones = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(state.ones) +
        engine.activate(population, rng));
    samples += engine.protocol().sample_size(state.n);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
};

}  // namespace

std::uint64_t AgentParallelEngine::Population::count_ones() const noexcept {
  std::uint64_t ones = 0;
  for (const auto& view : views) ones += to_int(view.opinion);
  return ones;
}

Configuration AgentParallelEngine::Population::config() const noexcept {
  return Configuration{views.size(), count_ones(), correct, sources};
}

AgentParallelEngine::Population AgentParallelEngine::make_population(
    const Configuration& config) const {
  assert(config.valid());
  assert(topology_ == nullptr || topology_->size() == config.n);
  // Structured graphs: every non-source agent must have someone to observe,
  // and without-replacement samples must fit inside the smallest row.
  assert(topology_ == nullptr || topology_->is_complete() ||
         topology_->min_degree() > 0);
  assert(sampling_ != Sampling::kWithoutReplacement || topology_ == nullptr ||
         topology_->supports_distinct(protocol_->sample_size(config.n)));
  Population population;
  population.correct = config.correct;
  population.sources = config.sources;
  population.uniform = Topology::complete(config.n);
  population.views.reserve(config.n);
  for (std::uint64_t i = 0; i < config.sources; ++i) {
    population.views.push_back(protocol_->initial_view(config.correct));
  }
  for (std::uint64_t i = 0; i < config.non_source_ones(); ++i) {
    population.views.push_back(protocol_->initial_view(Opinion::kOne));
  }
  for (std::uint64_t i = 0; i < config.non_source_zeros(); ++i) {
    population.views.push_back(protocol_->initial_view(Opinion::kZero));
  }
  assert(population.count_ones() == config.ones);
  return population;
}

std::uint32_t AgentParallelEngine::observe_ones(
    const std::vector<Opinion>& opinions, const Topology& topo,
    std::uint64_t agent, std::uint32_t ell, Rng& rng,
    FloydSampler& sampler) const noexcept {
  // Both branches route through the Topology seam; its complete-graph paths
  // replay the legacy draw sequence verbatim (l uniform draws from [0, n),
  // or one Floyd l-subset of [0, n)), so the complete graph stays
  // bit-identical to the pre-topology engine.
  std::uint32_t ones_seen = 0;
  if (sampling_ == Sampling::kWithReplacement) {
    topo.sample_neighbors(agent, ell, rng, [&](std::uint64_t index) noexcept {
      ones_seen += to_int(opinions[index]);
    });
    return ones_seen;
  }
  topo.sample_neighbors_distinct(
      agent, ell, rng, sampler, [&](std::uint64_t index) noexcept {
        ones_seen += to_int(opinions[index]);
      });
  return ones_seen;
}

std::uint32_t AgentParallelEngine::observe_ones_noisy(
    const std::vector<Opinion>& opinions, const Topology& topo,
    std::uint64_t agent, std::uint32_t ell, double epsilon, Rng& rng,
    FloydSampler& sampler) const noexcept {
  if (epsilon <= 0.0) {
    return observe_ones(opinions, topo, agent, ell, rng, sampler);
  }
  std::uint32_t ones_seen = 0;
  const auto noisy = [&](std::uint64_t index) noexcept {
    const unsigned bit = to_int(opinions[index]);
    ones_seen += rng.bernoulli(epsilon) ? bit ^ 1U : bit;
  };
  if (sampling_ == Sampling::kWithReplacement) {
    topo.sample_neighbors(agent, ell, rng, noisy);
  } else {
    topo.sample_neighbors_distinct(agent, ell, rng, sampler, noisy);
  }
  return ones_seen;
}

void AgentParallelEngine::step(Population& population, Rng& rng) const {
  const std::uint64_t n = population.views.size();
  const std::uint32_t ell = protocol_->sample_size(n);

  // Snapshot the displayed opinions into the population-owned buffer: all
  // samples observe round-t opinions, and repeated steps reuse the storage.
  population.snapshot.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    population.snapshot[i] = population.views[i].opinion;
  }

  const telemetry::Probe draw_probe(telemetry::Phase::kSampleDraw);
  const Topology& topo = topology_of(population);
  for (std::uint64_t i = population.sources; i < n; ++i) {
    const std::uint32_t ones_seen =
        observe_ones(population.snapshot, topo, i, ell, rng,
                     population.sampler);
    population.views[i] =
        protocol_->update(population.views[i], ones_seen, ell, n, rng);
  }
}

RunResult AgentParallelEngine::run(Configuration config, const StopRule& rule,
                                   Rng& rng, Trajectory* trajectory) const {
  Population population = make_population(config);
  return run_population(population, rule, rng, trajectory);
}

void AgentParallelEngine::step_faulty(Population& population,
                                      const FaultSession& session,
                                      Rng& rng) const {
  const EnvironmentModel& model = session.model();
  const std::uint64_t n = population.views.size();
  const std::uint32_t ell = protocol_->sample_size(n);

  population.snapshot.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    population.snapshot[i] = population.views[i].opinion;
  }

  const telemetry::Probe draw_probe(telemetry::Phase::kSampleDraw);
  const Topology& topo = topology_of(population);
  for (std::uint64_t i = population.sources; i < n; ++i) {
    if (session.is_zealot(i)) continue;
    const std::uint32_t ones_seen =
        observe_ones_noisy(population.snapshot, topo, i, ell,
                           model.observation_noise, rng, population.sampler);
    population.views[i] =
        protocol_->update(population.views[i], ones_seen, ell, n, rng);
    if (model.spontaneous_rate > 0.0 && rng.bernoulli(model.spontaneous_rate)) {
      // The spontaneous channel overrides the displayed opinion only; the
      // internal state survives (a "glitch", not a reset).
      population.views[i].opinion = rng.bernoulli(model.spontaneous_bias)
                                        ? Opinion::kOne
                                        : Opinion::kZero;
    }
  }
}

RunResult AgentParallelEngine::run(Configuration config, const StopRule& rule,
                                   const EnvironmentModel& faults, Rng& rng,
                                   Trajectory* trajectory) const {
  assert(config.valid());
  FaultSession session(faults, config);
  config = session.plant(config);
  Population population = make_population(config);
  AgentFaultyStepper stepper{*this, population, session, rng,
                             population.config()};
  return RunDriver(TimePolicy::parallel())
      .run(stepper, rule, session, trajectory);
}

RunResult AgentParallelEngine::run_population(Population& population,
                                              const StopRule& rule, Rng& rng,
                                              Trajectory* trajectory) const {
  AgentPopulationStepper stepper{*this, population, rng, population.config()};
  return RunDriver(TimePolicy::parallel()).run(stepper, rule, trajectory);
}

int AgentSequentialEngine::activate(Population& population, Rng& rng) const {
  const std::uint64_t n = population.views.size();
  const std::uint32_t ell = protocol_->sample_size(n);
  const std::uint64_t non_source = n - population.sources;
  const std::uint64_t agent = population.sources + rng.next_below(non_source);
  // The activation pick above stays uniform (global scheduler); only the
  // observations route through the topology seam. Complete branch replays
  // the legacy l draws from [0, n) verbatim.
  const Topology& topo =
      topology_ != nullptr ? *topology_ : population.uniform;
  std::uint32_t ones_seen = 0;
  topo.sample_neighbors(agent, ell, rng, [&](std::uint64_t index) noexcept {
    ones_seen += to_int(population.views[index].opinion);
  });
  const Opinion before = population.views[agent].opinion;
  population.views[agent] =
      protocol_->update(population.views[agent], ones_seen, ell, n, rng);
  return to_int(population.views[agent].opinion) - to_int(before);
}

RunResult AgentSequentialEngine::run(Configuration config,
                                     const StopRule& rule, Rng& rng,
                                     Trajectory* trajectory) const {
  Population population = make_population(config);
  // The displayed ones-count changes by at most one per activation; track it
  // incrementally instead of recounting.
  Configuration current = config;
  current.ones = population.count_ones();
  AgentActivationStepper stepper{*this, population, rng, current};
  return RunDriver(TimePolicy::activations(config.n))
      .run(stepper, rule, trajectory);
}

}  // namespace bitspread
