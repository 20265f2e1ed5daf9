#include "multi/engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "engine/run_loop.h"
#include "random/multinomial.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace {

// The m-ary consensus stop evaluation both engines share (replaces the
// driver's binary evaluate_stop via the stepper evaluate() hook).
std::optional<StopReason> evaluate_multi(const StopRule& rule,
                                         const MultiConfiguration& config) {
  if (config.is_correct_consensus()) return StopReason::kCorrectConsensus;
  if (rule.stop_on_any_consensus && config.is_consensus()) {
    return StopReason::kWrongConsensus;
  }
  return std::nullopt;
}

Configuration project(const MultiConfiguration& config) noexcept {
  return Configuration{config.n(), config.counts[config.correct],
                       Opinion::kOne, config.sources};
}

// Aggregate stepper: one multinomial draw per current opinion.
struct MultiAggregateStepper {
  const MultiAggregateEngine& engine;
  Rng& rng;
  MultiConfiguration state;
  Configuration projection;
  std::uint64_t samples = 0;

  Configuration& config() noexcept { return projection; }
  void step(std::uint64_t /*tick*/) {
    state = engine.step(state, rng);
    projection.ones = state.counts[state.correct];
    samples += (state.n() - state.sources) *
               engine.protocol().sample_size(state.n());
  }
  std::optional<StopReason> evaluate(const StopRule& rule) const {
    return evaluate_multi(rule, state);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
};

// Agent stepper: one explicit synchronous round per tick.
struct MultiAgentStepper {
  const MultiAgentEngine& engine;
  Rng& rng;
  MultiAgentEngine::Population& population;
  MultiConfiguration state;
  Configuration projection;
  std::uint64_t samples = 0;

  Configuration& config() noexcept { return projection; }
  void step(std::uint64_t /*tick*/) {
    engine.step(population, rng);
    state = population.config();
    projection.ones = state.counts[state.correct];
    samples += (state.n() - state.sources) *
               engine.protocol().sample_size(state.n());
  }
  std::optional<StopReason> evaluate(const StopRule& rule) const {
    return evaluate_multi(rule, state);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
};

MultiRunResult to_multi(const RunResult& run, MultiConfiguration&& state) {
  MultiRunResult result;
  result.reason = run.reason;
  result.rounds = run.ticks;
  result.final_config = std::move(state);
  result.telemetry = run.telemetry;
  return result;
}

}  // namespace

std::vector<double> MultiAggregateEngine::adoption_distribution(
    std::uint32_t own, const MultiConfiguration& config) const {
  const std::uint32_t m = config.opinion_count();
  const std::uint64_t n = config.n();
  const std::uint32_t ell = protocol_->sample_size(n);
  assert(ell <= 12 && m <= 6 &&
         "exact enumeration is for the constant-l regime");
  std::vector<double> fractions(m);
  for (std::uint32_t j = 0; j < m; ++j) fractions[j] = config.fraction(j);

  std::vector<double> q(m, 0.0);
  std::vector<double> out(m);
  for_each_histogram(m, ell, [&](std::span<const std::uint32_t> histogram) {
    const double weight = histogram_probability(histogram, fractions);
    if (weight == 0.0) return;
    protocol_->adoption_distribution(own, histogram, ell, n, out);
    for (std::uint32_t j = 0; j < m; ++j) q[j] += weight * out[j];
  });
  return q;
}

MultiConfiguration MultiAggregateEngine::step(const MultiConfiguration& config,
                                              Rng& rng) const {
  assert(config.valid());
  const std::uint32_t m = config.opinion_count();
  MultiConfiguration next = config;
  next.counts.assign(m, 0);
  next.counts[config.correct] = config.sources;

  const telemetry::Probe draw_probe(telemetry::Phase::kSampleDraw);
  for (std::uint32_t own = 0; own < m; ++own) {
    const std::uint64_t movers = config.non_source_count(own);
    if (movers == 0) continue;
    const std::vector<double> q = adoption_distribution(own, config);
    const std::vector<std::uint64_t> landed = multinomial(rng, movers, q);
    for (std::uint32_t j = 0; j < m; ++j) next.counts[j] += landed[j];
  }
  return next;
}

MultiRunResult MultiAggregateEngine::run(MultiConfiguration config,
                                         const StopRule& rule, Rng& rng,
                                         Trajectory* trajectory) const {
  assert(config.valid());
  MultiAggregateStepper stepper{*this, rng, std::move(config),
                                Configuration{}};
  stepper.projection = project(stepper.state);
  const RunResult run =
      RunDriver(TimePolicy::parallel()).run(stepper, rule, trajectory);
  return to_multi(run, std::move(stepper.state));
}

MultiConfiguration MultiAgentEngine::Population::config() const {
  MultiConfiguration result;
  result.counts.assign(opinion_count, 0);
  for (const std::uint32_t opinion : opinions) ++result.counts[opinion];
  result.correct = correct;
  result.sources = sources;
  return result;
}

MultiAgentEngine::Population MultiAgentEngine::make_population(
    const MultiConfiguration& config) const {
  assert(config.valid());
  Population population;
  population.correct = config.correct;
  population.sources = config.sources;
  population.opinion_count = config.opinion_count();
  population.opinions.reserve(config.n());
  for (std::uint64_t i = 0; i < config.sources; ++i) {
    population.opinions.push_back(config.correct);
  }
  for (std::uint32_t j = 0; j < config.opinion_count(); ++j) {
    for (std::uint64_t i = 0; i < config.non_source_count(j); ++i) {
      population.opinions.push_back(j);
    }
  }
  return population;
}

void MultiAgentEngine::step(Population& population, Rng& rng) const {
  const std::uint64_t n = population.opinions.size();
  const std::uint32_t m = population.opinion_count;
  const std::uint32_t ell = protocol_->sample_size(n);
  const std::vector<std::uint32_t> snapshot(population.opinions);

  std::vector<std::uint32_t> histogram(m);
  std::vector<double> distribution(m);
  for (std::uint64_t i = population.sources; i < n; ++i) {
    std::fill(histogram.begin(), histogram.end(), 0u);
    for (std::uint32_t s = 0; s < ell; ++s) {
      ++histogram[snapshot[rng.next_below(n)]];
    }
    protocol_->adoption_distribution(population.opinions[i], histogram, ell,
                                     n, distribution);
    // Inverse-CDF draw over the m opinions.
    double u = rng.next_double();
    std::uint32_t next = m - 1;
    for (std::uint32_t j = 0; j < m; ++j) {
      if (u < distribution[j]) {
        next = j;
        break;
      }
      u -= distribution[j];
    }
    population.opinions[i] = next;
  }
}

MultiRunResult MultiAgentEngine::run(MultiConfiguration config,
                                     const StopRule& rule, Rng& rng,
                                     Trajectory* trajectory) const {
  assert(config.valid());
  Population population = make_population(config);
  MultiAgentStepper stepper{*this, rng, population, population.config(),
                            Configuration{}};
  stepper.projection = project(stepper.state);
  const RunResult run =
      RunDriver(TimePolicy::parallel()).run(stepper, rule, trajectory);
  return to_multi(run, std::move(stepper.state));
}

}  // namespace bitspread
