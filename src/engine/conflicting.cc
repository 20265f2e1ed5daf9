#include "engine/conflicting.h"

#include <cassert>
#include <sstream>

#include "engine/aggregate.h"
#include "engine/run_loop.h"
#include "random/binomial.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace {

// Watch stepper: advances the native conflicting state, accumulates the
// tracking statistics, and mirrors the ones-count into a binary projection
// so the driver can record trajectory/round-stream points. Its evaluate()
// hook never stops — while both camps are non-empty there is no absorbing
// state, so only the round budget ends a watch.
struct WatchStepper {
  const ConflictingAggregateEngine& engine;
  Rng& rng;
  ConflictingConfiguration state;
  Configuration projection;
  Opinion preference = Opinion::kOne;
  std::uint64_t free_total = 0;
  std::uint32_t ell = 0;
  std::uint64_t tracking = 0;
  std::uint64_t near = 0;
  std::uint64_t samples = 0;

  Configuration& config() noexcept { return projection; }
  void step(std::uint64_t /*tick*/) {
    state = engine.step(state, rng);
    projection.ones = state.ones;
    const std::uint64_t aligned = preference == Opinion::kOne
                                      ? state.free_ones()
                                      : state.free_zeros();
    if (2 * aligned > free_total) ++tracking;
    if (10 * aligned >= 9 * free_total) ++near;
    samples += free_total * ell;
  }
  std::optional<StopReason> evaluate(const StopRule& /*rule*/) const {
    return std::nullopt;
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
};

// The zealot reduction: majority camp -> sources, minority camp -> exact
// extra zealots on the (initially) wrong opinion.
Configuration to_binary(const ConflictingConfiguration& config) noexcept {
  const Opinion preference = config.majority_preference();
  const std::uint64_t majority = preference == Opinion::kOne
                                     ? config.stubborn_ones
                                     : config.stubborn_zeros;
  return Configuration{config.n, config.ones, preference, majority};
}

std::uint64_t minority_count(const ConflictingConfiguration& config) noexcept {
  return config.majority_preference() == Opinion::kOne ? config.stubborn_zeros
                                                       : config.stubborn_ones;
}

}  // namespace

std::string ConflictingConfiguration::describe() const {
  std::ostringstream out;
  out << "ConflictingConfiguration{n=" << n << ", ones=" << ones
      << ", stubborn=(" << stubborn_zeros << " zeros, " << stubborn_ones
      << " ones)}";
  return out.str();
}

ConflictingConfiguration ConflictingAggregateEngine::step(
    const ConflictingConfiguration& config, Rng& rng) const {
  assert(config.valid());
  const double p = config.fraction_ones();
  const double p1 = protocol_->aggregate_adoption(Opinion::kOne, p, config.n);
  const double p0 = protocol_->aggregate_adoption(Opinion::kZero, p, config.n);
  const telemetry::Probe draw_probe(telemetry::Phase::kSampleDraw);
  ConflictingConfiguration next = config;
  next.ones = config.stubborn_ones + binomial(rng, config.free_ones(), p1) +
              binomial(rng, config.free_zeros(), p0);
  return next;
}

ConflictingAggregateEngine::WatchResult ConflictingAggregateEngine::watch(
    ConflictingConfiguration config, std::uint64_t rounds, Rng& rng,
    Trajectory* trajectory) const {
  assert(config.valid());
  const Opinion preference = config.majority_preference();
  WatchStepper stepper{*this,
                       rng,
                       config,
                       Configuration{config.n, config.ones, preference,
                                     config.stubborn_ones +
                                         config.stubborn_zeros},
                       preference,
                       config.free_ones() + config.free_zeros(),
                       protocol_->sample_size(config.n)};
  StopRule rule;
  rule.max_rounds = rounds;
  const RunResult run =
      RunDriver(TimePolicy::parallel()).run(stepper, rule, trajectory);
  WatchResult result;
  result.tracking_fraction =
      static_cast<double>(stepper.tracking) / static_cast<double>(rounds);
  result.near_consensus_fraction =
      static_cast<double>(stepper.near) / static_cast<double>(rounds);
  result.final_config = stepper.state;
  result.telemetry = run.telemetry;
  return result;
}

RunResult ConflictingAggregateEngine::run(
    const ConflictingConfiguration& config, const StopRule& rule, Rng& rng,
    Trajectory* trajectory) const {
  assert(config.valid());
  const AggregateParallelEngine aggregate(*protocol_);
  const std::uint64_t minority = minority_count(config);
  if (minority == 0) {
    // A single stubborn camp IS the standard model: delegate untouched.
    return aggregate.run(to_binary(config), rule, rng, trajectory);
  }
  EnvironmentModel model;
  model.extra_zealots = minority;
  return aggregate.run(to_binary(config), rule, model, rng, trajectory);
}

RunResult ConflictingAggregateEngine::run(
    const ConflictingConfiguration& config, const StopRule& rule,
    const EnvironmentModel& faults, Rng& rng, Trajectory* trajectory) const {
  assert(config.valid());
  EnvironmentModel model = faults;
  model.extra_zealots += minority_count(config);
  return AggregateParallelEngine(*protocol_)
      .run(to_binary(config), rule, model, rng, trajectory);
}

}  // namespace bitspread
