#include "engine/alpha_sync.h"

#include <algorithm>
#include <cassert>

#include "engine/run_loop.h"
#include "random/binomial.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace {

// Fault-free stepper. The round arithmetic mirrors
// AlphaSynchronousEngine::step draw-for-draw; it is inlined here so the
// stepper can count the activated agents (only they draw samples).
struct AlphaStepper {
  const AlphaSynchronousEngine& engine;
  Rng& rng;
  Configuration state;
  std::uint64_t samples = 0;

  Configuration& config() noexcept { return state; }
  void step(std::uint64_t /*tick*/) {
    const MemorylessProtocol& protocol = engine.protocol();
    const double p = state.fraction_ones();
    const double p1 = protocol.aggregate_adoption(Opinion::kOne, p, state.n);
    const double p0 = protocol.aggregate_adoption(Opinion::kZero, p, state.n);
    const telemetry::Probe draw_probe(telemetry::Phase::kSampleDraw);
    const std::uint64_t active_ones =
        binomial(rng, state.non_source_ones(), engine.alpha());
    const std::uint64_t active_zeros =
        binomial(rng, state.non_source_zeros(), engine.alpha());
    const std::uint64_t stay_ones = state.non_source_ones() - active_ones;
    state.ones = state.source_ones() + stay_ones +
                 binomial(rng, active_ones, p1) +
                 binomial(rng, active_zeros, p0);
    samples += (active_ones + active_zeros) *
               protocol.sample_size(state.n);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
};

}  // namespace

AlphaSynchronousEngine::AlphaSynchronousEngine(
    const MemorylessProtocol& protocol, double alpha) noexcept
    : protocol_(&protocol), alpha_(std::clamp(alpha, 0.0, 1.0)) {
  assert(alpha > 0.0 && alpha <= 1.0);
}

Configuration AlphaSynchronousEngine::step(const Configuration& config,
                                           Rng& rng) const {
  assert(config.valid());
  const double p = config.fraction_ones();
  const double p1 = protocol_->aggregate_adoption(Opinion::kOne, p, config.n);
  const double p0 = protocol_->aggregate_adoption(Opinion::kZero, p, config.n);

  const std::uint64_t active_ones =
      binomial(rng, config.non_source_ones(), alpha_);
  const std::uint64_t active_zeros =
      binomial(rng, config.non_source_zeros(), alpha_);
  const std::uint64_t stay_ones = config.non_source_ones() - active_ones;

  Configuration next = config;
  next.ones = config.source_ones() + stay_ones +
              binomial(rng, active_ones, p1) + binomial(rng, active_zeros, p0);
  return next;
}

RunResult AlphaSynchronousEngine::run(Configuration config,
                                      const StopRule& rule, Rng& rng,
                                      Trajectory* trajectory) const {
  AlphaStepper stepper{*this, rng, config};
  return RunDriver(TimePolicy::alpha_rounds(alpha_))
      .run(stepper, rule, trajectory);
}

}  // namespace bitspread
