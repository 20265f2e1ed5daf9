#include "engine/sequential.h"

#include <cassert>

#include "engine/run_loop.h"
#include "random/binomial.h"
#include "snapshot/state.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace {

// Fault-free stepper: one activation per tick.
struct SequentialStepper {
  const SequentialEngine& engine;
  Rng& rng;
  Configuration state;
  std::uint32_t ell = 0;
  std::uint64_t samples = 0;

  Configuration& config() noexcept { return state; }
  void step(std::uint64_t /*tick*/) {
    state = engine.step(state, rng);
    samples += ell;
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }

  static constexpr const char* kSnapshotTag = "sequential";
  void capture(snapshot::StepperState& out) const {
    out.rng.assign(1, rng.state());
    out.samples_drawn = samples;
  }
  bool restore(const snapshot::StepperState& saved) {
    if (saved.rng.size() != 1) return false;
    rng.set_state(saved.rng[0]);
    samples = saved.samples_drawn;
    return true;
  }
};

}  // namespace

Configuration SequentialEngine::step(const Configuration& config,
                                     Rng& rng) const {
  assert(config.valid());
  const std::uint64_t non_source = config.n - config.sources;
  assert(non_source > 0);

  // Which opinion does the activated agent hold?
  const bool holds_one =
      rng.next_below(non_source) < config.non_source_ones();
  const Opinion own = holds_one ? Opinion::kOne : Opinion::kZero;

  // Its sample: l u.a.r. draws (with replacement) from ALL agents.
  const std::uint32_t ell = protocol_->sample_size(config.n);
  std::uint32_t ones_seen;
  {
    const telemetry::Probe draw_probe(telemetry::Phase::kSampleDraw);
    ones_seen = static_cast<std::uint32_t>(
        binomial(rng, ell, config.fraction_ones()));
  }

  const double adopt_one = protocol_->g(own, ones_seen, ell, config.n);
  const Opinion next =
      rng.bernoulli(adopt_one) ? Opinion::kOne : Opinion::kZero;

  Configuration result = config;
  if (own != next) {
    result.ones += next == Opinion::kOne ? 1 : -1;
  }
  return result;
}

RunResult SequentialEngine::run(Configuration config, const StopRule& rule,
                                Rng& rng, Trajectory* trajectory) const {
  SequentialStepper stepper{*this, rng, config,
                            protocol_->sample_size(config.n)};
  return RunDriver(TimePolicy::activations(config.n))
      .run(stepper, rule, trajectory);
}

}  // namespace bitspread
