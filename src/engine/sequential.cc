#include "engine/sequential.h"

#include <cassert>

#include "engine/run_loop.h"
#include "faults/session.h"
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

// Faulty stepper: the activated agent is uniform over the non-source slots;
// the last `zealots` of them are frozen, the free agents hold one iff their
// index falls below the free ones-count.
struct SequentialFaultyStepper {
  const MemorylessProtocol& protocol;
  FaultSession& session;
  Rng& rng;
  Configuration state;
  std::uint32_t ell = 0;
  std::uint64_t samples = 0;

  Configuration& config() noexcept { return state; }
  void step(std::uint64_t /*tick*/) {
    const EnvironmentModel& model = session.model();
    const std::uint64_t non_source = state.n - state.sources;
    const std::uint64_t index = rng.next_below(non_source);
    const std::uint64_t free = session.free_agents();
    if (index >= free) return;  // A zealot activation is a no-op.
    const bool holds_one = index < session.free_ones(state);
    const Opinion own = holds_one ? Opinion::kOne : Opinion::kZero;
    // BSC noise on l observed bits == sampling Bin(l, noisy_fraction(p)).
    const auto ones_seen = static_cast<std::uint32_t>(
        binomial(rng, ell, model.noisy_fraction(state.fraction_ones())));
    const double adopt_one =
        (1.0 - model.spontaneous_rate) *
            protocol.g(own, ones_seen, ell, state.n) +
        model.spontaneous_rate * model.spontaneous_bias;
    const Opinion next =
        rng.bernoulli(adopt_one) ? Opinion::kOne : Opinion::kZero;
    if (own != next) state.ones += next == Opinion::kOne ? 1 : -1;
    samples += ell;
  }
  void end_round(std::uint64_t /*round*/) {
    state = session.churn(state, rng);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }

  static constexpr const char* kSnapshotTag = "sequential.faulty";
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

RunResult SequentialEngine::run(Configuration config, const StopRule& rule,
                                const EnvironmentModel& faults, Rng& rng,
                                Trajectory* trajectory) const {
  assert(config.valid());
  assert(config.n - config.sources > 0);
  FaultSession session(faults, config);
  config = session.plant(config);
  SequentialFaultyStepper stepper{*protocol_, session, rng, config,
                                  protocol_->sample_size(config.n)};
  return RunDriver(TimePolicy::activations(config.n))
      .run(stepper, rule, session, trajectory);
}

}  // namespace bitspread
