// Engines for multi-opinion dynamics.
//
// MultiAggregateEngine generalizes the binary aggregate reduction: given the
// counts histogram, every agent with opinion b independently draws its next
// opinion from a common distribution q_b (computed EXACTLY by enumerating
// sample histograms — feasible for the constant-l regime the paper's
// footnote concerns), so one round is one multinomial draw per current
// opinion. MultiAgentEngine is the explicit per-agent fallback for any l.
//
// Both engines run through the shared RunDriver (engine/run_loop.h) with a
// custom consensus stop evaluation, so they take the same StopRule as the
// binary engines and emit trajectories, flight-recorder round streams, and
// telemetry. Neither takes an EnvironmentModel: no experiment runs the
// m-ary dynamics under faults. MultiAgentEngine doubles as the per-agent
// oracle the aggregate engine is tested against (tests/multi_opinion_test.cc).
#ifndef BITSPREAD_MULTI_ENGINE_H_
#define BITSPREAD_MULTI_ENGINE_H_

#include <cstdint>
#include <vector>

#include "engine/stopping.h"
#include "engine/trajectory.h"
#include "multi/configuration.h"
#include "multi/protocol.h"
#include "random/rng.h"

namespace bitspread {

// The multi-opinion run result: RunResult's shape with the m-ary final
// configuration. Rounds are always parallel rounds (both engines are
// synchronous).
struct MultiRunResult {
  StopReason reason = StopReason::kRoundLimit;
  std::uint64_t rounds = 0;
  MultiConfiguration final_config;
  RunTelemetry telemetry;

  bool converged() const noexcept {
    return reason == StopReason::kCorrectConsensus;
  }
  bool censored() const noexcept {
    return reason == StopReason::kRoundLimit ||
           reason == StopReason::kDegraded;
  }
};

class MultiAggregateEngine {
 public:
  explicit MultiAggregateEngine(const MultiOpinionProtocol& protocol) noexcept
      : protocol_(&protocol) {}

  // Exact adoption distribution q_own at the configuration's fractions,
  // by histogram enumeration. Requires constant l (asserts l <= 12 and
  // opinion_count <= 6: ~6k histograms).
  std::vector<double> adoption_distribution(
      std::uint32_t own, const MultiConfiguration& config) const;

  MultiConfiguration step(const MultiConfiguration& config, Rng& rng) const;

  // StopRule::max_rounds caps the run; stop_on_any_consensus maps onto
  // m-ary consensus (any absorbing consensus stops unless it is the correct
  // one). The interval fields are binary-specific and ignored.
  MultiRunResult run(MultiConfiguration config, const StopRule& rule,
                     Rng& rng, Trajectory* trajectory = nullptr) const;

  const MultiOpinionProtocol& protocol() const noexcept { return *protocol_; }

 private:
  const MultiOpinionProtocol* protocol_;
};

class MultiAgentEngine {
 public:
  explicit MultiAgentEngine(const MultiOpinionProtocol& protocol) noexcept
      : protocol_(&protocol) {}

  // Opinions per agent; the first `sources` agents hold `correct` forever.
  struct Population {
    std::vector<std::uint32_t> opinions;
    std::uint32_t correct = 0;
    std::uint64_t sources = 1;
    std::uint32_t opinion_count = 2;

    MultiConfiguration config() const;
  };

  Population make_population(const MultiConfiguration& config) const;
  void step(Population& population, Rng& rng) const;

  MultiRunResult run(MultiConfiguration config, const StopRule& rule,
                     Rng& rng, Trajectory* trajectory = nullptr) const;

  const MultiOpinionProtocol& protocol() const noexcept { return *protocol_; }

 private:
  const MultiOpinionProtocol* protocol_;
};

}  // namespace bitspread

#endif  // BITSPREAD_MULTI_ENGINE_H_
