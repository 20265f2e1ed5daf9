// The alpha-synchronous scheduler: interpolating between the paper's two
// worlds.
//
// Each round, every non-source agent independently activates with
// probability alpha; activated agents sample and update simultaneously,
// the rest keep their opinion. alpha = 1 is the parallel setting; alpha ~
// 1/n approximates the sequential one (one activation per round in
// expectation). Since the minority dynamics' speed rests on ALL agents
// reacting to the same global sample statistics at once (§1: "the power of
// synchronicity"), sweeping alpha locates how much synchrony the overshoot
// mechanism actually needs — a question the dichotomy of [14] vs [15]
// leaves wide open. Exact aggregate form: among the ns_b agents holding b,
//   activated A_b ~ Bin(ns_b, alpha),  adopters ~ Bin(A_b, P_b(x/n)),
// so one round is four binomial draws.
#ifndef BITSPREAD_ENGINE_ALPHA_SYNC_H_
#define BITSPREAD_ENGINE_ALPHA_SYNC_H_

#include "core/configuration.h"
#include "core/protocol.h"
#include "engine/stopping.h"
#include "engine/trajectory.h"
#include "random/rng.h"

namespace bitspread {

class AlphaSynchronousEngine {
 public:
  // alpha in (0, 1]; 1 reproduces AggregateParallelEngine::step exactly.
  AlphaSynchronousEngine(const MemorylessProtocol& protocol,
                         double alpha) noexcept;

  Configuration step(const Configuration& config, Rng& rng) const;

  // StopRule::max_rounds counts alpha-rounds; the result reports
  // TimeUnit::kAlphaRounds (RunResult::parallel_rounds() applies the
  // alpha-to-parallel conversion: each round performs alpha*n activations
  // in expectation).
  RunResult run(Configuration config, const StopRule& rule, Rng& rng,
                Trajectory* trajectory = nullptr) const;

  double alpha() const noexcept { return alpha_; }
  const MemorylessProtocol& protocol() const noexcept { return *protocol_; }

 private:
  const MemorylessProtocol* protocol_;
  double alpha_;
};

}  // namespace bitspread

#endif  // BITSPREAD_ENGINE_ALPHA_SYNC_H_
