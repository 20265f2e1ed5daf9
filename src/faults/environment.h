// The fault plan: a declarative EnvironmentModel every engine consumes.
//
// The paper's problem is *self-stabilizing* bit-dissemination — recovery from
// adversarial configurations is the whole point — so the simulation substrate
// must be able to stress a run WHILE it executes, not only start it badly.
// This model composes four orthogonal fault channels:
//
//   1. Observation noise (epsilon) — every bit an agent observes passes
//      through a binary symmetric channel that flips it with probability
//      epsilon (the noisy PULL model of D'Archivio, Korman, Natale & Vacus,
//      arXiv:2411.02560). Agent-level engines flip the sampled bits; the
//      aggregate engine uses the exact closed form: an observed agent reads
//      as 1 with probability (1-e)p + e(1-p), so the sample law is exactly
//      Binomial(l, noisy_fraction(p)).
//   2. Spontaneous noise (eta, bias) — with probability eta an agent ignores
//      its sample and adopts 1 with probability `bias`. This is the channel
//      PerturbedProtocol (protocols/perturbed.h) expresses at the protocol
//      level; folding it here lets it compose with the other channels.
//   3. Zealots (z) — a fraction z of the non-source agents permanently hold
//      the opinion that is wrong at round 0 (stubborn adversarial agents, as
//      in Becchetti et al., arXiv:2302.08600). Zealots never update and keep
//      their opinion through source flips.
//   4. Source dynamics — a schedule of rounds at which the correct opinion
//      flips. The key new measurement is *re-convergence time after a flip*
//      (RecoverySegment in engine/stopping.h), not just first convergence.
//   5. Churn (delta) — per round, each free (non-source, non-zealot) agent
//      crashes with probability delta and is replaced by an adversarially
//      chosen agent holding the currently wrong opinion, with reset memory.
//
// Determinism contract: engines draw all fault randomness either from the
// caller's run stream (single-threaded engines) or from dedicated
// per-(round, block) streams derived from the run's SeedSequence (the
// sharded engine), so a faulty run is exactly reproducible from its seed and
// the sharded engine stays bit-identical across thread/shard counts with
// every channel enabled (tests/faults_determinism_test.cc).
#ifndef BITSPREAD_FAULTS_ENVIRONMENT_H_
#define BITSPREAD_FAULTS_ENVIRONMENT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bitspread {

struct EnvironmentModel {
  // Channel 1: per-observed-bit flip probability (epsilon in [0, 1/2]).
  double observation_noise = 0.0;
  // Channel 2: spontaneous-noise rate eta and its adoption bias.
  double spontaneous_rate = 0.0;
  double spontaneous_bias = 0.5;
  // Channel 3: fraction of non-source agents pinned to the initially wrong
  // opinion.
  double zealot_fraction = 0.0;
  // Channel 3, exact form: zealots added ON TOP of the fraction, as an
  // absolute count for an adversarial camp of exact size, while
  // zealot_fraction serves the scale-free sweeps. Only tests set it (the
  // cross-check of ConflictingAggregateEngine::watch against this channel).
  std::uint64_t extra_zealots = 0;
  // Channel 5: per-round crash probability of each free agent.
  double churn_rate = 0.0;
  // Channel 4: rounds at which the correct opinion flips (kept sorted and
  // deduplicated by normalized()).
  std::vector<std::uint64_t> source_flip_rounds;

  // Convergence criterion under faults: the fraction of NON-ZEALOT agents
  // that must hold the correct opinion for the run to count as (re)converged.
  // 1.0 demands exact consensus among non-zealots; noisy runs typically use
  // e.g. 0.95 because noise makes exact consensus non-absorbing.
  double convergence_quorum = 1.0;

  // A copy with every probability clamped into its legal range (NaN -> 0,
  // quorum NaN -> 1), epsilon capped at 1/2 (a BSC beyond 1/2 is the same
  // channel with bits relabeled), and the flip schedule sorted + deduped.
  // Engines normalize on entry, so out-of-range inputs can never produce a
  // probability outside [0, 1].
  EnvironmentModel normalized() const;

  // True if any channel is active (an inactive model reduces every faulty
  // code path to the fault-free dynamics).
  bool active() const noexcept;

  // Number of zealots for a population of n agents with `sources` sources:
  // floor(zealot_fraction * (n - sources)) + extra_zealots, capped at
  // n - sources.
  std::uint64_t zealot_count(std::uint64_t n,
                             std::uint64_t sources) const noexcept;

  // Probability an observed agent reads as 1 when the true fraction of ones
  // is p: (1 - e) p + e (1 - p). The exact aggregate form of channel 1.
  double noisy_fraction(double p) const noexcept {
    return p + observation_noise * (1.0 - 2.0 * p);
  }

  // True when a wrong consensus is not absorbing under this model (noise or
  // spontaneous adoption can always re-seed the correct opinion), so engines
  // must not stop on it.
  bool wrong_consensus_escapable() const noexcept {
    return observation_noise > 0.0 || spontaneous_rate > 0.0;
  }

  std::string describe() const;
};

}  // namespace bitspread

#endif  // BITSPREAD_FAULTS_ENVIRONMENT_H_
