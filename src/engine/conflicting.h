// The majority-bit-dissemination substrate (paper §1.3): multiple stubborn
// sources with CONFLICTING opinions.
//
// Two camps of stubborn agents display 0 and 1 forever; the correct opinion
// is the majority preference among them. Korman & Vacus (2022) proved this
// variant IMPOSSIBLE with passive communication — no memory-less protocol
// can stabilize (indeed no full consensus even exists while both camps are
// non-empty). This engine lets experiments measure what actually happens:
// the free population drifts, oscillates, or hugs a quasi-stationary mix.
// With nothing absorbing there is no stop-rule run: `watch` steps a fixed
// number of rounds, and bench/E15 reports how often the free population at
// least tracks the majority camp.
#ifndef BITSPREAD_ENGINE_CONFLICTING_H_
#define BITSPREAD_ENGINE_CONFLICTING_H_

#include <cstdint>
#include <string>

#include "core/protocol.h"
#include "engine/stopping.h"
#include "engine/trajectory.h"
#include "random/rng.h"

namespace bitspread {

struct ConflictingConfiguration {
  std::uint64_t n = 0;     // Total agents, both camps included.
  std::uint64_t ones = 0;  // Agents displaying 1 (stubborn ones included).
  std::uint64_t stubborn_ones = 0;
  std::uint64_t stubborn_zeros = 0;

  bool valid() const noexcept {
    if (n == 0 || ones > n) return false;
    if (stubborn_ones + stubborn_zeros > n) return false;
    return ones >= stubborn_ones && n - ones >= stubborn_zeros;
  }

  std::uint64_t free_ones() const noexcept { return ones - stubborn_ones; }
  std::uint64_t free_zeros() const noexcept {
    return (n - ones) - stubborn_zeros;
  }
  double fraction_ones() const noexcept {
    return static_cast<double>(ones) / static_cast<double>(n);
  }

  // The problem's "correct" opinion: the majority preference among sources.
  Opinion majority_preference() const noexcept {
    return stubborn_ones >= stubborn_zeros ? Opinion::kOne : Opinion::kZero;
  }

  std::string describe() const;
};

class ConflictingAggregateEngine {
 public:
  explicit ConflictingAggregateEngine(
      const MemorylessProtocol& protocol) noexcept
      : protocol_(&protocol) {}

  ConflictingConfiguration step(const ConflictingConfiguration& config,
                                Rng& rng) const;

  struct WatchResult {
    // Fraction of rounds where the free population's majority agrees with
    // the sources' majority preference.
    double tracking_fraction = 0.0;
    // Fraction of rounds with >= 90% of FREE agents on the preference.
    double near_consensus_fraction = 0.0;
    ConflictingConfiguration final_config;
    RunTelemetry telemetry;
  };

  // Runs `rounds` rounds (there is no absorbing state to stop at while both
  // camps are non-empty), recording the trajectory if given.
  WatchResult watch(ConflictingConfiguration config, std::uint64_t rounds,
                    Rng& rng, Trajectory* trajectory = nullptr) const;

 private:
  const MemorylessProtocol* protocol_;
};

}  // namespace bitspread

#endif  // BITSPREAD_ENGINE_CONFLICTING_H_
