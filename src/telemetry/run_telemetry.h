// RunTelemetry: per-run measurement summary attached to RunResult.
//
// This struct is OUTSIDE the simulation payload: the RunDriver fills it on
// every run, and the determinism/byte-identity tests deliberately exclude it
// when comparing RunResults (it holds wall-clock time). It must never feed
// back into stepping logic.
#ifndef BITSPREAD_TELEMETRY_RUN_TELEMETRY_H_
#define BITSPREAD_TELEMETRY_RUN_TELEMETRY_H_

#include <cstdint>

namespace bitspread {

struct RunTelemetry {
  double wall_seconds = 0.0;
  std::uint64_t rounds = 0;

  // Observation samples drawn, unified across engines: parallel engines
  // count (free agents) x sample size per round; sequential engines count
  // sample size per activation. Zealots never draw.
  std::uint64_t samples_drawn = 0;

  // Fault events by channel (mirrors FaultSession accounting).
  std::uint64_t fault_flips = 0;
  std::uint64_t fault_zealots = 0;
  std::uint64_t fault_churned = 0;

  // Recovery-segment timings (closed segments only).
  std::uint64_t recovered_segments = 0;
  std::uint64_t recovery_rounds_total = 0;

  double rounds_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(rounds) / wall_seconds
                              : 0.0;
  }
};

}  // namespace bitspread

#endif  // BITSPREAD_TELEMETRY_RUN_TELEMETRY_H_
