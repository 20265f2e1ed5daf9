// Per-round JSONL streaming: a RoundSink that turns the record_round()
// series into one JSON object per line, interleaving the trajectory X_t,
// the drift n·F_n(X_t/n) (when a bias callback is supplied by the caller —
// the telemetry layer never depends on analysis/), and per-phase nanosecond
// deltas read from the installed bundle's PhaseStats sink.
//
// Line schema (single line, no pretty-printing):
//   {"round":t,"ones":X,"n":n,"x":X/n,"drift":n*F(X/n)|null,
//    "phase_ns":{"round_step":...,...}}
//
// on_round() may arrive concurrently from pool workers when replicates run
// in parallel; a mutex serializes lines, so the file is always a valid
// JSONL document (lines may interleave across replicates — each line is
// self-describing). Like every telemetry sink, the stream reads counters
// and writes a file; it NEVER touches an RNG stream.
#ifndef BITSPREAD_TELEMETRY_JSONL_H_
#define BITSPREAD_TELEMETRY_JSONL_H_

#include <array>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>

#include "telemetry/telemetry.h"

namespace bitspread {
namespace telemetry {

class RoundStream : public RoundSink {
 public:
  struct Options {
    // Emit one line per `stride` rounds (round % stride == 0). Round 0 (the
    // initial configuration) is always on-stride.
    std::uint64_t stride = 1;
    // Open in append mode instead of truncating — the resume path, so the
    // lines of the pre-interrupt segment survive.
    bool append = false;
  };

  // Opens `path` for writing (truncates). ok() reports open failure.
  explicit RoundStream(const std::string& path);
  RoundStream(const std::string& path, Options options);

  bool ok() const { return static_cast<bool>(out_); }

  // Optional drift model: x ↦ F_n(x) on the density scale. The emitted
  // drift is n·F_n(X_t/n); without a bias the field is null. Set before
  // installing (not thread-safe against concurrent on_round).
  void set_bias(std::function<double(double)> bias) {
    bias_ = std::move(bias);
  }

  void on_round(std::uint64_t round, std::uint64_t ones,
                std::uint64_t n) override;

  // Quiescent-read accounting: rounds_seen() counts every on_round() call,
  // lines() the subset that passed the stride filter and was written.
  std::uint64_t rounds_seen() const { return rounds_seen_; }
  std::uint64_t lines() const { return lines_; }

  // Seeds the counters from a snapshot when resuming onto an appended file,
  // so accounting spans both run segments. Call before installing.
  void restore_counts(std::uint64_t rounds_seen, std::uint64_t lines) {
    rounds_seen_ = rounds_seen;
    lines_ = lines;
  }

  // Flushes the underlying file; false on I/O failure.
  bool flush();

 private:
  const std::uint64_t stride_;
  std::function<double(double)> bias_;
  std::mutex mutex_;
  std::ofstream out_;
  std::uint64_t rounds_seen_ = 0;
  std::uint64_t lines_ = 0;
  // Last-emitted per-phase totals, for delta reporting.
  std::array<std::uint64_t, kPhaseCount> last_phase_ns_{};
};

}  // namespace telemetry
}  // namespace bitspread

#endif  // BITSPREAD_TELEMETRY_JSONL_H_
