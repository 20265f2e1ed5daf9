// Checkpoint policy: WHEN snapshots are taken, WHERE they live on disk, and
// HOW a crashed run finds its way back.
//
// A Checkpointer owns a retained ring of the last R snapshots of one run:
// files <base>.<slot>.snap with slot = sequence mod R, each written
// crash-safely (snapshot/format.h). Auto-resume scans the ring, picks the
// entry with the highest write sequence among those that VERIFY (header +
// per-section CRC32C), and falls back ring entry by ring entry when the
// newest is truncated or bit-flipped — with a stderr diagnostic naming the
// corrupt file, because silently losing progress is exactly what this
// subsystem exists to prevent.
//
// install_checkpointer() publishes one Checkpointer process-wide (the only
// global slot beside the telemetry sink bundle) and every RunDriver
// consults it. A driver whose stepper lacks the snapshot hooks ignores it. The
// Checkpointer never touches an RNG stream and never mutates run state, so
// (like the flight recorder) it provably cannot perturb a simulation — the
// golden payload digests pin this.
//
// Interrupt protocol (SIGINT/SIGTERM): a signal handler calls
// request_interrupt(); every RunDriver polls the flag at parallel-round
// boundaries, writes a final snapshot (when a checkpointer is installed and
// the stepper is checkpointable), and returns StopReason::kInterrupted.
// Control then unwinds normally, so FlightRecorderScope destructors flush
// the trace and JSONL tails — graceful shutdown never loses buffered
// rounds. A second signal restores the default disposition, so a wedged
// process can still be killed the usual way.
#ifndef BITSPREAD_SNAPSHOT_CHECKPOINT_H_
#define BITSPREAD_SNAPSHOT_CHECKPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "snapshot/state.h"

namespace bitspread {
namespace snapshot {

struct CheckpointOptions {
  // Ring base path: entries land at <path>.<slot>.snap.
  std::string path;
  // Checkpoint every K parallel rounds (0 = only on interrupt).
  std::uint64_t every = 0;
  // Retained ring entries (clamped to >= 1).
  std::uint32_t ring = 2;
};

class Checkpointer {
 public:
  explicit Checkpointer(CheckpointOptions options);

  const CheckpointOptions& options() const noexcept { return options_; }

  // Resume side. `source` is "auto" (scan the ring, newest valid entry,
  // corrupt-entry fallback) or an explicit snapshot path (strict: a corrupt
  // file is a failure, no fallback). Returns false with last_error() set
  // when nothing valid was found. Call before the run starts.
  bool load_resume(const std::string& source);

  // True when load_resume() found a snapshot that has not been claimed yet.
  bool has_resume() const noexcept;
  // The loaded snapshot (for scope wiring, e.g. stream offsets); nullptr
  // when none.
  const RunSnapshot* pending_resume() const noexcept;

  // Driver protocol ------------------------------------------------------

  // Each starting run claims the next ordinal (0, 1, ...). Deterministic
  // for serially executed runs, which is what resume targets.
  std::uint64_t claim_run() noexcept { return runs_.fetch_add(1); }

  // The loaded snapshot, when it matches this run (ordinal + engine tag)
  // and has not been consumed; consuming is one-shot — a failed restore
  // falls back to a fresh run rather than retrying a bad snapshot.
  const RunSnapshot* take_resume(std::uint64_t ordinal, std::string_view tag);

  // True when a snapshot is due at the end of `round` (every K rounds).
  bool due(std::uint64_t round) const noexcept {
    return options_.every != 0 && round != 0 && round % options_.every == 0;
  }

  // Serializes and writes `snap` into the next ring slot (fills in the
  // write sequence and stream offsets). Thread-safe. Returns false and
  // keeps the previous ring entry intact on any I/O failure.
  bool write(RunSnapshot snap);

  // Write-time decorator: fills measurement-side fields the driver cannot
  // see (the RoundStream offsets). Set by the CLI scope before runs start;
  // invoked under the write lock.
  void set_decorator(std::function<void(RunSnapshot&)> decorator) {
    decorator_ = std::move(decorator);
  }

  // Accounting / diagnostics --------------------------------------------
  std::uint64_t written() const noexcept { return written_.load(); }
  std::uint64_t resumed_runs() const noexcept { return resumed_.load(); }
  std::string last_error() const;
  std::string ring_entry_path(std::uint32_t slot) const;

 private:
  void set_error(std::string message);

  CheckpointOptions options_;
  std::function<void(RunSnapshot&)> decorator_;
  mutable std::mutex mutex_;
  std::optional<RunSnapshot> resume_;
  bool resume_consumed_ = false;
  std::uint64_t sequence_ = 0;
  std::atomic<std::uint64_t> runs_{0};
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> resumed_{0};
  std::string error_;
};

// Process-wide checkpointer (nullptr = checkpointing off). Not owned;
// install for the duration of the runs it should observe, uninstall (pass
// nullptr) before destroying — the CheckpointScope in sim/cli.h does both.
void install_checkpointer(Checkpointer* checkpointer) noexcept;
Checkpointer* active_checkpointer() noexcept;

// Graceful-interrupt flag, polled by every RunDriver at round boundaries.
void request_interrupt() noexcept;
bool interrupt_requested() noexcept;
void clear_interrupt() noexcept;

// Installs SIGINT/SIGTERM handlers that request_interrupt() (first signal)
// and restore the default disposition (so a second signal kills). Idempotent;
// returns false if sigaction failed.
bool install_interrupt_handlers() noexcept;

}  // namespace snapshot
}  // namespace bitspread

#endif  // BITSPREAD_SNAPSHOT_CHECKPOINT_H_
