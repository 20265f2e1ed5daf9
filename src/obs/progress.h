// Live run progress: the seqlock board the introspection server reads.
//
// A ProgressBoard is a fixed array of single-writer seqlock slots. Each run
// claims one slot for its lifetime and publishes a ProgressRecord into it —
// current round, X_t, drift estimate, rounds/sec, ETA against the stop-rule
// cap, fault-session counters, and the checkpoint-ring position — while HTTP
// readers copy slots without ever blocking the writer.
//
// Memory model. A textbook seqlock reads/writes a plain struct between two
// sequence bumps, which is a data race under the C++ model (and under TSan).
// Every field here is therefore its own relaxed atomic: the odd/even sequence
// word (acquire/release) still decides whether a read is consistent, and the
// relaxed field accesses are race-free by construction. The engine tag is an
// `std::atomic<const char*>` and MUST point at a string literal (or other
// immortal storage) — readers dereference it after the writer may have moved
// on.
//
// Cost discipline (the --listen acceptance bar):
//  - No board installed: a RunProgressScope gets a null board from the
//    bundle the RunDriver resolved once per run; on_round() is a null
//    check. Zero atomics in the loop.
//  - Board installed: on_round() is one comparison per round until the
//    publish stride elapses; a publish is one clock read plus ~16 relaxed
//    stores. The stride adapts toward ~10 publishes/sec, so a 40 ns
//    aggregate round and a 100 ms population round both pay ~nothing.
//
// The board is the `progress` field of the sink bundle (telemetry::Sinks),
// installed through a telemetry::SinkScope.
#ifndef BITSPREAD_OBS_PROGRESS_H_
#define BITSPREAD_OBS_PROGRESS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace bitspread {

class FaultSession;

namespace obs {

// One consistent copy of a slot, as read by /progress and bitspread_top.
struct ProgressRecord {
  bool active = false;            // Run still inside RunDriver::drive().
  std::uint64_t run_ordinal = 0;  // Claim order (monotone across the board).
  const char* engine = "";        // Stepper tag; a string literal.
  bool faulty = false;            // Driven with a FaultSession.
  std::uint64_t round = 0;        // Last published parallel round.
  std::uint64_t max_rounds = 0;   // StopRule cap (ETA denominator).
  std::uint64_t ones = 0;         // X_t at `round`.
  std::uint64_t n = 0;            // Population size.
  double rounds_per_sec = 0.0;    // EWMA publish-to-publish rate.
  double drift_per_round = 0.0;   // EWMA of (ΔX_t / Δround).
  double eta_seconds = 0.0;       // (max_rounds - round) / rounds_per_sec.
  std::uint64_t fault_flips = 0;  // Source flips applied so far.
  std::uint64_t recovery_segments = 0;
  std::uint64_t checkpoint_slot = 0;  // Snapshot-ring writes so far.
  std::uint64_t start_ns = 0;         // Steady-clock ns at claim.
  std::uint64_t publish_ns = 0;       // Steady-clock ns of this publish.
};

// The board. One writer per claimed slot, any number of readers.
class ProgressBoard {
 public:
  static constexpr std::size_t kSlots = 16;
  static constexpr std::size_t kNoSlot = kSlots;  // claim() overflow result.

  ProgressBoard() = default;
  ProgressBoard(const ProgressBoard&) = delete;
  ProgressBoard& operator=(const ProgressBoard&) = delete;

  // Claims a free slot (CAS on its busy flag) and stamps the immutable
  // fields. Returns kNoSlot when more than kSlots runs are in flight — the
  // caller then publishes nothing, it never blocks. Thread-safe.
  std::size_t claim(const char* engine, std::uint64_t max_rounds,
                    std::uint64_t n, bool faulty,
                    std::uint64_t now_ns) noexcept;

  // Publishes `record` into `slot`. Single writer per slot (the claimant).
  void publish(std::size_t slot, const ProgressRecord& record) noexcept;

  // Final publish + slot release: the record stays readable (active=false)
  // until the slot is reclaimed by a later run.
  void release(std::size_t slot, const ProgressRecord& record) noexcept;

  // Seqlock-consistent copies of every slot that has ever been published,
  // ordered by run_ordinal. Never blocks writers.
  std::vector<ProgressRecord> read() const;

  std::uint64_t runs_started() const noexcept {
    return started_.load(std::memory_order_relaxed);
  }
  std::uint64_t runs_finished() const noexcept {
    return finished_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uint32_t> seq{0};  // Odd while a publish is in flight.
    std::atomic<bool> busy{false};      // Claimed by a live run.
    std::atomic<bool> active{false};
    std::atomic<bool> faulty{false};
    std::atomic<const char*> engine{""};
    std::atomic<std::uint64_t> run_ordinal{0};
    std::atomic<std::uint64_t> round{0};
    std::atomic<std::uint64_t> max_rounds{0};
    std::atomic<std::uint64_t> ones{0};
    std::atomic<std::uint64_t> n{0};
    std::atomic<double> rounds_per_sec{0.0};
    std::atomic<double> drift_per_round{0.0};
    std::atomic<double> eta_seconds{0.0};
    std::atomic<std::uint64_t> fault_flips{0};
    std::atomic<std::uint64_t> recovery_segments{0};
    std::atomic<std::uint64_t> checkpoint_slot{0};
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> publish_ns{0};
  };

  // read()'s retry policy: spin this many attempts, then yield between
  // attempts until the budget (a few scheduler time slices) runs out.
  static constexpr int kSpinAttempts = 64;
  static constexpr std::chrono::milliseconds kReadBudget{20};

  void store_fields(Slot& s, const ProgressRecord& r, bool active) noexcept;
  // One seqlock attempt: copies the slot into `r` and returns true when no
  // publish overlapped the copy.
  static bool try_read(const Slot& s, ProgressRecord& r) noexcept;

  std::array<Slot, kSlots> slots_;
  std::atomic<std::uint64_t> started_{0};
  std::atomic<std::uint64_t> finished_{0};
};

// Per-run publisher, constructed by RunDriver::drive() with the board of
// the bundle it resolved for the run. With a null board every method is a
// null check. With one, on_round() publishes at an adaptive stride so the
// per-round cost amortizes to ~nothing regardless of round duration.
class RunProgressScope {
 public:
  RunProgressScope(ProgressBoard* board, const char* engine,
                   std::uint64_t max_rounds, std::uint64_t n,
                   bool faulty) noexcept;
  ~RunProgressScope();
  RunProgressScope(const RunProgressScope&) = delete;
  RunProgressScope& operator=(const RunProgressScope&) = delete;

  bool attached() const noexcept { return board_ != nullptr; }

  // Called at each parallel-round boundary. The fast path (stride not yet
  // elapsed) is one compare; the session pointer is only dereferenced on
  // the publish path.
  void on_round(std::uint64_t round, std::uint64_t ones, std::uint64_t n,
                const FaultSession* session) noexcept {
    if (board_ == nullptr || round < next_publish_round_) return;
    publish_now(round, ones, n, session, /*final=*/false);
  }

  // Publishes the final state unconditionally and releases the slot. Called
  // by the driver after the loop; the destructor covers early unwinds.
  void finish(std::uint64_t round, std::uint64_t ones, std::uint64_t n,
              const FaultSession* session) noexcept {
    if (board_ == nullptr) return;
    publish_now(round, ones, n, session, /*final=*/true);
  }

 private:
  void publish_now(std::uint64_t round, std::uint64_t ones, std::uint64_t n,
                   const FaultSession* session, bool final_publish) noexcept;

  ProgressBoard* board_;  // nullptr = dormant (also after finish()).
  std::size_t slot_ = ProgressBoard::kNoSlot;
  ProgressRecord record_;
  std::uint64_t next_publish_round_ = 0;
  std::uint64_t stride_ = 1;
  std::uint64_t last_publish_round_ = 0;
  std::uint64_t last_publish_ns_ = 0;
  std::uint64_t last_ones_ = 0;
  bool have_rate_ = false;
  bool have_drift_ = false;
};

}  // namespace obs
}  // namespace bitspread

#endif  // BITSPREAD_OBS_PROGRESS_H_
