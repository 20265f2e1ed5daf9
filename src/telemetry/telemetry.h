// The sink bundle and the RAII phase probe.
//
// One gate keeps the measurement layer out of the measured system: a probe
// records only while the installed Sinks bundle holds a phase, PMU or trace
// sink; otherwise it costs one pointer load and never reads the clock. The
// probes are compiled into every build, so the build that runs the tests is
// the build that is measured (bench/e2e times the sinkless probes).
//
// A probe cannot perturb simulation results: it reads clocks and bumps
// counters, and NEVER touches an RNG stream — every engine must reproduce
// its golden run payload with sinks installed and without
// (tests/telemetry_test.cc).
#ifndef BITSPREAD_TELEMETRY_TELEMETRY_H_
#define BITSPREAD_TELEMETRY_TELEMETRY_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "profile/pmu.h"

namespace bitspread {

namespace obs {
class ProgressBoard;
}  // namespace obs
namespace profile {
class PmuPhaseStats;
}  // namespace profile

namespace telemetry {

// The instrumented phases of a simulation run. Every engine reports through
// the same vocabulary so bench reports are comparable across engines.
enum class Phase : int {
  kRoundStep = 0,  // One synchronous round (or n sequential activations).
  kSampleDraw,     // Observation sampling inside a round/block.
  kFaultApply,     // Fault-channel work: flips, churn, recovery bookkeeping.
  kStopCheck,      // Stop-rule / quorum evaluation.
  kPoolDispatch,   // WorkerPool fan-out latency (recorded by the pool).
  // Kernel sub-phases: the word-parallel step kernel (DESIGN.md §3.6) splits
  // each block step into gather (observation packing), fault (word-level
  // fault channels), decide (the boolean g-circuit), and commit (plane
  // writeback + popcount). Recorded by profile::KernelBlockProfiler; empty
  // in engines that run the legacy per-agent loop.
  kKernelGather,
  kKernelFault,
  kKernelDecide,
  kKernelCommit,
  kCount
};

inline constexpr int kPhaseCount = static_cast<int>(Phase::kCount);

// Short stable identifier ("round_step", ...) used in JSON reports.
const char* phase_name(Phase phase) noexcept;

inline std::uint64_t clock_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The phase sink: per-phase nanosecond and event totals, safe for
// concurrent recording from pool workers (relaxed atomics; totals are read
// after the recorded region completes, which the pool's join ordering makes
// a happens-before).
class PhaseStats {
 public:
  void add(Phase phase, std::uint64_t ns) noexcept {
    const auto i = static_cast<std::size_t>(phase);
    ns_[i].fetch_add(ns, std::memory_order_relaxed);
    count_[i].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t total_ns(Phase phase) const noexcept {
    return ns_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t count(Phase phase) const noexcept {
    return count_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
  }
  double total_seconds(Phase phase) const noexcept {
    return static_cast<double>(total_ns(phase)) * 1e-9;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kPhaseCount> ns_{};
  std::array<std::atomic<std::uint64_t>, kPhaseCount> count_{};
};

// The flight recorder (trace.h): a per-thread bounded ring of timestamped
// span/counter/instant events, exported as Chrome trace-event JSON.
class TraceRecorder;

// Per-round stream sink: engines report (round, X_t, n) once per completed
// parallel round through record_round(); the installed RoundSink receives
// the series (jsonl.h turns it into a JSONL stream interleaving X_t, drift,
// and per-phase nanoseconds). on_round() may be called concurrently when
// replicates run on the pool — implementations must be thread-safe. It must
// never touch an RNG stream.
class RoundSink {
 public:
  virtual ~RoundSink() = default;
  virtual void on_round(std::uint64_t round, std::uint64_t ones,
                        std::uint64_t n) = 0;
};

// Everything a run can explain itself through, as one bundle: wall-clock
// phase totals, hardware-counter totals (profile/counters.h), the trace
// recorder, the per-round stream, and the live-progress board
// (obs/progress.h). Every pointer is optional and none is owned.
struct Sinks {
  PhaseStats* phases = nullptr;
  profile::PmuPhaseStats* pmu = nullptr;
  TraceRecorder* trace = nullptr;
  RoundSink* rounds = nullptr;
  obs::ProgressBoard* progress = nullptr;
};

// The installed bundle: an empty one when no SinkScope is live. Readers
// resolve it once per run, per kernel block or per scrape. The reference
// stays valid until the scope that installed it ends, and scopes must not
// begin or end while an engine runs.
const Sinks& sinks() noexcept;

// Installs a bundle for its lifetime: a copy of the enclosing bundle with
// every non-null field of `given` replacing the enclosing one. The
// destructor reinstalls the enclosing bundle, so scopes must nest (end in
// reverse order of construction). This is how a bench's own PhaseStats
// joins a FlightRecorderScope's trace and stream. The caller keeps every
// sink alive until the scope ends.
class SinkScope {
 public:
  explicit SinkScope(const Sinks& given) noexcept;
  ~SinkScope();
  SinkScope(const SinkScope&) = delete;
  SinkScope& operator=(const SinkScope&) = delete;

 private:
  Sinks bundle_;
  const Sinks* enclosing_ = nullptr;
};

// The lock SinkScope takes to install and to restore. A reader outside the
// run loop (the /metrics scrape) holds it across its whole read, so no scope
// can end — and free what it installed — under the reader.
std::unique_lock<std::mutex> lock_sinks();

// The one reading every probe takes: the calling thread's counter group
// when the bundle holds a PMU sink (that read carries a clock value too),
// the clock alone otherwise.
inline void take_reading(const Sinks& bundle,
                         profile::CounterSnapshot& reading) noexcept {
  if (bundle.pmu != nullptr) {
    profile::thread_counters().read(reading);
  } else {
    reading.wall_ns = clock_now_ns();
  }
}

// Round marker: feeds the bundle's TraceRecorder (counter event "X_t") and
// RoundSink. Costs one pointer load when neither is installed. Defined in
// trace.cc.
void record_round(std::uint64_t round, std::uint64_t ones,
                  std::uint64_t n) noexcept;
// Instant marker (e.g. "source_flip") on the calling thread's trace lane.
// `name` must be a string literal (stored by pointer, not copied).
void record_mark(const char* name) noexcept;

// RAII phase probe: attributes its lifetime to `phase`. At each end it
// takes ONE reading (take_reading) and feeds it to the phase sink, the PMU
// sink and the trace span alike, so the three agree to the nanosecond.
// Dormant (one pointer load, no clock read) unless the bundle holds a
// phase, PMU or trace sink. Tight loops pass a bundle resolved once per
// run.
class Probe {
 public:
  explicit Probe(Phase phase, const Sinks& bundle = sinks()) noexcept
      : phase_(phase) {
    if (bundle.phases != nullptr || bundle.pmu != nullptr ||
        bundle.trace != nullptr) {
      open(bundle);
    }
  }
  ~Probe() {
    if (bundle_ != nullptr) close();
  }

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  // True when the probe took a reading.
  bool active() const noexcept { return bundle_ != nullptr; }

 private:
  void open(const Sinks& bundle) noexcept;
  void close() noexcept;

  const Sinks* bundle_ = nullptr;
  Phase phase_;
  // Engaged only while active: a dormant probe never fills the reading.
  std::optional<profile::CounterSnapshot> begin_;
};

}  // namespace telemetry
}  // namespace bitspread

#endif  // BITSPREAD_TELEMETRY_TELEMETRY_H_
