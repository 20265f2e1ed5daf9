// Shared command-line handling for the bench/experiment binaries.
//
// Every bench binary (bench/*.cc apart from the two google-benchmark ones,
// which take google-benchmark's flags) enters through run_bench() and
// accepts every flag below. The examples parse FlightRecorderOptions and
// build the scope themselves.
//
// Bench flags:
//   --quick          smaller grids / fewer replicates (also BITSPREAD_QUICK=1)
//   --seed=<u64>     master seed (also BITSPREAD_SEED)
//   --reps=<int>     replicate override
//   --json=<path>    destination of the unified JSON report (default
//                    BENCH_<name>.json)
//
// Flight-recorder flags (benches and examples):
//   --trace                print a per-phase timing table on exit
//   --trace-out=<path>     write a Chrome trace-event JSON timeline on exit
//   --stream-out=<path>    write a per-round JSONL stream (X_t, drift,
//                          per-phase nanoseconds)
//   --trace-buffer=<n>     ring capacity per recording thread (events)
//   --stream-stride=<n>    emit every n-th round to the stream
//
// Profiling flags (benches and examples; DESIGN.md §3.8):
//   --pmu-out=<path>       write per-phase hardware-counter totals (cycles,
//                          instructions, LLC/branch misses, IPC) as JSON;
//                          on no-PMU hosts the report carries
//                          pmu_available:false
//   --profile-out=<path>   run the SIGPROF sampling profiler and write
//                          folded stacks (flamegraph.pl / speedscope input);
//                          off unless requested
//   --profile-hz=<n>       sampling rate in CPU-time Hz (default 97)
//
// Checkpoint/resume flags (benches and examples; independent of telemetry):
//   --checkpoint-out=<base>  snapshot ring base path (<base>.<slot>.snap)
//   --checkpoint-every=<k>   snapshot every k parallel rounds (default 0:
//                            only on SIGINT/SIGTERM)
//   --checkpoint-ring=<r>    retained ring entries (default 2)
//   --resume=auto|<path>     resume from the newest valid ring entry (auto,
//                            with corrupt-entry fallback) or one exact file
//
// Introspection flag (benches and examples; DESIGN.md §3.9):
//   --listen=<addr:port>   start the in-process HTTP exporter serving
//                          /metrics (Prometheus), /healthz, /progress
//                          (JSON), and /stream (live per-round JSONL);
//                          port 0 binds an ephemeral port, reported on
//                          stderr as "[obs] listening on http://..."
#ifndef BITSPREAD_SIM_CLI_H_
#define BITSPREAD_SIM_CLI_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "profile/counters.h"
#include "profile/sampling.h"
#include "snapshot/checkpoint.h"
#include "telemetry/jsonl.h"
#include "telemetry/reporter.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace bitspread {

struct ConvergenceMeasurement;
struct RunResult;

namespace obs {
class IntrospectionServer;
class ProgressBoard;
class StreamHub;
}  // namespace obs

// Flight-recorder, profiling, checkpoint and introspection flags shared by
// bench and example binaries.
struct FlightRecorderOptions {
  // --trace: install a PhaseStats sink and print its per-phase table on
  // exit.
  bool trace = false;
  std::optional<std::string> trace_out;
  std::optional<std::string> stream_out;
  std::size_t trace_buffer = std::size_t{1} << 15;
  std::uint64_t stream_stride = 1;
  // Checkpoint/resume (snapshot/checkpoint.h): ring base path, cadence in
  // parallel rounds (0 = only on interrupt), retained entries, and the
  // resume source ("auto" or an explicit snapshot file).
  std::optional<std::string> checkpoint_out;
  std::uint64_t checkpoint_every = 0;
  std::uint32_t checkpoint_ring = 2;
  std::optional<std::string> resume;
  // Profiling (--pmu-out= / --profile-out= / --profile-hz=). 97 Hz default:
  // prime, so sampling does not alias round-period work.
  std::optional<std::string> pmu_out;
  std::optional<std::string> profile_out;
  int profile_hz = 97;
  // Introspection server (--listen=<addr:port>; obs/server.h). /metrics
  // phase rows need a phase sink (--trace or bench_profile's).
  std::optional<std::string> listen;

  // True when a trace or stream file was asked for.
  bool requested() const noexcept {
    return trace_out.has_value() || stream_out.has_value();
  }
  // Consumes `arg` if it is one of these flags.
  bool parse_flag(const std::string& arg);
  // Parses a whole command line. Positional arguments are the caller's;
  // unknown `--` flags are reported on stderr and ignored.
  static FlightRecorderOptions parse(int argc, char** argv);
};

struct BenchOptions {
  bool quick = false;
  std::uint64_t seed = 0;
  std::optional<int> replicates;
  std::optional<std::string> json_path;
  FlightRecorderOptions recorder;

  int reps_or(int dflt) const noexcept { return replicates.value_or(dflt); }
};

BenchOptions parse_bench_options(int argc, char** argv);

// Standard experiment banner; also stamps `experiment_id` on the report.
void print_banner(const std::string& experiment_id, const std::string& title,
                  const BenchOptions& options, JsonReporter& reporter);

// Accumulates run outcomes across an experiment so binaries report
// right-censoring EXPLICITLY (a silently truncated mean understates the
// truth) and can exit nonzero when nothing converged — which lets CI and
// scripts catch a stalled configuration instead of reading a green exit
// code off a table of censored rows.
//
// `degraded` follows the ConvergenceMeasurement convention: also counted
// inside `censored`.
class OutcomeLedger {
 public:
  void add(const ConvergenceMeasurement& measurement);
  void add_run(const RunResult& result);

  int total() const { return total_; }
  int converged() const { return converged_; }
  int censored() const { return censored_; }
  int degraded() const { return degraded_; }
  int wrong() const { return wrong_; }

  // The tallies as a report's metrics block: counters "outcomes.total",
  // "outcomes.converged", "outcomes.censored", "outcomes.degraded" and
  // "outcomes.wrong" (JsonReporter::set_metrics).
  ReportMetrics metrics() const;

  // One-line summary, e.g.
  //   outcomes: 37/60 converged, 20 censored (3 degraded), 3 wrong outcome
  void report(std::ostream& out) const;

  // 0 if at least one run converged, 1 otherwise (EXIT_FAILURE semantics).
  int exit_status() const { return converged() > 0 ? 0 : 1; }

 private:
  int total_ = 0;
  int converged_ = 0;
  int censored_ = 0;
  int degraded_ = 0;
  int wrong_ = 0;
};

// The one RAII scope for a bench's or example's run-observation flags. It
// builds every sink the options ask for — the --trace PhaseStats, the
// --pmu-out PMU sink, the --trace-out TraceRecorder, the --stream-out
// RoundStream (teed to /stream under --listen) and the --listen progress
// board — and installs them as ONE telemetry::SinkScope for its lifetime.
// The destructor ends that scope, then writes the trace and PMU files,
// flushes the stream, prints the phase table, and reports what was written
// (with the dropped-event count) on stderr. Construct before the run,
// destroy after — installation must not race an engine; a bench's
// own SinkScope nests inside or around it.
//
// The scope also owns the checkpoint lifecycle (--checkpoint-out=/--resume=;
// independent of telemetry): the Checkpointer is created and a resume
// snapshot loaded BEFORE the stream opens, so a resumed run appends to its
// JSONL file (with restored line accounting) instead of truncating it. When
// any output or checkpointing is active, SIGINT/SIGTERM handlers are
// installed: the first signal makes every RunDriver stop at the next round
// boundary (writing a final snapshot when checkpointing), control unwinds,
// and this destructor flushes the stream and trace buffers — graceful
// shutdown never loses buffered rounds.
class FlightRecorderScope {
 public:
  explicit FlightRecorderScope(FlightRecorderOptions options);
  ~FlightRecorderScope();

  FlightRecorderScope(const FlightRecorderScope&) = delete;
  FlightRecorderScope& operator=(const FlightRecorderScope&) = delete;

  // Forwards a drift model x ↦ F_n(x) to the JSONL stream (no-op without
  // one). Call before the instrumented run.
  void set_bias(std::function<double(double)> bias);

  // The active recorder, or nullptr when none was requested/installed.
  telemetry::TraceRecorder* recorder() noexcept { return recorder_.get(); }

  // True while the SIGPROF sampling profiler is running (--profile-out=).
  // Benches record this in their reports so check_telemetry_overhead.py can
  // reject overhead measurements taken with sampling interrupts firing.
  bool sampling_active() const noexcept {
    return profiler_ != nullptr && profiler_->running();
  }

  // True while the introspection server (--listen=) is up. Benches stamp
  // this as `exporter_active` (mirroring sampling_active) so
  // bench_history.py never gates throughput rows taken with a live
  // exporter attached.
  bool exporter_active() const noexcept { return server_ != nullptr; }

 private:
  FlightRecorderOptions options_;
  std::unique_ptr<snapshot::Checkpointer> checkpointer_;
  std::unique_ptr<telemetry::TraceRecorder> recorder_;
  std::unique_ptr<telemetry::RoundStream> stream_;
  // --trace: the phase sink whose table the destructor prints — this
  // scope's own, or the enclosing bundle's when a bench installed one.
  telemetry::PhaseStats phase_stats_;
  const telemetry::PhaseStats* phase_table_ = nullptr;
  // --pmu-out=: rendered by the destructor after the scope ends. The
  // sampling profiler (--profile-out=) is started last and stopped first.
  profile::PmuPhaseStats pmu_stats_;
  std::unique_ptr<profile::SamplingProfiler> profiler_;
  // Introspection (--listen=): the progress board RunDrivers publish into,
  // the hub that tees the round stream to /stream subscribers, and the
  // read-only HTTP server, stopped FIRST in the destructor. --listen alone
  // installs no phase sink: that would wake every probe (DESIGN.md §3.9).
  std::unique_ptr<obs::ProgressBoard> progress_board_;
  std::unique_ptr<obs::StreamHub> stream_hub_;
  std::unique_ptr<obs::IntrospectionServer> server_;
  // All of the above that runs feed, installed as one bundle.
  std::optional<telemetry::SinkScope> sinks_;
};

// A bench binary's experiment: it runs, prints its tables and fills
// `reporter`. Returns 0 on success.
using BenchBody = std::function<int(const BenchOptions& options,
                                    FlightRecorderScope& flight_recorder,
                                    JsonReporter& reporter)>;

// The one entry point of every bench binary. It parses the shared flags
// once, builds the one FlightRecorderScope they ask for, and runs `body`
// with a report stamped with `name`, the seed and quick mode. When the body
// returns it attaches the flight recorder's accounting, writes the report to
// --json= (default BENCH_<name>.json) and ends the scope. Returns non-zero
// if the body failed or the report could not be written.
int run_bench(const std::string& name, int argc, char** argv,
              const BenchBody& body);

}  // namespace bitspread

#endif  // BITSPREAD_SIM_CLI_H_
