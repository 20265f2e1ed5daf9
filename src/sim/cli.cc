#include "sim/cli.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>

#include "engine/stopping.h"
#include "obs/progress.h"
#include "obs/server.h"
#include "sim/experiment.h"
#include "sim/seeds.h"
#include "telemetry/reporter.h"

namespace bitspread {

bool FlightRecorderOptions::parse_flag(const std::string& arg) {
  if (arg == "--trace") {
    trace = true;
  } else if (arg.rfind("--trace-out=", 0) == 0) {
    trace_out = arg.substr(12);
  } else if (arg.rfind("--stream-out=", 0) == 0) {
    stream_out = arg.substr(13);
  } else if (arg.rfind("--trace-buffer=", 0) == 0) {
    trace_buffer = static_cast<std::size_t>(
        std::strtoull(arg.c_str() + 15, nullptr, 0));
  } else if (arg.rfind("--stream-stride=", 0) == 0) {
    stream_stride = std::strtoull(arg.c_str() + 16, nullptr, 0);
  } else if (arg.rfind("--checkpoint-out=", 0) == 0) {
    checkpoint_out = arg.substr(17);
  } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
    checkpoint_every = std::strtoull(arg.c_str() + 19, nullptr, 0);
  } else if (arg.rfind("--checkpoint-ring=", 0) == 0) {
    checkpoint_ring = static_cast<std::uint32_t>(
        std::strtoul(arg.c_str() + 18, nullptr, 0));
  } else if (arg.rfind("--resume=", 0) == 0) {
    resume = arg.substr(9);
  } else if (arg.rfind("--pmu-out=", 0) == 0) {
    pmu_out = arg.substr(10);
  } else if (arg.rfind("--profile-out=", 0) == 0) {
    profile_out = arg.substr(14);
  } else if (arg.rfind("--profile-hz=", 0) == 0) {
    profile_hz = std::atoi(arg.c_str() + 13);
  } else if (arg.rfind("--listen=", 0) == 0) {
    listen = arg.substr(9);
  } else {
    return false;
  }
  return true;
}

FlightRecorderOptions FlightRecorderOptions::parse(int argc, char** argv) {
  FlightRecorderOptions options;
  for (int i = 1; i < argc; ++i) {
    if (!options.parse_flag(argv[i]) &&
        std::strncmp(argv[i], "--", 2) == 0) {
      // Positional arguments stay the caller's business.
      std::cerr << "warning: unknown option '" << argv[i] << "' ignored\n";
    }
  }
  return options;
}

BenchOptions parse_bench_options(int argc, char** argv) {
  BenchOptions options;
  options.seed = master_seed_from_env();
  const char* quick_env = std::getenv("BITSPREAD_QUICK");
  if (quick_env != nullptr && std::strcmp(quick_env, "0") != 0) {
    options.quick = true;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(arg.c_str() + 7, nullptr, 0);
    } else if (arg.rfind("--reps=", 0) == 0) {
      options.replicates = std::atoi(arg.c_str() + 7);
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_path = arg.substr(7);
    } else if (options.recorder.parse_flag(arg)) {
      // Consumed by the flight recorder.
    } else {
      std::cerr << "warning: unknown option '" << arg << "' ignored\n";
    }
  }
  return options;
}

void print_banner(const std::string& experiment_id, const std::string& title,
                  const BenchOptions& options, JsonReporter& reporter) {
  std::cout << "=== " << experiment_id << ": " << title << " ===\n"
            << "seed=" << options.seed
            << (options.quick ? " (quick mode)" : "") << "\n\n";
  reporter.set_experiment(experiment_id);
}

int run_bench(const std::string& name, int argc, char** argv,
              const BenchBody& body) {
  const BenchOptions options = parse_bench_options(argc, argv);
  FlightRecorderScope scope(options.recorder);
  JsonReporter reporter(name);
  reporter.set_seed(options.seed);
  reporter.set_quick(options.quick);
  const int status = body(options, scope, reporter);
  if (scope.recorder() != nullptr) {
    reporter.set_flight_recorder(*scope.recorder());
  }
  const bool written = reporter.write_file(
      options.json_path.value_or("BENCH_" + name + ".json"));
  return status != 0 ? status : (written ? 0 : 1);
}

void OutcomeLedger::add(const ConvergenceMeasurement& measurement) {
  total_ += measurement.replicates;
  converged_ += measurement.converged;
  censored_ += measurement.censored;
  degraded_ += measurement.degraded;
  wrong_ += measurement.wrong_outcome;
}

void OutcomeLedger::add_run(const RunResult& result) {
  ++total_;
  if (result.converged()) {
    ++converged_;
  } else if (result.censored()) {
    ++censored_;
    if (result.degraded()) ++degraded_;
  } else {
    ++wrong_;
  }
}

ReportMetrics OutcomeLedger::metrics() const {
  ReportMetrics metrics;
  const auto count = [](int value) {
    return static_cast<std::uint64_t>(value);
  };
  metrics.counters = {{"outcomes.total", count(total_)},
                      {"outcomes.converged", count(converged_)},
                      {"outcomes.censored", count(censored_)},
                      {"outcomes.degraded", count(degraded_)},
                      {"outcomes.wrong", count(wrong_)}};
  return metrics;
}

void OutcomeLedger::report(std::ostream& out) const {
  out << "outcomes: " << converged() << "/" << total() << " converged";
  if (censored() > 0) {
    out << ", " << censored() << " censored (round cap)";
    if (degraded() > 0) out << " (" << degraded() << " degraded)";
  }
  if (wrong() > 0) out << ", " << wrong() << " wrong outcome";
  out << "\n";
}

namespace {

// One stderr line per artifact the scope writes.
void report_artifact(bool ok, const char* what, const std::string& path,
                     const std::string& detail = "") {
  if (ok) {
    std::cerr << "[" << what << " written to " << path << detail << "]\n";
  } else {
    std::cerr << "[failed to write " << what << " to " << path << "]\n";
  }
}

}  // namespace

FlightRecorderScope::FlightRecorderScope(FlightRecorderOptions options)
    : options_(std::move(options)) {
  telemetry::Sinks bundle;
  // Checkpointer first (independent of telemetry): a loaded resume decides
  // how the JSONL stream opens below.
  if (options_.checkpoint_out || options_.resume) {
    snapshot::CheckpointOptions checkpoint_options;
    checkpoint_options.path = options_.checkpoint_out.value_or("checkpoint");
    checkpoint_options.every = options_.checkpoint_every;
    checkpoint_options.ring = options_.checkpoint_ring;
    checkpointer_ =
        std::make_unique<snapshot::Checkpointer>(checkpoint_options);
    if (options_.resume && !checkpointer_->load_resume(*options_.resume)) {
      std::cerr << "[resume: " << checkpointer_->last_error()
                << "; starting fresh]\n";
    }
    checkpointer_->set_decorator([this](snapshot::RunSnapshot& snap) {
      if (stream_ != nullptr) {
        snap.stream_rounds_seen = stream_->rounds_seen();
        snap.stream_lines = stream_->lines();
      }
    });
    snapshot::install_checkpointer(checkpointer_.get());
  }
  // Graceful SIGINT/SIGTERM whenever any output could be lost: drivers stop
  // at the next round boundary and this scope's destructor flushes. A
  // --listen run joins in so its server shuts down cleanly on SIGTERM (the
  // CI introspection job scrapes a long run, then terminates it).
  if (options_.requested() || options_.pmu_out || options_.profile_out ||
      options_.listen || checkpointer_ != nullptr) {
    snapshot::install_interrupt_handlers();
  }
  // Introspection server (--listen=). The board joins the bundle before any
  // run starts so every RunDriver claims a progress slot; the hub tees the
  // round stream to /stream subscribers.
  if (options_.listen) {
    progress_board_ = std::make_unique<obs::ProgressBoard>();
    stream_hub_ = std::make_unique<obs::StreamHub>();
    obs::ServerOptions server_options;
    server_options.listen = *options_.listen;
    server_options.hub = stream_hub_.get();
    server_ = std::make_unique<obs::IntrospectionServer>(server_options);
    if (!server_->ok()) {
      std::cerr << "[obs] " << server_->error() << "; exporter disabled\n";
      server_.reset();
      stream_hub_.reset();
      progress_board_.reset();
    }
    bundle.progress = progress_board_.get();
  }
  if (options_.trace) {
    // A bench that installed its own phase sink keeps it; the table then
    // prints that sink.
    phase_table_ = telemetry::sinks().phases;
    if (phase_table_ == nullptr) phase_table_ = bundle.phases = &phase_stats_;
  }
  if (options_.pmu_out) {
    // Touching the main thread's counter set here (not in the destructor)
    // surfaces a perf_event_open failure before the run, not after it.
    profile::thread_counters();
    bundle.pmu = &pmu_stats_;
  }
  if (options_.trace_out) {
    telemetry::TraceRecorder::Options trace_options;
    trace_options.capacity = options_.trace_buffer;
    recorder_ = std::make_unique<telemetry::TraceRecorder>(trace_options);
    bundle.trace = recorder_.get();
  }
  if (options_.stream_out) {
    telemetry::RoundStream::Options stream_options;
    stream_options.stride = options_.stream_stride;
    // A resumed run appends to the stream of the interrupted one, with the
    // counters seeded from the snapshot so accounting spans both segments.
    const snapshot::RunSnapshot* resume_snap =
        checkpointer_ != nullptr ? checkpointer_->pending_resume() : nullptr;
    stream_options.append = resume_snap != nullptr;
    stream_ = std::make_unique<telemetry::RoundStream>(*options_.stream_out,
                                                       stream_options);
    if (!stream_->ok()) {
      std::cerr << "[failed to open stream " << *options_.stream_out << "]\n";
      stream_.reset();
    } else if (resume_snap != nullptr) {
      stream_->restore_counts(resume_snap->stream_rounds_seen,
                              resume_snap->stream_lines);
    }
  }
  // One round sink: the hub (teeing to the file stream AND /stream
  // subscribers) when the server is up, the file stream alone otherwise.
  if (stream_hub_ != nullptr) {
    stream_hub_->set_inner(stream_.get());
    bundle.rounds = stream_hub_.get();
  } else {
    bundle.rounds = stream_.get();
  }
  sinks_.emplace(bundle);
  if (options_.profile_out) {
    // Sampling needs no PMU — SIGPROF + frame pointers only. Started last
    // so profiler samples cover the run, not this scope's setup.
    profiler_ = std::make_unique<profile::SamplingProfiler>();
    if (!profiler_->start(options_.profile_hz)) {
      std::cerr << "note: sampling profiler not started: " << profiler_->why()
                << "\n";
      profiler_.reset();
    }
  }
}

void FlightRecorderScope::set_bias(std::function<double(double)> bias) {
  if (stream_ != nullptr) stream_->set_bias(std::move(bias));
}

FlightRecorderScope::~FlightRecorderScope() {
  // The server goes down FIRST, so no scrape reads what is torn down below.
  if (server_ != nullptr) {
    std::cerr << "[obs] exporter on http://" << server_->address() << ":"
              << server_->port() << " served " << server_->scrapes()
              << " scrape(s)]\n";
    server_.reset();
  }
  if (profiler_ != nullptr) {
    profiler_->stop();
    std::string detail =
        ": " + std::to_string(profiler_->samples_taken()) + " samples";
    if (profiler_->samples_dropped() > 0) {
      detail += ", " + std::to_string(profiler_->samples_dropped()) +
                " dropped (buffer full)";
    }
    report_artifact(profiler_->write_folded(*options_.profile_out), "profile",
                    *options_.profile_out, detail);
  }
  // Every sink leaves the bundle at once; the outputs are written after.
  sinks_.reset();
  if (options_.pmu_out) {
    const profile::PmuCounterSet& set = profile::thread_counters();
    std::ofstream out(*options_.pmu_out);
    out << profile::pmu_stats_to_json(pmu_stats_, set.available(),
                                      set.unavailable_reason())
               .dump();
    report_artifact(static_cast<bool>(out), "pmu counters", *options_.pmu_out,
                    set.available() ? "" : " (no PMU: timing fallback)");
  }
  if (recorder_ != nullptr) {
    std::string detail = ": " + std::to_string(recorder_->stored()) +
                         " events across " +
                         std::to_string(recorder_->buffers()) + " lanes";
    if (recorder_->dropped() > 0) {
      detail += ", " + std::to_string(recorder_->dropped()) +
                " oldest dropped (raise --trace-buffer=)";
    }
    report_artifact(recorder_->write_chrome_trace(*options_.trace_out),
                    "trace", *options_.trace_out, detail);
  }
  if (stream_ != nullptr) {
    report_artifact(stream_->flush(), "stream", *options_.stream_out,
                    ": " + std::to_string(stream_->lines()) + " lines from " +
                        std::to_string(stream_->rounds_seen()) + " rounds");
  }
  if (phase_table_ != nullptr) {
    std::cerr << "\nphase trace (engine-side, wall time):\n";
    for (int i = 0; i < telemetry::kPhaseCount; ++i) {
      const auto phase = static_cast<telemetry::Phase>(i);
      if (phase_table_->count(phase) == 0) continue;
      std::cerr << "  " << std::left << std::setw(14)
                << telemetry::phase_name(phase) << std::right << std::fixed
                << std::setprecision(6) << phase_table_->total_seconds(phase)
                << " s across " << phase_table_->count(phase) << " events\n";
    }
  }
  if (checkpointer_ != nullptr) {
    snapshot::install_checkpointer(nullptr);
    if (checkpointer_->written() > 0) {
      std::cerr << "[checkpoints: " << checkpointer_->written()
                << " written to " << checkpointer_->options().path
                << ".<slot>.snap (ring of "
                << checkpointer_->options().ring << ")]\n";
    }
  }
}

}  // namespace bitspread
