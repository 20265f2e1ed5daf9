// bench_e2e — the whole-experiment benchmark program for bitspread.
//
// One process runs one named workload, single-threaded, through the
// library's public entry points only:
//
//   bench_e2e --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             --work-dir=<dir> [--trace-out=<chrome trace path>]
//
// Untraced (--trace=0): run fixed-work trials until `seconds` have elapsed
// (at least kMinTrials), setting up afresh (each setup timed on its own)
// before each trial and timing the host-speed
// reference loop after each set-up and trial, then write the experiment
// report. Every trial is an experiment as a user runs it: `run()` from the
// initial configuration to the stop rule. The raw observations — per-setup,
// per-trial and reference walls, payload digests, final X/n, Voter outcomes,
// checkpoint and resume results — go to stdout as one JSON document;
// bench/e2e/run.py turns them into metrics and correctness verdicts.
//
// Traced (--trace=1): set up once under spans, then alternate an untraced
// trial with a replay of the same trial that calls each layer's public
// functions (round by round, with run()'s seed derivation) under spans,
// then probe every layer at the workload's shape. Emits the per-layer
// metrics, per-layer self time, and the replay digests (a replay that does
// not reproduce the untraced digest measured a different program).
//
// Also: --info (build and host stamp), --list-metrics (per-layer names).
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/init.h"
#include "engine/aggregate.h"
#include "engine/kernel/kernel.h"
#include "engine/sharded.h"
#include "faults/session.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "random/binomial.h"
#include "random/seeding.h"
#include "sim/parallel.h"
#include "snapshot/checkpoint.h"
#include "snapshot/state.h"
#include "span_trace.h"
#include "telemetry/reporter.h"
#include "topology/topology.h"

namespace bitspread::e2e {
namespace {

namespace fs = std::filesystem;
using Population = ShardedAgentEngine::Population;

// ---------------------------------------------------------------------------
// Workloads. Why each exists is in bench/e2e/README.md; the numbers here are
// the whole definition (the seed only picks the simulation streams — graph
// seeds are pinned so the graph itself never varies).

enum class EngineKind { kSharded, kAggregate };

struct WorkloadSpec {
  const char* name;
  EngineKind engine;
  GraphKind graph;  // kComplete or kErdosRenyi.
  bool faults;      // Fault channels + checkpoint ring + resume.
  std::uint64_t n;
  std::uint64_t trial_rounds;  // Sharded: rounds per trial (the stop cap).
  std::uint64_t trial_runs;    // Aggregate: independent runs per trial.
  // How closely the trial's wall time follows the host-speed reference loop:
  // the exponent run.py scales trial times by (README.md, "Host-speed
  // normalisation").
  double trial_sensitivity;
};

constexpr std::uint64_t kShardedN = std::uint64_t{1} << 20;
constexpr std::uint64_t kVoterN = std::uint64_t{1} << 10;

// Trials are short (0.2-0.9 s here) so that a run holds dozens, each close
// in time to the reference-loop runs that bracket it. The kernel loops slow
// with the host as the reference loop does (sensitivity 1); the per-agent
// loop over the CSR, whose random reads also wait on the shared cache and
// memory, a little more (1.25); the aggregate engine's scalar, branchy
// rounds about half as much (0.5).
constexpr WorkloadSpec kWorkloads[] = {
    {"complete_kernel", EngineKind::kSharded, GraphKind::kComplete, false,
     kShardedN, 64, 0, 1.0},
    {"graph_er", EngineKind::kSharded, GraphKind::kErdosRenyi, false,
     kShardedN, 32, 0, 1.25},
    {"voter_replicates", EngineKind::kAggregate, GraphKind::kComplete, false,
     kVoterN, 0, 2048, 0.5},
    {"faulty_ckpt", EngineKind::kSharded, GraphKind::kComplete, true,
     kShardedN, 41, 0, 1.0},
};
// Set-ups and report writes (allocation, page faults, file I/O) follow the
// reference loop about half as much as the stepping loops do.
constexpr double kSetupSensitivity = 0.5;

constexpr int kMinTrials = 3;
constexpr int kMinTracePairs = 2;
constexpr int kReportWrites = 3;
// ~20 ms of the host-speed reference loop (reference_seconds()).
constexpr int kReferenceIterations = 4'000'000;

// The pinned graph. The digest is Topology::identity_digest() of the
// generator output: a faster generator that changes the graph changes the
// workload, and the correctness check refuses it. ER runs at mean degree 16
// because G(2^20, 8/n) has ~350 isolated vertices (nothing to PULL from).
constexpr double kErMeanDegree = 16.0;
constexpr std::uint64_t kErSeed = 203;
constexpr std::uint64_t kErDigest = 0x0037e120cef64b70ull;

// faulty_ckpt: the noisy-PULL E21 slice. A checkpoint (~1.5 ms: encode,
// fsync, rename) every 8 rounds (~7 ms each at n = 2^20 with faults) makes
// the write path ~3% of a trial, against 0.3% at a cadence of 64. Every 2
// rounds (~10%) was tried: the fsync latency, which other tenants' disk
// traffic moves and the reference loop cannot follow, then set the
// workload's spread. The trial cap is odd, so the newest ring entry is one
// round short of the end and the resumed run really steps.
constexpr std::uint64_t kCheckpointEvery = 8;
constexpr std::uint32_t kCheckpointRing = 2;

EnvironmentModel fault_model(std::uint64_t rounds, bool with_flip) {
  EnvironmentModel model;
  model.observation_noise = 0.01;
  model.zealot_fraction = 0.01;
  model.convergence_quorum = 0.9;
  if (with_flip) model.source_flip_rounds = {rounds / 2};
  return model;
}

// Layer probes size their slices to ~2^26 agent-steps (64 rounds at 2^20).
std::uint64_t probe_rounds(std::uint64_t n) {
  return std::max<std::uint64_t>(64, (std::uint64_t{1} << 26) / n);
}
constexpr std::uint64_t kAggregateProbeSteps = 1 << 16;
constexpr int kProbeSnapshotWrites = 4;

// The per-layer metrics of the traced pass, in output order. run.py checks
// this list against BENCHMARK.json (--self-test).
constexpr const char* kLayerMetrics[] = {
    "topology.build_s",
    "topology.csr_mb",
    "sharded.make_population_s",
    "sharded.step_ns_per_agent",
    "sharded.legacy_round_frac",
    "kernel.step_ns_per_agent.avx2",
    "kernel.step_ns_per_agent.scalar",
    "kernel.step_ns_per_agent.legacy",
    "run_loop.overhead_frac",
    "aggregate.step_ns",
    "random.binomial_ns",
    "faults.step_overhead_frac",
    "snapshot.encode_ms",
    "snapshot.write_ms_p50",
    "snapshot.write_ms_max",
    "snapshot.bytes",
    "snapshot.stall_frac",
    "snapshot.load_ms",
    "telemetry.report_write_ms",
    "trace.overhead_frac",
};

// ---------------------------------------------------------------------------
// Small helpers.

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t fnv_fold(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFF;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

JsonValue doubles(const std::vector<double>& values) {
  JsonValue out = JsonValue::array();
  for (const double v : values) out.push_back(v);
  return out;
}

// Installs a Checkpointer for one scope (the RunDriver reads the global).
class CheckpointerInstall {
 public:
  explicit CheckpointerInstall(snapshot::Checkpointer& checkpointer) {
    snapshot::install_checkpointer(&checkpointer);
  }
  ~CheckpointerInstall() { snapshot::install_checkpointer(nullptr); }
  CheckpointerInstall(const CheckpointerInstall&) = delete;
  CheckpointerInstall& operator=(const CheckpointerInstall&) = delete;
};

// Optional span: a no-op when the pass is untraced.
class MaybeSpan {
 public:
  MaybeSpan(SpanRecorder* recorder, const char* name, const char* layer) {
    if (recorder != nullptr) scope_.emplace(*recorder, name, layer);
  }

 private:
  std::optional<SpanRecorder::Scope> scope_;
};

// A ring path's entries verify (header + per-section CRC32C) and decode.
int verified_ring_entries(const snapshot::Checkpointer& checkpointer) {
  int ok = 0;
  for (std::uint32_t slot = 0; slot < kCheckpointRing; ++slot) {
    const auto file =
        snapshot::SnapshotFile::load(checkpointer.ring_entry_path(slot));
    snapshot::RunSnapshot decoded;
    if (file && snapshot::RunSnapshot::decode(*file, decoded)) ++ok;
  }
  return ok;
}

// What a checkpoint of a sharded run holds at `tick` (mirrors the
// RunDriver's capture for the sharded steppers; Checkpointer::write fills in
// the sequence and build stamp).
snapshot::RunSnapshot sharded_snapshot(const char* tag, std::uint64_t seed,
                                       std::uint64_t topology_digest,
                                       const Population& population,
                                       const Configuration& config,
                                       std::uint64_t tick,
                                       const FaultSession* session) {
  snapshot::RunSnapshot snap;
  snap.engine_tag = tag;
  snap.tick = tick;
  snap.round = tick;
  snap.config = config;
  snap.stepper.seed_check = seed;
  snap.stepper.topology_check = topology_digest;
  snap.stepper.plane = population.plane_words();
  snap.stepper.agent_states = population.memory_states();
  if (session != nullptr) {
    snap.has_faults = true;
    snap.faults.next_flip = session->next_flip();
    snap.faults.churned = session->churned();
    snap.faults.recoveries = session->recoveries();
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Trial and setup observations.

struct SetupResult {
  double seconds = 0.0;
  // Sharded workloads: step_dispatch() of the set-up population. Dispatch
  // depends only on set-up inputs, so every round of a run takes this path.
  const char* dispatch_reason = nullptr;
  bool legacy_dispatch = false;
  // Graph workloads only.
  std::uint64_t graph_digest = 0;
  std::uint64_t expected_digest = 0;
  bool connected = true;
  std::uint64_t min_degree = 0;
  std::uint64_t edges = 0;
};

struct TrialResult {
  double wall_s = 0.0;          // The whole trial (run + resume).
  double run_wall_s = 0.0;      // Time inside run() (the main run only).
  double layer_calls_s = 0.0;   // Replay: time inside timed layer calls.
  std::uint64_t digest = 0;     // payload_digest (folded over Voter runs).
  double agent_steps = 0.0;     // Non-source agent updates performed.
  double x_frac = 0.0;          // Final X/n of the main run.
  std::vector<double> run_ms;   // Aggregate: per-run walls.
  std::uint64_t rounds = 0;     // Rounds stepped in the main run(s).
  // Aggregate workloads.
  std::uint64_t runs = 0;
  std::uint64_t correct_runs = 0;
  // faulty_ckpt.
  std::uint64_t writes_expected = 0;
  std::uint64_t writes_done = 0;
  bool write_error = false;
  int ring_verified = 0;
  bool resumed = false;
  std::uint64_t resume_digest = 0;

  JsonValue to_json(bool faults, bool aggregate) const {
    JsonValue out = JsonValue::object();
    out.set("wall_s", wall_s);
    out.set("run_wall_s", run_wall_s);
    out.set("digest", hex(digest));
    out.set("agent_steps", agent_steps);
    out.set("rounds", rounds);
    if (aggregate) {
      out.set("runs", runs);
      out.set("correct_runs", correct_runs);
      out.set("run_ms", doubles(run_ms));
    } else {
      out.set("x_frac", x_frac);
    }
    if (faults) {
      out.set("writes_expected", writes_expected);
      out.set("writes_done", writes_done);
      out.set("write_error", write_error);
      out.set("ring_entries", static_cast<std::uint64_t>(kCheckpointRing));
      out.set("ring_verified", static_cast<std::uint64_t>(ring_verified));
      out.set("resumed", resumed);
      out.set("resume_digest", hex(resume_digest));
    }
    return out;
  }
};

// The inputs every layer probe needs: the workload's protocol, start, graph.
struct Shape {
  const MemorylessProtocol* protocol = nullptr;
  Configuration init;
  const Topology* topology = nullptr;
  EnvironmentModel probe_faults;  // Fault channels for faults.* (no flips).
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual SetupResult setup(SpanRecorder* recorder) = 0;
  virtual TrialResult trial() = 0;
  virtual TrialResult replay(SpanRecorder& recorder) = 0;
  virtual Shape shape() const = 0;
  // A checkpoint of the set-up state (the snapshot probe writes it).
  virtual snapshot::RunSnapshot checkpoint_state() const = 0;
};

// ---------------------------------------------------------------------------
// Sharded workloads: complete_kernel, graph_er, faulty_ckpt.

class ShardedWorkload final : public Workload {
 public:
  ShardedWorkload(const WorkloadSpec& spec, std::uint64_t seed,
                  const fs::path& work_dir)
      : spec_(spec),
        seed_(seed),
        ring_path_((work_dir / "ring" / "run").string()),
        protocol_(3),
        init_(init_half(spec.n, Opinion::kOne)),
        model_(fault_model(spec.trial_rounds, true)) {
    rule_.max_rounds = spec.trial_rounds;
    fs::create_directories(work_dir / "ring");
  }

  SetupResult setup(SpanRecorder* recorder) override {
    // Tear the previous setup down first so peak RSS never holds two graphs.
    population_.reset();
    engine_.reset();
    session_.reset();
    topology_ = Topology();

    SetupResult result;
    const std::uint64_t start = now_ns();
    {
      const MaybeSpan root(recorder, "setup", SpanRecorder::kBenchLayer);
      {
        const MaybeSpan span(recorder, "topology.build", "topology");
        topology_ = build_topology();
      }
      engine_.emplace(protocol_, ShardedEngineOptions{
                                     .threads = 1, .topology = &topology_});
      Configuration start_config = init_;
      if (spec_.faults) {
        session_.emplace(model_, init_);
        start_config = session_->plant(init_);
      }
      {
        const MaybeSpan span(recorder, "sharded.make_population",
                             "engine/sharded");
        population_.emplace(engine_->make_population(start_config));
      }
      {
        // The protocol's g-table and its kernel circuit.
        const MaybeSpan span(recorder, "sharded.dispatch", "engine/sharded");
        const auto dispatch = engine_->step_dispatch(
            *population_, session_ ? &*session_ : nullptr);
        result.dispatch_reason = dispatch.reason;
        result.legacy_dispatch = dispatch.backend == kernel::Backend::kLegacy;
      }
    }
    result.seconds = seconds_since(start);
    if (!topology_.is_complete()) {
      // Checked outside the timed setup: a correctness check, not setup.
      const MaybeSpan span(recorder, "topology.check", "topology");
      result.graph_digest = topology_.identity_digest();
      result.expected_digest = kErDigest;
      result.connected = topology_.connected();
      result.min_degree = topology_.min_degree();
      result.edges = topology_.edge_count();
    }
    return result;
  }

  TrialResult trial() override {
    TrialResult result;
    const std::uint64_t start = now_ns();
    if (!spec_.faults) {
      const RunResult run = engine_->run(init_, rule_, seed_);
      result.run_wall_s = result.wall_s = seconds_since(start);
      fill_run(result, run);
    } else {
      clear_ring();
      snapshot::Checkpointer checkpointer(checkpoint_options());
      RunResult run;
      {
        const CheckpointerInstall install(checkpointer);
        run = engine_->run(init_, rule_, model_, seed_);
      }
      result.run_wall_s = seconds_since(start);
      result.writes_expected = run.ticks / kCheckpointEvery;
      result.writes_done = checkpointer.written();
      result.write_error = !checkpointer.last_error().empty();
      // CRC verification is a check, not part of the experiment's time.
      result.ring_verified = verified_ring_entries(checkpointer);
      const std::uint64_t resume_start = now_ns();
      result.resume_digest = snapshot::payload_digest(resume(result.resumed));
      result.wall_s = result.run_wall_s + seconds_since(resume_start);
      fill_run(result, run);
    }
    return result;
  }

  TrialResult replay(SpanRecorder& recorder) override {
    TrialResult result;
    const std::size_t first_span = recorder.size();
    const std::uint64_t start = now_ns();
    RunResult run;
    {
      const SpanRecorder::Scope root(recorder, "trial.replay",
                                     SpanRecorder::kBenchLayer);
      run = spec_.faults ? replay_faulty(recorder, result)
                         : replay_clean(recorder);
    }
    // Ring verification is a check; the untraced trial leaves it out too.
    result.wall_s = seconds_since(start) -
                    recorder.seconds_of("snapshot.verify", first_span);
    result.layer_calls_s =
        recorder.seconds_of("sharded.step", first_span) +
        recorder.seconds_of("faults.apply_flip", first_span) +
        recorder.seconds_of("snapshot.checkpoint", first_span);
    fill_run(result, run);
    return result;
  }

  Shape shape() const override {
    return {&protocol_, init_, &topology_,
            fault_model(spec_.trial_rounds, false)};
  }

  snapshot::RunSnapshot checkpoint_state() const override {
    return sharded_snapshot(spec_.faults ? "sharded.faulty" : "sharded",
                            seed_, engine_->topology_digest(), *population_,
                            population_->config(), 0,
                            session_ ? &*session_ : nullptr);
  }

 private:
  Topology build_topology() const {
    if (spec_.graph == GraphKind::kErdosRenyi) {
      return Topology::erdos_renyi(
          spec_.n, kErMeanDegree / static_cast<double>(spec_.n), kErSeed);
    }
    return Topology::complete(spec_.n);
  }

  snapshot::CheckpointOptions checkpoint_options() const {
    return {.path = ring_path_,
            .every = kCheckpointEvery,
            .ring = kCheckpointRing};
  }

  void clear_ring() const {
    const snapshot::Checkpointer ring(checkpoint_options());
    for (std::uint32_t slot = 0; slot < kCheckpointRing; ++slot) {
      fs::remove(ring.ring_entry_path(slot));
    }
  }

  // Resumes the ring's newest entry and finishes the run (load_resume
  // "auto": newest entry that verifies).
  RunResult resume(bool& resumed, SpanRecorder* recorder = nullptr) const {
    snapshot::Checkpointer checkpointer(checkpoint_options());
    bool loaded = false;
    {
      const MaybeSpan span(recorder, "snapshot.load", "snapshot");
      loaded = checkpointer.load_resume("auto");
    }
    RunResult run;
    {
      const MaybeSpan span(recorder, "sharded.resume_run", "engine/sharded");
      const CheckpointerInstall install(checkpointer);
      run = engine_->run(init_, rule_, model_, seed_);
    }
    resumed = loaded && checkpointer.resumed_runs() == 1;
    return run;
  }

  void fill_run(TrialResult& result, const RunResult& run) const {
    result.digest = snapshot::payload_digest(run);
    result.rounds = run.ticks;
    result.x_frac = run.final_config.fraction_ones();
    const std::uint64_t updating =
        spec_.n - init_.sources -
        (spec_.faults ? model_.zealot_count(spec_.n, init_.sources) : 0);
    result.agent_steps =
        static_cast<double>(run.ticks) * static_cast<double>(updating);
  }

  // The fault-free RunDriver loop, round by round through step().
  RunResult replay_clean(SpanRecorder& recorder) const {
    const SeedSequence seeds(seed_);
    std::optional<Population> population;
    {
      const SpanRecorder::Scope span(recorder, "sharded.make_population",
                                     "engine/sharded");
      population.emplace(engine_->make_population(init_));
    }
    RunResult run;
    Configuration state = population->config();
    std::uint64_t tick = 0;
    {
      const SpanRecorder::Scope loop(recorder, "run_loop.replay",
                                     "engine/run_loop");
      while (true) {
        if (const auto reason = evaluate_stop(rule_, state)) {
          run.reason = *reason;
          break;
        }
        if (tick >= rule_.max_rounds) {
          run.reason = StopReason::kRoundLimit;
          break;
        }
        {
          const SpanRecorder::Scope step(recorder, "sharded.step",
                                         "engine/sharded");
          engine_->step(*population, tick, seeds);
        }
        state = population->config();
        ++tick;
      }
    }
    run.ticks = tick;
    run.final_config = state;
    return run;
  }

  // The faulty RunDriver loop: flips mirrored onto the plane, per-round
  // session observation, checkpoints every kCheckpointEvery rounds into the
  // ring — then the same resume as the untraced trial.
  RunResult replay_faulty(SpanRecorder& recorder, TrialResult& result) const {
    const SeedSequence seeds(seed_);
    clear_ring();
    FaultSession session(model_, init_);
    std::optional<Population> population;
    {
      const SpanRecorder::Scope span(recorder, "sharded.make_population",
                                     "engine/sharded");
      population.emplace(engine_->make_population(session.plant(init_)));
    }
    snapshot::Checkpointer ring(checkpoint_options());
    RunResult run;
    Configuration state = population->config();
    session.observe(0, state);
    std::uint64_t tick = 0;
    {
      const SpanRecorder::Scope loop(recorder, "run_loop.replay",
                                     "engine/run_loop");
      while (true) {
        if (session.flip_due(tick)) {
          const SpanRecorder::Scope flip(recorder, "faults.apply_flip",
                                         "faults");
          session.apply_flip(tick, state);
          population->set_correct(state.correct);
          for (std::uint64_t i = 0; i < population->source_count(); ++i) {
            population->set_opinion(i, state.correct);
          }
        }
        if (const auto reason = session.evaluate(rule_, state)) {
          run.reason = *reason;
          break;
        }
        if (tick >= rule_.max_rounds) {
          run.reason = session.censored_reason();
          break;
        }
        {
          const SpanRecorder::Scope step(recorder, "sharded.step",
                                         "engine/sharded");
          engine_->step(*population, tick, seeds, session);
        }
        state = population->config();
        ++tick;
        session.observe(tick, state);
        if (ring.due(tick)) {
          const SpanRecorder::Scope span(recorder, "snapshot.checkpoint",
                                         "snapshot");
          ring.write(sharded_snapshot("sharded.faulty", seed_,
                                      engine_->topology_digest(), *population,
                                      state, tick, &session));
        }
      }
    }
    run.ticks = tick;
    run.final_config = state;
    run.recoveries = session.take_recoveries();
    result.writes_expected = tick / kCheckpointEvery;
    result.writes_done = ring.written();
    result.write_error = !ring.last_error().empty();
    {
      const SpanRecorder::Scope verify(recorder, "snapshot.verify",
                                       "snapshot");
      result.ring_verified = verified_ring_entries(ring);
    }
    const RunResult resumed = resume(result.resumed, &recorder);
    result.resume_digest = snapshot::payload_digest(resumed);
    return run;
  }

  const WorkloadSpec& spec_;
  const std::uint64_t seed_;
  const std::string ring_path_;
  const MinorityDynamics protocol_;
  const Configuration init_;
  const EnvironmentModel model_;
  StopRule rule_;
  Topology topology_;
  std::optional<ShardedAgentEngine> engine_;
  std::optional<FaultSession> session_;
  std::optional<Population> population_;
};

// ---------------------------------------------------------------------------
// voter_replicates: independent Voter runs to correct consensus on the
// aggregate engine (the E1 slice).

class AggregateWorkload final : public Workload {
 public:
  AggregateWorkload(const WorkloadSpec& spec, std::uint64_t seed)
      : spec_(spec),
        seed_(seed),
        init_(init_all_wrong(spec.n, Opinion::kOne)) {
    // Thm 2's O(n log n) with a 60x margin: a run that hits the cap failed.
    rule_.max_rounds = static_cast<std::uint64_t>(
        60.0 * static_cast<double>(spec.n) *
        std::log(static_cast<double>(spec.n)));
  }

  SetupResult setup(SpanRecorder* recorder) override {
    engine_.reset();
    run_seeds_.clear();
    run_seeds_.shrink_to_fit();
    SetupResult result;
    const std::uint64_t start = now_ns();
    {
      const MaybeSpan root(recorder, "setup", SpanRecorder::kBenchLayer);
      {
        const MaybeSpan span(recorder, "topology.build", "topology");
        topology_ = Topology::complete(spec_.n);
      }
      engine_.emplace(protocol_, &topology_);
      {
        const MaybeSpan span(recorder, "random.seeds", "random");
        const SeedSequence seeds(seed_);
        run_seeds_.resize(spec_.trial_runs);
        for (std::uint64_t i = 0; i < spec_.trial_runs; ++i) {
          run_seeds_[i] = seeds.derive(i);
        }
      }
    }
    result.seconds = seconds_since(start);
    return result;
  }

  TrialResult trial() override {
    TrialResult result;
    result.run_ms.reserve(spec_.trial_runs);
    std::uint64_t digest = 0xCBF29CE484222325ull;
    const std::uint64_t start = now_ns();
    for (const std::uint64_t run_seed : run_seeds_) {
      Rng rng(run_seed);
      const std::uint64_t run_start = now_ns();
      const RunResult run = engine_->run(init_, rule_, rng);
      const double run_s = seconds_since(run_start);
      result.run_wall_s += run_s;
      result.run_ms.push_back(run_s * 1e3);
      record(result, run, digest);
    }
    result.wall_s = seconds_since(start);
    result.digest = digest;
    return result;
  }

  TrialResult replay(SpanRecorder& recorder) override {
    TrialResult result;
    const std::size_t first_span = recorder.size();
    std::uint64_t digest = 0xCBF29CE484222325ull;
    const std::uint64_t start = now_ns();
    {
      const SpanRecorder::Scope root(recorder, "trial.replay",
                                     SpanRecorder::kBenchLayer);
      for (const std::uint64_t run_seed : run_seeds_) {
        RunResult run;
        {
          // One span per run, covering its step + stop-check calls (each
          // ~100 ns, far below what a per-call span could time).
          SpanRecorder::Scope span(recorder, "aggregate.run",
                                   "engine/aggregate");
          Rng rng(run_seed);
          Configuration state = init_;
          std::uint64_t tick = 0;
          while (true) {
            if (const auto reason = evaluate_stop(rule_, state)) {
              run.reason = *reason;
              break;
            }
            if (tick >= rule_.max_rounds) {
              run.reason = StopReason::kRoundLimit;
              break;
            }
            state = engine_->step(state, rng);
            ++tick;
          }
          run.ticks = tick;
          run.final_config = state;
          span.calls = tick;
        }
        record(result, run, digest);
      }
    }
    result.wall_s = seconds_since(start);
    result.layer_calls_s = recorder.seconds_of("aggregate.run", first_span);
    result.digest = digest;
    return result;
  }

  Shape shape() const override {
    return {&protocol_, init_, &topology_, fault_model(0, false)};
  }

  snapshot::RunSnapshot checkpoint_state() const override {
    snapshot::RunSnapshot snap;
    snap.engine_tag = "aggregate";
    snap.config = init_;
    snap.stepper.rng.assign(1, Rng(run_seeds_.front()).state());
    return snap;
  }

 private:
  void record(TrialResult& result, const RunResult& run,
              std::uint64_t& digest) const {
    digest = fnv_fold(digest, snapshot::payload_digest(run));
    ++result.runs;
    if (run.reason == StopReason::kCorrectConsensus) ++result.correct_runs;
    result.rounds += run.ticks;
    result.agent_steps +=
        static_cast<double>(run.ticks) *
        static_cast<double>(spec_.n - init_.sources);
  }

  const WorkloadSpec& spec_;
  const std::uint64_t seed_;
  const VoterDynamics protocol_;
  const Configuration init_;
  StopRule rule_;
  Topology topology_;
  std::optional<AggregateParallelEngine> engine_;
  std::vector<std::uint64_t> run_seeds_;
};

// ---------------------------------------------------------------------------
// Layer probes: each layer timed at the workload's shape, under spans.

double ns_per_agent(double seconds, std::uint64_t rounds,
                    const Configuration& init) {
  return seconds * 1e9 /
         (static_cast<double>(rounds) *
          static_cast<double>(init.n - init.sources));
}

// The sharded engine on the shape (used where the workload itself runs the
// aggregate engine): make_population, a stepping slice, dispatch.
struct ShardedProbe {
  double make_population_s = 0.0;
  double step_ns_per_agent = 0.0;
  double legacy_round_frac = 0.0;
};

ShardedProbe probe_sharded(SpanRecorder& recorder, const Shape& shape,
                           std::uint64_t seed) {
  const SpanRecorder::Scope root(recorder, "probe.sharded",
                                 SpanRecorder::kBenchLayer);
  const ShardedAgentEngine engine(
      *shape.protocol, {.threads = 1, .topology = shape.topology});
  ShardedProbe probe;
  std::optional<Population> population;
  {
    const SpanRecorder::Scope span(recorder, "probe.make_population",
                                   "engine/sharded");
    population.emplace(engine.make_population(shape.init));
  }
  probe.make_population_s = recorder.spans().back().seconds();
  probe.legacy_round_frac =
      engine.step_dispatch(*population).backend == kernel::Backend::kLegacy
          ? 1.0
          : 0.0;
  const std::uint64_t rounds = probe_rounds(shape.init.n);
  const SeedSequence seeds(seed);
  const std::size_t first = recorder.size();
  {
    SpanRecorder::Scope span(recorder, "probe.sharded_steps",
                             "engine/sharded");
    span.calls = rounds;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      engine.step(*population, r, seeds);
    }
  }
  probe.step_ns_per_agent = ns_per_agent(
      recorder.seconds_of("probe.sharded_steps", first), rounds, shape.init);
  return probe;
}

// A fixed-length stepping slice per kernel backend (Options::kernel pinned).
// On a structured graph every backend resolves to the per-agent loop.
void probe_kernels(SpanRecorder& recorder, const Shape& shape,
                   std::uint64_t seed, JsonValue& layers) {
  const SpanRecorder::Scope root(recorder, "probe.kernel",
                                 SpanRecorder::kBenchLayer);
  struct Row {
    kernel::Backend backend;
    const char* span;
    const char* metric;
  };
  constexpr Row kRows[] = {
      {kernel::Backend::kAvx2, "kernel.slice.avx2",
       "kernel.step_ns_per_agent.avx2"},
      {kernel::Backend::kScalarWord, "kernel.slice.scalar",
       "kernel.step_ns_per_agent.scalar"},
      {kernel::Backend::kLegacy, "kernel.slice.legacy",
       "kernel.step_ns_per_agent.legacy"},
  };
  const std::uint64_t rounds = probe_rounds(shape.init.n);
  const SeedSequence seeds(seed);
  for (const Row& row : kRows) {
    const ShardedAgentEngine engine(*shape.protocol,
                                    {.threads = 1,
                                     .kernel = row.backend,
                                     .topology = shape.topology});
    std::optional<Population> population;
    {
      const SpanRecorder::Scope span(recorder, "probe.make_population",
                                     "engine/sharded");
      population.emplace(engine.make_population(shape.init));
    }
    const std::size_t first = recorder.size();
    {
      SpanRecorder::Scope span(recorder, row.span, "engine/kernel");
      span.calls = rounds;
      for (std::uint64_t r = 0; r < rounds; ++r) {
        engine.step(*population, r, seeds);
      }
    }
    layers.set(row.metric,
               ns_per_agent(recorder.seconds_of(row.span, first), rounds,
                            shape.init));
  }
}

// A faulty vs a fault-free step() on the same planted population. The two
// alternate in batches of >= 2^16 agent-steps, so both see the same host.
double probe_faults(SpanRecorder& recorder, const Shape& shape,
                    std::uint64_t seed) {
  const SpanRecorder::Scope root(recorder, "probe.faults",
                                 SpanRecorder::kBenchLayer);
  const ShardedAgentEngine engine(
      *shape.protocol, {.threads = 1, .topology = shape.topology});
  const FaultSession session(shape.probe_faults, shape.init);
  std::optional<Population> clean;
  {
    const SpanRecorder::Scope span(recorder, "probe.make_population",
                                   "engine/sharded");
    clean.emplace(engine.make_population(session.plant(shape.init)));
  }
  Population faulty = *clean;
  const std::uint64_t batch =
      std::max<std::uint64_t>(1, (std::uint64_t{1} << 16) / shape.init.n);
  const std::uint64_t rounds = probe_rounds(shape.init.n) / 4;
  const SeedSequence seeds(seed);
  const std::size_t first = recorder.size();
  for (std::uint64_t r = 0; r < rounds; r += batch) {
    {
      SpanRecorder::Scope span(recorder, "faults.clean_steps",
                               "engine/sharded");
      span.calls = batch;
      for (std::uint64_t b = r; b < r + batch; ++b) {
        engine.step(*clean, b, seeds);
      }
    }
    SpanRecorder::Scope span(recorder, "faults.faulty_steps", "faults");
    span.calls = batch;
    for (std::uint64_t b = r; b < r + batch; ++b) {
      engine.step(faulty, b, seeds, session);
    }
  }
  return recorder.seconds_of("faults.faulty_steps", first) /
             recorder.seconds_of("faults.clean_steps", first) -
         1.0;
}

// The aggregate engine on the shape's protocol and start, then the binomial
// sampler on the exact (n, p) mix those steps draw.
void probe_aggregate(SpanRecorder& recorder, const Shape& shape,
                     std::uint64_t seed, JsonValue& layers,
                     JsonValue& details) {
  const SpanRecorder::Scope root(recorder, "probe.aggregate",
                                 SpanRecorder::kBenchLayer);
  // Exact only under uniform PULL: on a graph workload this is the
  // mean-field chain of the same protocol at the same n.
  const AggregateParallelEngine engine(*shape.protocol);
  const auto walk = [&](Rng& rng, auto&& visit) {
    Configuration state = shape.init;
    for (std::uint64_t i = 0; i < kAggregateProbeSteps; ++i) {
      visit(state);
      state = engine.step(state, rng);
      if (state.is_consensus()) state = shape.init;  // Next replicate.
    }
  };
  std::vector<std::pair<std::uint64_t, double>> mix;
  mix.reserve(2 * kAggregateProbeSteps);
  {
    Rng rng(seed);
    walk(rng, [&](const Configuration& state) {
      const double p = state.fraction_ones();
      mix.emplace_back(state.non_source_ones(),
                       shape.protocol->aggregate_adoption(Opinion::kOne, p,
                                                          state.n));
      mix.emplace_back(state.non_source_zeros(),
                       shape.protocol->aggregate_adoption(Opinion::kZero, p,
                                                          state.n));
    });
  }
  const std::size_t first = recorder.size();
  {
    SpanRecorder::Scope span(recorder, "aggregate.steps", "engine/aggregate");
    span.calls = kAggregateProbeSteps;
    Rng rng(seed);
    walk(rng, [](const Configuration&) {});
  }
  std::uint64_t checksum = 0;
  {
    SpanRecorder::Scope span(recorder, "random.binomial", "random");
    span.calls = mix.size();
    Rng rng(seed);
    for (const auto& [trials, p] : mix) checksum += binomial(rng, trials, p);
  }
  layers.set("aggregate.step_ns",
             recorder.seconds_of("aggregate.steps", first) * 1e9 /
                 static_cast<double>(kAggregateProbeSteps));
  layers.set("random.binomial_ns",
             recorder.seconds_of("random.binomial", first) * 1e9 /
                 static_cast<double>(mix.size()));
  details.set("binomial_checksum", checksum);
}

// Encodes of the set-up state, then checkpoints of it into a scratch ring
// through Checkpointer::write, then one auto-resume load; returns the bytes
// of one ring entry. The faulty workload's replay checkpoints add to the
// same "snapshot.checkpoint" spans.
double probe_snapshot(SpanRecorder& recorder, const Workload& workload,
                      const fs::path& work_dir, bool& all_ok) {
  const SpanRecorder::Scope root(recorder, "probe.snapshot",
                                 SpanRecorder::kBenchLayer);
  fs::create_directories(work_dir / "probe");
  snapshot::Checkpointer ring({.path = (work_dir / "probe" / "ring").string(),
                               .ring = kCheckpointRing});
  for (int i = 0; i < kProbeSnapshotWrites; ++i) {
    const snapshot::RunSnapshot snap = workload.checkpoint_state();
    const SpanRecorder::Scope span(recorder, "snapshot.encode", "snapshot");
    all_ok = !snap.encode().sections().empty() && all_ok;
  }
  for (int i = 0; i < kProbeSnapshotWrites; ++i) {
    const SpanRecorder::Scope span(recorder, "snapshot.checkpoint",
                                   "snapshot");
    all_ok = ring.write(workload.checkpoint_state()) && all_ok;
  }
  {
    const SpanRecorder::Scope span(recorder, "snapshot.load", "snapshot");
    all_ok = ring.load_resume("auto") && all_ok;
  }
  std::error_code error;
  const auto bytes = fs::file_size(ring.ring_entry_path(0), error);
  all_ok = all_ok && !error;
  return error ? 0.0 : static_cast<double>(bytes);
}

// ---------------------------------------------------------------------------
// The experiment report (what a bench emits at the end of a run).

bool write_report(const WorkloadSpec& spec, std::uint64_t seed,
                  const std::vector<SetupResult>& setups,
                  const std::vector<TrialResult>& trials,
                  const fs::path& path) {
  JsonReporter reporter("bench_e2e");
  reporter.set_experiment(spec.name);
  reporter.set_seed(seed);
  reporter.set_workload("n", spec.n);
  reporter.set_workload("trial_rounds", spec.trial_rounds);
  reporter.set_workload("trial_runs", spec.trial_runs);
  for (const SetupResult& setup : setups) {
    reporter.add_phase("setup", setup.seconds);
  }
  for (const TrialResult& trial : trials) {
    reporter.add_phase("trial", trial.wall_s);
  }
  return reporter.write_file(path.string());
}

// ---------------------------------------------------------------------------
// Host and build stamp.

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

JsonValue host_info() {
  JsonValue info = JsonValue::object();
#ifdef NDEBUG
  info.set("ndebug", true);
#else
  info.set("ndebug", false);
#endif
#if defined(__VERSION__)
  info.set("compiler", std::string("gcc-compatible ") + __VERSION__);
#else
  info.set("compiler", "unknown");
#endif
  info.set("kernel_backend",
           kernel::backend_name(kernel::resolve(kernel::Backend::kAuto)));
  info.set("nproc", static_cast<std::uint64_t>(host_concurrency()));
  info.set("cpu_model", cpu_model());
  info.set("l2_kb", static_cast<std::int64_t>(sysconf(_SC_LEVEL2_CACHE_SIZE) /
                                              1024));
  info.set("l3_kb", static_cast<std::int64_t>(sysconf(_SC_LEVEL3_CACHE_SIZE) /
                                              1024));
  info.set("threads_used", 1);
  return info;
}

// Peak resident memory of the experiment's own data, in KiB: the process's
// high-water mark minus its file-backed and shared resident pages (program
// text and libraries). Those depend on the page cache — the kernel may map
// executable text through 2 MiB file pages — not on the experiment, and on
// small workloads they are most of the RSS. Falls back to ru_maxrss where
// /proc/self/status is unavailable.
double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  double hwm = -1.0, file = 0.0, shmem = 0.0;
  for (std::string line; std::getline(status, line);) {
    const auto field = [&line](const char* key, double& out) {
      if (line.rfind(key, 0) == 0) {
        out = std::strtod(line.c_str() + std::strlen(key), nullptr);
      }
    };
    field("VmHWM:", hwm);
    field("RssFile:", file);
    field("RssShmem:", shmem);
  }
  if (hwm >= 0.0) return hwm - file - shmem;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

// ---------------------------------------------------------------------------
// The two passes.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_dir;
  std::string trace_out;
};

// The host-speed reference: fixed integer work in four independent
// dependency chains, touching no memory, so it leaves the caches as the
// library left them. On the 4-vCPU guest this benchmark was defined on,
// other tenants slow the library by up to 1.8x for minutes at a time; this
// loop slows with them about as much, where a single dependency chain barely
// notices them (README.md, "Host-speed normalisation"). Every set-up and
// trial is bracketed by a run of it, and run.py divides by the bracket.
double reference_seconds() {
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  const std::uint64_t start = now_ns();
  for (int i = 0; i < kReferenceIterations; ++i) {
    a ^= a << 13;
    a ^= a >> 7;
    a ^= a << 17;
    b ^= b << 13;
    b ^= b >> 7;
    b ^= b << 17;
    c ^= c << 13;
    c ^= c >> 7;
    c ^= c << 17;
    d ^= d << 13;
    d ^= d >> 7;
    d ^= d << 17;
  }
  const double seconds = seconds_since(start);
  // Keeps the chains live; xorshift never reaches 0 from a nonzero state.
  if ((a | b | c | d) == 0) std::abort();
  return seconds;
}

JsonValue run_untraced(const WorkloadSpec& spec, Workload& workload,
                       const Args& args) {
  std::vector<SetupResult> setups;
  std::vector<TrialResult> trials;
  // reference[k] precedes set-up k, setup_reference[k] sits between set-up k
  // and trial k, and reference[k + 1] follows trial k (the last entry follows
  // the report writes): each section is bracketed by the two runs next to it.
  std::vector<double> reference = {reference_seconds()};
  std::vector<double> setup_reference;
  // Peak RSS of one whole experiment (setup + a trial): read after the
  // first trial, before the kept per-trial observations grow the heap.
  double peak_rss = 0.0;
  const std::uint64_t start = now_ns();
  while (static_cast<int>(trials.size()) < kMinTrials ||
         seconds_since(start) < args.seconds) {
    // A fresh setup before every trial: spread over the run, the set-up
    // times sample the host at as many moments as there are trials. Five
    // back-to-back graph set-ups at the start of a run left graph_er's
    // experiment_s spread at 7.5% over ten seeds, against 4.6% this way.
    setups.push_back(workload.setup(nullptr));
    setup_reference.push_back(reference_seconds());
    trials.push_back(workload.trial());
    if (trials.size() == 1) peak_rss = peak_rss_kb();
    reference.push_back(reference_seconds());
  }
  const double measured_s = seconds_since(start);
  std::vector<double> report_s;
  bool reports_ok = true;
  for (int i = 0; i < kReportWrites; ++i) {
    const std::uint64_t write_start = now_ns();
    reports_ok = write_report(spec, args.seed, setups, trials,
                              args.work_dir / "report.json") &&
                 reports_ok;
    report_s.push_back(seconds_since(write_start));
  }
  reference.push_back(reference_seconds());

  JsonValue out = JsonValue::object();
  JsonValue setup_json = JsonValue::array();
  for (const SetupResult& setup : setups) {
    JsonValue row = JsonValue::object();
    row.set("seconds", setup.seconds);
    if (spec.graph != GraphKind::kComplete) {
      row.set("graph_digest", hex(setup.graph_digest));
      row.set("expected_digest", hex(setup.expected_digest));
      row.set("connected", setup.connected);
      row.set("min_degree", setup.min_degree);
      row.set("edges", setup.edges);
    }
    setup_json.push_back(std::move(row));
  }
  out.set("setups", std::move(setup_json));
  JsonValue trial_json = JsonValue::array();
  for (const TrialResult& trial : trials) {
    trial_json.push_back(
        trial.to_json(spec.faults, spec.engine == EngineKind::kAggregate));
  }
  out.set("trials", std::move(trial_json));
  out.set("measured_s", measured_s);
  out.set("report_write_s", doubles(report_s));
  out.set("reports_ok", reports_ok);
  out.set("peak_rss_kb", peak_rss);
  out.set("reference_s", doubles(reference));
  out.set("setup_reference_s", doubles(setup_reference));
  return out;
}

JsonValue run_traced(const WorkloadSpec& spec, Workload& workload,
                     const Args& args) {
  SpanRecorder recorder;
  const std::uint64_t pass_start = now_ns();
  const SetupResult setup = workload.setup(&recorder);

  JsonValue pairs = JsonValue::array();
  std::vector<double> trace_overhead, run_loop_overhead;
  std::vector<TrialResult> replays;
  double untraced_round_s = 0.0;
  const std::uint64_t start = now_ns();
  while (static_cast<int>(replays.size()) < kMinTracePairs ||
         seconds_since(start) < args.seconds) {
    const TrialResult untraced = workload.trial();
    TrialResult traced = workload.replay(recorder);
    trace_overhead.push_back(traced.wall_s / untraced.wall_s - 1.0);
    run_loop_overhead.push_back(1.0 - traced.layer_calls_s /
                                          untraced.run_wall_s);
    untraced_round_s =
        untraced.run_wall_s / static_cast<double>(untraced.rounds);
    JsonValue pair = JsonValue::object();
    pair.set("untraced_digest", hex(untraced.digest));
    pair.set("traced_digest", hex(traced.digest));
    pair.set("untraced_s", untraced.wall_s);
    pair.set("traced_s", traced.wall_s);
    if (spec.faults) {
      pair.set("traced", traced.to_json(true, false));
    }
    pairs.push_back(std::move(pair));
    replays.push_back(std::move(traced));
  }

  const Shape shape = workload.shape();
  JsonValue layers = JsonValue::object();
  JsonValue details = JsonValue::object();
  bool probes_ok = true;

  // topology + sharded layers.
  layers.set("topology.build_s",
             recorder.durations_of("topology.build").front());
  const Topology& topology = *shape.topology;
  layers.set("topology.csr_mb",
             static_cast<double>(topology.offsets().size() * 8 +
                                 topology.adjacency().size() * 4) /
                 (1024.0 * 1024.0));
  details.set("topology.edges", topology.edge_count());
  if (spec.engine == EngineKind::kSharded) {
    layers.set("sharded.make_population_s",
               recorder.durations_of("sharded.make_population").front());
    layers.set("sharded.step_ns_per_agent",
               ns_per_agent(recorder.seconds_of("sharded.step"),
                            recorder.durations_of("sharded.step").size(),
                            shape.init));
    layers.set("sharded.legacy_round_frac", setup.legacy_dispatch ? 1.0 : 0.0);
    details.set("dispatch_reason", setup.dispatch_reason);
  } else {
    const ShardedProbe probe = probe_sharded(recorder, shape, args.seed);
    layers.set("sharded.make_population_s", probe.make_population_s);
    layers.set("sharded.step_ns_per_agent", probe.step_ns_per_agent);
    layers.set("sharded.legacy_round_frac", probe.legacy_round_frac);
  }
  probe_kernels(recorder, shape, args.seed, layers);
  layers.set("run_loop.overhead_frac", median(run_loop_overhead));
  probe_aggregate(recorder, shape, args.seed, layers, details);
  layers.set("faults.step_overhead_frac",
             probe_faults(recorder, shape, args.seed));

  // snapshot layer: probe writes (every workload) + replay checkpoints.
  layers.set("snapshot.bytes",
             probe_snapshot(recorder, workload, args.work_dir, probes_ok));
  const std::vector<double> checkpoints =
      recorder.durations_of("snapshot.checkpoint");
  const double write_p50 = median(checkpoints);
  layers.set("snapshot.encode_ms",
             median(recorder.durations_of("snapshot.encode")) * 1e3);
  layers.set("snapshot.write_ms_p50", write_p50 * 1e3);
  layers.set("snapshot.write_ms_max",
             *std::max_element(checkpoints.begin(), checkpoints.end()) * 1e3);
  // Share of wall a checkpoint every kCheckpointEvery rounds would stall.
  layers.set("snapshot.stall_frac",
             write_p50 / (write_p50 + static_cast<double>(kCheckpointEvery) *
                                          untraced_round_s));
  layers.set("snapshot.load_ms",
             median(recorder.durations_of("snapshot.load")) * 1e3);
  details.set("snapshot.writes", static_cast<std::uint64_t>(checkpoints.size()));

  {
    const SpanRecorder::Scope root(recorder, "report",
                                   SpanRecorder::kBenchLayer);
    for (int i = 0; i < kReportWrites; ++i) {
      const SpanRecorder::Scope span(recorder, "telemetry.report_write",
                                     "telemetry");
      probes_ok = write_report(spec, args.seed, {setup}, replays,
                               args.work_dir / "report.json") &&
                  probes_ok;
    }
  }
  layers.set("telemetry.report_write_ms",
             median(recorder.durations_of("telemetry.report_write")) * 1e3);
  layers.set("trace.overhead_frac", median(trace_overhead));

  // Self time per layer. The traced wall is the root spans' total; the
  // layers must account for all of it but the benchmark's own glue.
  const auto self = recorder.self_seconds_by_layer();
  JsonValue self_json = JsonValue::object();
  double layer_sum = 0.0;
  for (const auto& [layer, seconds] : self) {
    self_json.set(layer, seconds);
    if (layer != SpanRecorder::kBenchLayer) layer_sum += seconds;
  }
  const double traced_wall = recorder.root_seconds();

  JsonValue out = JsonValue::object();
  out.set("layers", std::move(layers));
  out.set("self_time_s", std::move(self_json));
  out.set("layer_self_sum_s", layer_sum);
  out.set("traced_wall_s", traced_wall);
  out.set("pass_wall_s", seconds_since(pass_start));
  out.set("pairs", std::move(pairs));
  out.set("spans", static_cast<std::uint64_t>(recorder.size()));
  out.set("probes_ok", probes_ok);
  if (spec.graph != GraphKind::kComplete) {
    out.set("graph_digest", hex(setup.graph_digest));
    out.set("expected_digest", hex(setup.expected_digest));
    out.set("connected", setup.connected);
    out.set("min_degree", setup.min_degree);
  }
  out.set("details", std::move(details));

  if (!args.trace_out.empty()) {
    std::ofstream file(args.trace_out);
    file << recorder.chrome_trace().dump();
    out.set("trace_written", static_cast<bool>(file));
  }
  return out;
}

int usage() {
  std::cerr << "usage: bench_e2e --workload=<name> --work-dir=<dir> "
               "[--seed=<n>] [--seconds=<s>] [--trace=<0|1>] "
               "[--trace-out=<path>]\n"
               "       bench_e2e --info | --list-metrics | --list-workloads\n";
  return 2;
}

}  // namespace
}  // namespace bitspread::e2e

int main(int argc, char** argv) {
  using namespace bitspread;
  using namespace bitspread::e2e;

  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) != 0) return std::nullopt;
      return arg.substr(prefix.size());
    };
    if (arg == "--info") {
      std::cout << host_info().dump();
      return 0;
    }
    if (arg == "--list-metrics") {
      for (const char* name : kLayerMetrics) std::cout << name << "\n";
      return 0;
    }
    if (arg == "--list-workloads") {
      for (const WorkloadSpec& spec : kWorkloads) {
        std::cout << spec.name << "\n";
      }
      return 0;
    }
    if (auto v = value("--workload")) {
      args.workload = *v;
    } else if (auto v = value("--seed")) {
      args.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--seconds")) {
      args.seconds = std::strtod(v->c_str(), nullptr);
    } else if (auto v = value("--trace")) {
      args.trace = *v == "1";
    } else if (auto v = value("--work-dir")) {
      args.work_dir = *v;
    } else if (auto v = value("--trace-out")) {
      args.trace_out = *v;
    } else {
      std::cerr << "bench_e2e: unknown argument '" << arg << "'\n";
      return usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : kWorkloads) {
    if (args.workload == candidate.name) spec = &candidate;
  }
  if (spec == nullptr || args.work_dir.empty()) {
    std::cerr << "bench_e2e: unknown or missing --workload / --work-dir\n";
    return usage();
  }
  fs::create_directories(args.work_dir);

  std::unique_ptr<Workload> workload;
  if (spec->engine == EngineKind::kSharded) {
    workload = std::make_unique<ShardedWorkload>(*spec, args.seed,
                                                 args.work_dir);
  } else {
    workload = std::make_unique<AggregateWorkload>(*spec, args.seed);
  }

  JsonValue out = args.trace ? run_traced(*spec, *workload, args)
                             : run_untraced(*spec, *workload, args);
  JsonValue shape = JsonValue::object();
  shape.set("n", spec->n);
  shape.set("ell", workload->shape().protocol->sample_size(spec->n));
  shape.set("trial_rounds", spec->trial_rounds);
  shape.set("trial_runs", spec->trial_runs);
  shape.set("trial_sensitivity", spec->trial_sensitivity);
  shape.set("setup_sensitivity", kSetupSensitivity);
  shape.set("faults", spec->faults);
  shape.set("graph", workload->shape().topology->describe());
  out.set("workload", spec->name);
  out.set("seed", args.seed);
  out.set("trace", args.trace);
  out.set("shape", std::move(shape));
  out.set("host", host_info());
  std::cout << out.dump();
  return 0;
}
