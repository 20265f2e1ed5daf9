// Checkpoint/restore: container integrity (CRC32C, truncation, bit flips),
// crash-safe ring semantics, and the acceptance property of the subsystem —
// an interrupted-then-resumed run reproduces the EXACT payload digest of the
// uninterrupted run, for the aggregate engine, the sharded engine at several
// thread/shard counts, the bitslice kernel backends, and faulty runs resumed
// mid-RecoverySegment or one round before a scheduled source flip.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/init.h"
#include "engine/aggregate.h"
#include "engine/sharded.h"
#include "engine/trajectory.h"
#include "faults/environment.h"
#include "protocols/minority.h"
#include "snapshot/checkpoint.h"
#include "snapshot/format.h"
#include "snapshot/state.h"
#include "telemetry/jsonl.h"

namespace bitspread {
namespace {

// Installs a checkpointer for one scope; uninstalls (and clears any leftover
// interrupt request) on exit so tests cannot leak state into each other.
class ScopedCheckpointer {
 public:
  explicit ScopedCheckpointer(snapshot::Checkpointer* checkpointer) {
    snapshot::install_checkpointer(checkpointer);
  }
  ~ScopedCheckpointer() {
    snapshot::install_checkpointer(nullptr);
    snapshot::clear_interrupt();
  }
};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "bitspread_snap_" + name;
}

// Ring base for a Checkpointer, with any ring entries left by a previous
// execution of this binary removed — a stale .snap under the same base
// would otherwise be picked up by auto-resume in a later run.
std::string fresh_ring_base(const std::string& name) {
  const std::string base = temp_path(name);
  for (std::uint32_t slot = 0; slot < 256; ++slot) {
    std::remove((base + "." + std::to_string(slot) + ".snap").c_str());
  }
  return base;
}

// Scans a write ring for the entry snapshotted at `round`; empty when none.
std::string ring_file_for_round(const snapshot::Checkpointer& ring,
                                std::uint64_t round) {
  for (std::uint32_t slot = 0; slot < ring.options().ring; ++slot) {
    const std::string path = ring.ring_entry_path(slot);
    const auto file = snapshot::SnapshotFile::load(path);
    if (!file) continue;
    snapshot::RunSnapshot snap;
    if (snapshot::RunSnapshot::decode(*file, snap) && snap.round == round) {
      return path;
    }
  }
  return {};
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

// --- Container format -----------------------------------------------------

TEST(SnapshotFormat, Crc32cMatchesReferenceVector) {
  // RFC 3720 test vector for CRC32C: "123456789" -> 0xE3069283.
  const char* digits = "123456789";
  EXPECT_EQ(snapshot::crc32c(digits, 9), 0xE3069283u);
}

TEST(SnapshotFormat, SerializeParseRoundTrip) {
  snapshot::SnapshotFile file;
  file.add(snapshot::section_tag("AAAA"), {1, 2, 3});
  file.add(snapshot::section_tag("BBBB"), {});
  file.add(snapshot::section_tag("CCCC"), std::vector<std::uint8_t>(300, 7));

  const std::vector<std::uint8_t> bytes = file.serialize();
  std::string error;
  const auto parsed =
      snapshot::SnapshotFile::parse(bytes.data(), bytes.size(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_NE(parsed->find(snapshot::section_tag("AAAA")), nullptr);
  EXPECT_EQ(parsed->find(snapshot::section_tag("AAAA"))->payload,
            (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(parsed->find(snapshot::section_tag("BBBB"))->payload.empty());
  EXPECT_EQ(parsed->find(snapshot::section_tag("CCCC"))->payload.size(), 300u);
  EXPECT_EQ(parsed->find(snapshot::section_tag("DDDD")), nullptr);
}

TEST(SnapshotFormat, EveryTruncationIsRejected) {
  snapshot::SnapshotFile file;
  file.add(snapshot::section_tag("AAAA"), {1, 2, 3, 4, 5});
  const std::vector<std::uint8_t> bytes = file.serialize();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_FALSE(snapshot::SnapshotFile::parse(bytes.data(), keep).has_value())
        << "prefix of " << keep << " bytes parsed";
  }
}

TEST(SnapshotFormat, EverySingleBitFlipIsRejected) {
  snapshot::SnapshotFile file;
  file.add(snapshot::section_tag("AAAA"), {10, 20, 30});
  std::vector<std::uint8_t> bytes = file.serialize();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(
          snapshot::SnapshotFile::parse(bytes.data(), bytes.size()).has_value())
          << "flip at byte " << i << " bit " << bit << " parsed";
      bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST(SnapshotFormat, AtomicWriteThenLoadRoundTrips) {
  snapshot::SnapshotFile file;
  file.add(snapshot::section_tag("AAAA"), {9, 9, 9});
  const std::string path = temp_path("atomic.snap");
  std::string error;
  ASSERT_TRUE(file.write_atomic(path, &error)) << error;
  const auto loaded = snapshot::SnapshotFile::load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->find(snapshot::section_tag("AAAA"))->payload,
            (std::vector<std::uint8_t>{9, 9, 9}));
}

// --- RunSnapshot encode/decode --------------------------------------------

snapshot::RunSnapshot sample_snapshot() {
  snapshot::RunSnapshot snap;
  snap.engine_tag = "sharded.faulty";
  snap.run_ordinal = 2;
  snap.sequence = 41;
  snap.tick = 640;
  snap.round = 640;
  snap.config = Configuration{4096, 2048, Opinion::kOne, 1};
  snap.stepper.seed_check = 0xDEADBEEF;
  snap.stepper.plane = {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  snap.stepper.agent_states = {1, 2, 3};
  snap.stepper.samples_drawn = 777;
  snap.has_faults = true;
  snap.faults.next_flip = 1;
  snap.faults.churned = 5;
  snap.faults.recoveries.resize(2);
  snap.faults.recoveries[0].flip_round = 0;
  snap.faults.recoveries[0].recovered_round = 12;
  snap.faults.recoveries[0].recovered = true;
  snap.faults.recoveries[1].flip_round = 30;
  snap.has_trajectory = true;
  snap.trajectory = {{0, 2048}, {100, 2100}};
  snap.stream_rounds_seen = 641;
  snap.stream_lines = 65;
  return snap;
}

TEST(RunSnapshot, EncodeDecodeRoundTripsEveryField) {
  const snapshot::RunSnapshot snap = sample_snapshot();
  snapshot::RunSnapshot out;
  std::string error;
  ASSERT_TRUE(snapshot::RunSnapshot::decode(snap.encode(), out, &error))
      << error;
  EXPECT_EQ(out.engine_tag, snap.engine_tag);
  EXPECT_EQ(out.run_ordinal, snap.run_ordinal);
  EXPECT_EQ(out.sequence, snap.sequence);
  EXPECT_EQ(out.tick, snap.tick);
  EXPECT_EQ(out.round, snap.round);
  EXPECT_EQ(out.config, snap.config);
  EXPECT_EQ(out.stepper, snap.stepper);
  ASSERT_TRUE(out.has_faults);
  EXPECT_EQ(out.faults, snap.faults);
  ASSERT_TRUE(out.has_trajectory);
  ASSERT_EQ(out.trajectory.size(), 2u);
  EXPECT_EQ(out.trajectory[1].round, 100u);
  EXPECT_EQ(out.trajectory[1].ones, 2100u);
  EXPECT_EQ(out.stream_rounds_seen, 641u);
  EXPECT_EQ(out.stream_lines, 65u);
}

TEST(RunSnapshot, DecodeRejectsMissingSectionsAndInvalidConfig) {
  snapshot::RunSnapshot out;
  std::string error;
  EXPECT_FALSE(
      snapshot::RunSnapshot::decode(snapshot::SnapshotFile{}, out, &error));

  snapshot::RunSnapshot bad = sample_snapshot();
  bad.config.ones = bad.config.n + 5;  // ones > n: invalid.
  EXPECT_FALSE(snapshot::RunSnapshot::decode(bad.encode(), out, &error));
  EXPECT_NE(error.find("CONF"), std::string::npos) << error;
}

// --- Checkpointer ring ----------------------------------------------------

TEST(Checkpointer, AutoResumePicksNewestAndFallsBackPastCorruption) {
  snapshot::CheckpointOptions options;
  options.path = fresh_ring_base("ring");
  options.ring = 3;
  snapshot::Checkpointer ring(options);

  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    snapshot::RunSnapshot snap = sample_snapshot();
    snap.round = 100 + seq;
    ASSERT_TRUE(ring.write(snap));
  }
  // Slots now hold sequences {3, 4, 2}; newest (seq 4) lives in slot 1.
  {
    snapshot::Checkpointer reader(options);
    ASSERT_TRUE(reader.load_resume("auto"));
    EXPECT_EQ(reader.pending_resume()->sequence, 4u);
    EXPECT_EQ(reader.pending_resume()->round, 104u);
  }
  // Bit-flip the newest entry: auto-resume must fall back to sequence 3.
  {
    std::vector<std::uint8_t> bytes = read_file(ring.ring_entry_path(1));
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x10;
    write_file(ring.ring_entry_path(1), bytes);

    snapshot::Checkpointer reader(options);
    ASSERT_TRUE(reader.load_resume("auto"));
    EXPECT_EQ(reader.pending_resume()->sequence, 3u);
    EXPECT_EQ(reader.pending_resume()->round, 103u);
  }
  // Explicit-path resume is strict: the corrupt file is a hard failure.
  {
    snapshot::Checkpointer reader(options);
    EXPECT_FALSE(reader.load_resume(ring.ring_entry_path(1)));
    EXPECT_NE(reader.last_error().find("CRC"), std::string::npos)
        << reader.last_error();
  }
}

TEST(Checkpointer, TakeResumeMatchesOrdinalAndTagOnce) {
  snapshot::CheckpointOptions options;
  options.path = fresh_ring_base("take");
  snapshot::Checkpointer writer(options);
  snapshot::RunSnapshot snap = sample_snapshot();
  snap.run_ordinal = 1;
  snap.engine_tag = "aggregate";
  ASSERT_TRUE(writer.write(snap));

  snapshot::Checkpointer reader(options);
  ASSERT_TRUE(reader.load_resume("auto"));
  EXPECT_EQ(reader.take_resume(0, "aggregate"), nullptr);  // Wrong ordinal.
  EXPECT_EQ(reader.take_resume(1, "sharded"), nullptr);    // Wrong engine.
  EXPECT_NE(reader.take_resume(1, "aggregate"), nullptr);
  EXPECT_EQ(reader.take_resume(1, "aggregate"), nullptr);  // One-shot.
  EXPECT_EQ(reader.resumed_runs(), 1u);

  // A snapshot whose tag no stepper carries (`sequential.faulty`) is refused
  // by the sequential engine's own tag, not half-restored.
  snap.engine_tag = "sequential.faulty";
  ASSERT_TRUE(writer.write(snap));
  snapshot::Checkpointer stale(options);
  ASSERT_TRUE(stale.load_resume("auto"));
  EXPECT_EQ(stale.take_resume(1, "sequential"), nullptr);
  EXPECT_EQ(stale.resumed_runs(), 0u);
}

// --- Deterministic resume: the acceptance property ------------------------

// Shared fixture pieces: a balanced minority(3) start stalls (Theorem 1),
// so every run below is a long, structure-rich censored run.
constexpr std::uint64_t kN = 1 << 12;
constexpr std::uint64_t kRounds = 120;
constexpr std::uint64_t kResumeRound = 40;

StopRule stall_rule() {
  StopRule rule;
  rule.max_rounds = kRounds;
  return rule;
}

// Runs `run` uninterrupted for the golden digest, again with periodic
// checkpoints (digest must be unperturbed), then once more resuming from the
// ring entry at kResumeRound (digest must be identical).
template <typename RunFn>
void expect_digest_identical_resume(const std::string& tag, RunFn run) {
  const std::uint64_t golden = snapshot::payload_digest(run());

  snapshot::CheckpointOptions options;
  options.path = fresh_ring_base(tag);
  options.every = 10;
  options.ring = 64;  // Retain every snapshot of the run.
  snapshot::Checkpointer writer(options);
  {
    const ScopedCheckpointer installed(&writer);
    EXPECT_EQ(snapshot::payload_digest(run()), golden)
        << "checkpointing perturbed the run";
  }
  EXPECT_GT(writer.written(), 0u);

  const std::string entry = ring_file_for_round(writer, kResumeRound);
  ASSERT_FALSE(entry.empty()) << "no ring entry at round " << kResumeRound;
  snapshot::Checkpointer resumer(options);  // every=10 also re-checkpoints.
  ASSERT_TRUE(resumer.load_resume(entry));
  {
    const ScopedCheckpointer installed(&resumer);
    EXPECT_EQ(snapshot::payload_digest(run()), golden)
        << "resume from round " << kResumeRound << " diverged";
  }
  EXPECT_EQ(resumer.resumed_runs(), 1u) << "resume never engaged";
}

TEST(DeterministicResume, AggregateEngine) {
  const MinorityDynamics minority(3);
  const AggregateParallelEngine engine(minority);
  const Configuration init = init_fraction_ones(kN, Opinion::kOne, 0.5);
  expect_digest_identical_resume("agg", [&] {
    Rng rng(99);  // Fresh generator per run; restore() overwrites its state.
    return engine.run(init, stall_rule(), rng);
  });
}

TEST(DeterministicResume, AggregateEngineWithFaults) {
  const MinorityDynamics minority(3);
  const AggregateParallelEngine engine(minority);
  const Configuration init = init_fraction_ones(kN, Opinion::kOne, 0.5);
  EnvironmentModel faults;
  faults.source_flip_rounds = {30};
  faults.churn_rate = 0.001;
  expect_digest_identical_resume("aggf", [&] {
    Rng rng(99);
    return engine.run(init, stall_rule(), faults, rng);
  });
}

TEST(DeterministicResume, ShardedEngineAcrossThreadAndShardCounts) {
  const MinorityDynamics minority(3);
  const Configuration init =
      init_fraction_ones(1 << 14, Opinion::kOne, 0.5);  // 4 blocks.
  // The same seed must give the same digest for EVERY thread/shard count,
  // interrupted or not — so checkpoint under one geometry and resume under
  // others, all against one golden.
  ShardedEngineOptions legacy;
  legacy.kernel = kernel::Backend::kLegacy;
  std::optional<std::uint64_t> golden;
  for (const auto& [threads, shards] :
       std::vector<std::pair<unsigned, std::uint32_t>>{
           {1, 1}, {2, 3}, {4, 2}}) {
    ShardedEngineOptions options = legacy;
    options.threads = threads;
    options.shards = shards;
    const ShardedAgentEngine engine(minority, options);
    const auto run = [&] { return engine.run(init, stall_rule(), 1234); };
    if (!golden) golden = snapshot::payload_digest(run());

    snapshot::CheckpointOptions copts;
    copts.path = fresh_ring_base("shr" + std::to_string(threads) + "x" +
                                 std::to_string(shards));
    copts.every = 10;
    copts.ring = 64;
    snapshot::Checkpointer writer(copts);
    {
      const ScopedCheckpointer installed(&writer);
      EXPECT_EQ(snapshot::payload_digest(run()), *golden);
    }
    const std::string entry = ring_file_for_round(writer, kResumeRound);
    ASSERT_FALSE(entry.empty());
    // Resume under a DIFFERENT geometry than the one that snapshotted.
    ShardedEngineOptions other = legacy;
    other.threads = threads == 1 ? 3 : 1;
    const ShardedAgentEngine resumed_engine(minority, other);
    snapshot::Checkpointer resumer(copts);
    ASSERT_TRUE(resumer.load_resume(entry));
    const ScopedCheckpointer installed(&resumer);
    EXPECT_EQ(snapshot::payload_digest(
                  resumed_engine.run(init, stall_rule(), 1234)),
              *golden)
        << "resume across thread/shard geometry diverged";
    EXPECT_EQ(resumer.resumed_runs(), 1u);
  }
}

TEST(DeterministicResume, ShardedKernelBackend) {
  const MinorityDynamics minority(3);
  ShardedEngineOptions options;
  options.kernel = kernel::Backend::kAuto;  // Bitslice whenever eligible.
  options.threads = 2;
  const ShardedAgentEngine engine(minority, options);
  const Configuration init = init_fraction_ones(1 << 14, Opinion::kOne, 0.5);
  expect_digest_identical_resume("krn", [&] {
    return engine.run(init, stall_rule(), 4321);
  });
}

TEST(DeterministicResume, ShardedFaultyRun) {
  const MinorityDynamics minority(3);
  ShardedEngineOptions options;
  options.kernel = kernel::Backend::kLegacy;
  options.threads = 2;
  const ShardedAgentEngine engine(minority, options);
  const Configuration init = init_fraction_ones(1 << 14, Opinion::kOne, 0.5);
  EnvironmentModel faults;
  faults.observation_noise = 0.02;
  faults.source_flip_rounds = {30};
  expect_digest_identical_resume("shrf", [&] {
    return engine.run(init, stall_rule(), faults, 777);
  });
}

// Resuming mid-RecoverySegment (after the flip, before any re-convergence)
// and from the snapshot one round BEFORE the flip applies must both replay
// the flip schedule and degraded classification identically.
TEST(DeterministicResume, FaultyRunAcrossFlipBoundary) {
  const MinorityDynamics minority(3);
  const AggregateParallelEngine engine(minority);
  const Configuration init = init_fraction_ones(kN, Opinion::kOne, 0.5);
  constexpr std::uint64_t kFlipRound = 30;
  EnvironmentModel faults;
  faults.source_flip_rounds = {kFlipRound};
  const auto run = [&] {
    Rng rng(5);
    return engine.run(init, stall_rule(), faults, rng);
  };

  const RunResult golden = run();
  // Minority(3) never re-converges after the flip (Theorem 1): the run ends
  // degraded with the flip's segment open — resuming must preserve that.
  ASSERT_EQ(golden.reason, StopReason::kDegraded);
  ASSERT_EQ(golden.recoveries.size(), 2u);
  ASSERT_EQ(golden.recoveries[1].flip_round, kFlipRound);
  ASSERT_FALSE(golden.recoveries[1].recovered);

  snapshot::CheckpointOptions options;
  options.path = fresh_ring_base("flip");
  options.every = 1;  // A snapshot at every round boundary.
  options.ring = 256;
  snapshot::Checkpointer writer(options);
  {
    const ScopedCheckpointer installed(&writer);
    EXPECT_EQ(snapshot::payload_digest(run()),
              snapshot::payload_digest(golden));
  }

  // The snapshot taken at round kFlipRound precedes the flip's application
  // (flips land at the TOP of the next driver iteration), so this resume
  // replays the flip; kFlipRound + 20 resumes mid-open-segment.
  for (const std::uint64_t round : {kFlipRound, kFlipRound + 20}) {
    const std::string entry = ring_file_for_round(writer, round);
    ASSERT_FALSE(entry.empty()) << "no ring entry at round " << round;
    snapshot::Checkpointer resumer(options);
    ASSERT_TRUE(resumer.load_resume(entry));
    const ScopedCheckpointer installed(&resumer);
    const RunResult resumed = run();
    EXPECT_EQ(snapshot::payload_digest(resumed),
              snapshot::payload_digest(golden))
        << "resume at round " << round;
    ASSERT_EQ(resumed.recoveries.size(), 2u);
    EXPECT_EQ(resumed.recoveries[1].flip_round, kFlipRound);
    EXPECT_FALSE(resumed.recoveries[1].recovered);
    EXPECT_EQ(resumed.reason, StopReason::kDegraded);
  }
}

// request_interrupt() stops a run at the next round boundary with a final
// snapshot; resuming from it completes with the golden digest, and the
// trajectory of the stitched run equals the uninterrupted one's.
TEST(DeterministicResume, InterruptedRunResumesWithIdenticalTrajectory) {
  const MinorityDynamics minority(3);
  const AggregateParallelEngine engine(minority);
  const Configuration init = init_fraction_ones(kN, Opinion::kOne, 0.5);
  const auto run = [&](Trajectory* trajectory) {
    Rng rng(17);
    return engine.run(init, stall_rule(), rng, trajectory);
  };

  Trajectory golden_trajectory;
  const RunResult golden = run(&golden_trajectory);

  snapshot::CheckpointOptions options;
  options.path = fresh_ring_base("intr");
  snapshot::Checkpointer writer(options);  // every = 0: interrupt-only.
  {
    const ScopedCheckpointer installed(&writer);
    snapshot::request_interrupt();
    Trajectory ignored;
    const RunResult interrupted = run(&ignored);
    EXPECT_EQ(interrupted.reason, StopReason::kInterrupted);
    EXPECT_TRUE(interrupted.censored());
    EXPECT_EQ(interrupted.ticks, 0u);  // Interrupt precedes the first step.
  }
  ASSERT_EQ(writer.written(), 1u);

  snapshot::Checkpointer resumer(options);
  ASSERT_TRUE(resumer.load_resume("auto"));
  const ScopedCheckpointer installed(&resumer);
  Trajectory resumed_trajectory;
  const RunResult resumed = run(&resumed_trajectory);
  EXPECT_EQ(snapshot::payload_digest(resumed),
            snapshot::payload_digest(golden));
  ASSERT_EQ(resumed_trajectory.size(), golden_trajectory.size());
  for (std::size_t i = 0; i < golden_trajectory.size(); ++i) {
    EXPECT_EQ(resumed_trajectory.points()[i].round,
              golden_trajectory.points()[i].round);
    EXPECT_EQ(resumed_trajectory.points()[i].ones,
              golden_trajectory.points()[i].ones);
  }
}

// A snapshot for one engine never resumes another: the sharded run ignores
// an aggregate snapshot and still produces its own golden digest.
TEST(DeterministicResume, EngineTagMismatchFallsBackToFreshRun) {
  const MinorityDynamics minority(3);
  const Configuration init = init_fraction_ones(kN, Opinion::kOne, 0.5);
  const AggregateParallelEngine aggregate(minority);
  ShardedEngineOptions options;
  options.kernel = kernel::Backend::kLegacy;
  const ShardedAgentEngine sharded(minority, options);
  const std::uint64_t golden =
      snapshot::payload_digest(sharded.run(init, stall_rule(), 42));

  snapshot::CheckpointOptions copts;
  copts.path = fresh_ring_base("mismatch");
  copts.every = 10;
  copts.ring = 64;
  snapshot::Checkpointer writer(copts);
  {
    const ScopedCheckpointer installed(&writer);
    Rng rng(9);
    aggregate.run(init, stall_rule(), rng);
  }
  snapshot::Checkpointer resumer(copts);
  ASSERT_TRUE(resumer.load_resume("auto"));
  const ScopedCheckpointer installed(&resumer);
  EXPECT_EQ(snapshot::payload_digest(sharded.run(init, stall_rule(), 42)),
            golden);
  EXPECT_EQ(resumer.resumed_runs(), 0u);
}

// A wrong-seed sharded snapshot is refused by restore() (seed fingerprint),
// falling back to a fresh — still correct — run.
TEST(DeterministicResume, SeedMismatchIsRefused) {
  const MinorityDynamics minority(3);
  ShardedEngineOptions options;
  options.kernel = kernel::Backend::kLegacy;
  const ShardedAgentEngine engine(minority, options);
  const Configuration init = init_fraction_ones(kN, Opinion::kOne, 0.5);
  const std::uint64_t golden =
      snapshot::payload_digest(engine.run(init, stall_rule(), 43));

  snapshot::CheckpointOptions copts;
  copts.path = fresh_ring_base("seed");
  copts.every = 10;
  copts.ring = 64;
  snapshot::Checkpointer writer(copts);
  {
    const ScopedCheckpointer installed(&writer);
    engine.run(init, stall_rule(), 42);  // Snapshot under seed 42.
  }
  snapshot::Checkpointer resumer(copts);
  ASSERT_TRUE(resumer.load_resume("auto"));
  const ScopedCheckpointer installed(&resumer);
  EXPECT_EQ(snapshot::payload_digest(engine.run(init, stall_rule(), 43)),
            golden)
      << "a wrong-seed snapshot leaked into the run";
}

// --- RoundStream append mode ----------------------------------------------

TEST(RoundStreamResume, AppendModePreservesLinesAndCounters) {
  const std::string path = temp_path("stream.jsonl");
  {
    telemetry::RoundStream stream(path);
    stream.on_round(0, 10, 100);
    stream.on_round(1, 11, 100);
    EXPECT_EQ(stream.lines(), 2u);
    stream.flush();
  }
  {
    telemetry::RoundStream::Options options;
    options.append = true;
    telemetry::RoundStream stream(path, options);
    stream.restore_counts(2, 2);
    stream.on_round(2, 12, 100);
    EXPECT_EQ(stream.rounds_seen(), 3u);
    EXPECT_EQ(stream.lines(), 3u);
    stream.flush();
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.find("{\"round\":"), 0u);
    ++lines;
  }
  EXPECT_EQ(lines, 3);
}

}  // namespace
}  // namespace bitspread
