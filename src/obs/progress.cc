#include "obs/progress.h"

#include <algorithm>

#include "faults/session.h"
#include "snapshot/checkpoint.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace obs {

namespace {

// Stride adaptation targets roughly this many publishes per second: frequent
// enough that a 1 Hz poller never reads a stale round, rare enough that even
// a 40 ns aggregate round pays only a compare per round.
constexpr double kMinPublishGapSeconds = 0.01;
constexpr double kMaxPublishGapSeconds = 0.25;
constexpr std::uint64_t kMaxStride = std::uint64_t{1} << 20;

}  // namespace

std::size_t ProgressBoard::claim(const char* engine, std::uint64_t max_rounds,
                                 std::uint64_t n, bool faulty,
                                 std::uint64_t now_ns) noexcept {
  for (std::size_t i = 0; i < kSlots; ++i) {
    bool expected = false;
    if (!slots_[i].busy.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
      continue;
    }
    const std::uint64_t ordinal =
        started_.fetch_add(1, std::memory_order_relaxed);
    ProgressRecord record;
    record.active = true;
    record.run_ordinal = ordinal;
    record.engine = engine;
    record.faulty = faulty;
    record.max_rounds = max_rounds;
    record.n = n;
    record.start_ns = now_ns;
    record.publish_ns = now_ns;
    publish(i, record);
    return i;
  }
  // Board full: >kSlots concurrent runs. The overflow run goes unmonitored
  // rather than blocking; runs_started still counts it.
  started_.fetch_add(1, std::memory_order_relaxed);
  return kNoSlot;
}

void ProgressBoard::store_fields(Slot& s, const ProgressRecord& r,
                                 bool active) noexcept {
  s.active.store(active, std::memory_order_relaxed);
  s.faulty.store(r.faulty, std::memory_order_relaxed);
  s.engine.store(r.engine, std::memory_order_relaxed);
  s.run_ordinal.store(r.run_ordinal, std::memory_order_relaxed);
  s.round.store(r.round, std::memory_order_relaxed);
  s.max_rounds.store(r.max_rounds, std::memory_order_relaxed);
  s.ones.store(r.ones, std::memory_order_relaxed);
  s.n.store(r.n, std::memory_order_relaxed);
  s.rounds_per_sec.store(r.rounds_per_sec, std::memory_order_relaxed);
  s.drift_per_round.store(r.drift_per_round, std::memory_order_relaxed);
  s.eta_seconds.store(r.eta_seconds, std::memory_order_relaxed);
  s.fault_flips.store(r.fault_flips, std::memory_order_relaxed);
  s.recovery_segments.store(r.recovery_segments, std::memory_order_relaxed);
  s.checkpoint_slot.store(r.checkpoint_slot, std::memory_order_relaxed);
  s.start_ns.store(r.start_ns, std::memory_order_relaxed);
  s.publish_ns.store(r.publish_ns, std::memory_order_relaxed);
}

void ProgressBoard::publish(std::size_t slot,
                            const ProgressRecord& record) noexcept {
  if (slot >= kSlots) return;
  Slot& s = slots_[slot];
  // Odd seq marks the write in flight; release on the closing store pairs
  // with the reader's acquire loads so a stable even seq implies the field
  // stores between the bumps are visible.
  const std::uint32_t seq = s.seq.load(std::memory_order_relaxed);
  s.seq.store(seq + 1, std::memory_order_release);
  store_fields(s, record, record.active);
  s.seq.store(seq + 2, std::memory_order_release);
}

void ProgressBoard::release(std::size_t slot,
                            const ProgressRecord& record) noexcept {
  if (slot >= kSlots) return;
  ProgressRecord final_record = record;
  final_record.active = false;
  publish(slot, final_record);
  finished_.fetch_add(1, std::memory_order_relaxed);
  slots_[slot].busy.store(false, std::memory_order_release);
}

std::vector<ProgressRecord> ProgressBoard::read() const {
  std::vector<ProgressRecord> out;
  for (const Slot& s : slots_) {
    ProgressRecord r;
    bool consistent = false;
    // 1024 attempts: a real RunProgressScope publishes ~10x/sec, so one
    // attempt nearly always suffices; the headroom covers a writer that is
    // mid-publish on every early attempt.
    for (int attempt = 0; attempt < 1024; ++attempt) {
      const std::uint32_t before = s.seq.load(std::memory_order_acquire);
      if (before & 1u) continue;  // Publish in flight; retry.
      r.active = s.active.load(std::memory_order_relaxed);
      r.faulty = s.faulty.load(std::memory_order_relaxed);
      r.engine = s.engine.load(std::memory_order_relaxed);
      r.run_ordinal = s.run_ordinal.load(std::memory_order_relaxed);
      r.round = s.round.load(std::memory_order_relaxed);
      r.max_rounds = s.max_rounds.load(std::memory_order_relaxed);
      r.ones = s.ones.load(std::memory_order_relaxed);
      r.n = s.n.load(std::memory_order_relaxed);
      r.rounds_per_sec = s.rounds_per_sec.load(std::memory_order_relaxed);
      r.drift_per_round = s.drift_per_round.load(std::memory_order_relaxed);
      r.eta_seconds = s.eta_seconds.load(std::memory_order_relaxed);
      r.fault_flips = s.fault_flips.load(std::memory_order_relaxed);
      r.recovery_segments =
          s.recovery_segments.load(std::memory_order_relaxed);
      r.checkpoint_slot = s.checkpoint_slot.load(std::memory_order_relaxed);
      r.start_ns = s.start_ns.load(std::memory_order_relaxed);
      r.publish_ns = s.publish_ns.load(std::memory_order_relaxed);
      const std::uint32_t after = s.seq.load(std::memory_order_acquire);
      if (before == after) {
        consistent = true;
        break;
      }
    }
    // A slot whose writer outran every attempt is dropped rather than
    // reported torn; the next scrape picks it up.
    if (consistent && r.publish_ns != 0) out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const ProgressRecord& a, const ProgressRecord& b) {
              return a.run_ordinal < b.run_ordinal;
            });
  return out;
}

RunProgressScope::RunProgressScope(ProgressBoard* board, const char* engine,
                                   std::uint64_t max_rounds, std::uint64_t n,
                                   bool faulty) noexcept
    : board_(board) {
  if (board_ == nullptr) return;
  const std::uint64_t now = telemetry::clock_now_ns();
  slot_ = board_->claim(engine, max_rounds, n, faulty, now);
  if (slot_ == ProgressBoard::kNoSlot) {
    board_ = nullptr;  // Overflow: go fully dormant for this run.
    return;
  }
  record_.active = true;
  record_.engine = engine;
  record_.faulty = faulty;
  record_.max_rounds = max_rounds;
  record_.n = n;
  record_.start_ns = now;
  // claim() stamped run_ordinal into the slot; mirror it locally so later
  // publishes do not zero it.
  record_.run_ordinal = board_->runs_started() - 1;
  last_publish_ns_ = now;
}

RunProgressScope::~RunProgressScope() {
  // finish() normally released the slot and cleared board_; this path only
  // fires on early unwinds (exceptions out of a stepper).
  if (board_ != nullptr && slot_ != ProgressBoard::kNoSlot) {
    board_->release(slot_, record_);
  }
}

void RunProgressScope::publish_now(std::uint64_t round, std::uint64_t ones,
                                   std::uint64_t n,
                                   const FaultSession* session,
                                   bool final_publish) noexcept {
  const std::uint64_t now = telemetry::clock_now_ns();
  const double gap_seconds =
      static_cast<double>(now - last_publish_ns_) * 1e-9;
  const std::uint64_t dr = round - last_publish_round_;
  if (dr > 0 && gap_seconds > 0.0) {
    const double rate = static_cast<double>(dr) / gap_seconds;
    record_.rounds_per_sec =
        have_rate_ ? 0.3 * rate + 0.7 * record_.rounds_per_sec : rate;
    have_rate_ = true;
    const double drift = (static_cast<double>(ones) -
                          static_cast<double>(last_ones_)) /
                         static_cast<double>(dr);
    record_.drift_per_round =
        have_drift_ ? 0.3 * drift + 0.7 * record_.drift_per_round : drift;
    have_drift_ = true;
  }
  record_.round = round;
  record_.ones = ones;
  record_.n = n;
  record_.publish_ns = now;
  const std::uint64_t remaining =
      record_.max_rounds > round ? record_.max_rounds - round : 0;
  record_.eta_seconds =
      record_.rounds_per_sec > 0.0
          ? static_cast<double>(remaining) / record_.rounds_per_sec
          : 0.0;
  if (session != nullptr) {
    record_.fault_flips = session->flips_applied();
    record_.recovery_segments = session->recoveries().size();
  }
  if (const snapshot::Checkpointer* ckpt = snapshot::active_checkpointer()) {
    record_.checkpoint_slot = ckpt->written();
  }

  if (final_publish) {
    record_.active = false;
    board_->release(slot_, record_);
    board_ = nullptr;  // All later on_round()/finish() calls are no-ops.
    return;
  }
  board_->publish(slot_, record_);

  // Adapt the stride toward the [10ms, 250ms] publish-gap window. Growth is
  // geometric, so even a nanosecond-scale round loop reaches its steady
  // stride within ~20 publishes.
  if (gap_seconds < kMinPublishGapSeconds) {
    stride_ = std::min(stride_ * 2, kMaxStride);
  } else if (gap_seconds > kMaxPublishGapSeconds && stride_ > 1) {
    stride_ /= 2;
  }
  last_publish_round_ = round;
  last_publish_ns_ = now;
  last_ones_ = ones;
  next_publish_round_ = round + stride_;
}

}  // namespace obs
}  // namespace bitspread
