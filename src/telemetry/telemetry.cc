#include "telemetry/telemetry.h"

#include <cassert>

#include "profile/counters.h"
#include "telemetry/trace.h"

namespace bitspread {
namespace telemetry {
namespace {

constinit const Sinks kNoSinks{};

// The one process-wide sink slot. Written only under g_sinks_mutex (by
// SinkScope); read lock-free by probes, which the install-outside-runs
// contract keeps from racing a scope's end.
std::atomic<const Sinks*> g_sinks{&kNoSinks};
std::mutex g_sinks_mutex;

}  // namespace

const char* phase_name(Phase phase) noexcept {
  switch (phase) {
    case Phase::kRoundStep:
      return "round_step";
    case Phase::kSampleDraw:
      return "sample_draw";
    case Phase::kFaultApply:
      return "fault_apply";
    case Phase::kStopCheck:
      return "stop_check";
    case Phase::kPoolDispatch:
      return "pool_dispatch";
    case Phase::kKernelGather:
      return "kernel_gather";
    case Phase::kKernelFault:
      return "kernel_fault";
    case Phase::kKernelDecide:
      return "kernel_decide";
    case Phase::kKernelCommit:
      return "kernel_commit";
    case Phase::kCount:
      break;
  }
  return "unknown";
}

const Sinks& sinks() noexcept {
  return *g_sinks.load(std::memory_order_acquire);
}

std::unique_lock<std::mutex> lock_sinks() {
  return std::unique_lock<std::mutex>(g_sinks_mutex);
}

SinkScope::SinkScope(const Sinks& given) noexcept {
  const std::lock_guard<std::mutex> lock(g_sinks_mutex);
  enclosing_ = g_sinks.load(std::memory_order_relaxed);
  bundle_ = *enclosing_;
  if (given.phases != nullptr) bundle_.phases = given.phases;
  if (given.pmu != nullptr) bundle_.pmu = given.pmu;
  if (given.trace != nullptr) bundle_.trace = given.trace;
  if (given.rounds != nullptr) bundle_.rounds = given.rounds;
  if (given.progress != nullptr) bundle_.progress = given.progress;
  g_sinks.store(&bundle_, std::memory_order_release);
}

SinkScope::~SinkScope() {
  const std::lock_guard<std::mutex> lock(g_sinks_mutex);
  assert(g_sinks.load(std::memory_order_relaxed) == &bundle_ &&
         "SinkScopes must end in reverse order of construction");
  g_sinks.store(enclosing_, std::memory_order_release);
}

void Probe::open(const Sinks& bundle) noexcept {
  bundle_ = &bundle;
  take_reading(bundle, begin_.emplace());
}

void Probe::close() noexcept {
  profile::CounterSnapshot end;
  take_reading(*bundle_, end);
  const std::uint64_t begin_ns = begin_->wall_ns;
  if (bundle_->phases != nullptr) {
    bundle_->phases->add(phase_, end.wall_ns - begin_ns);
  }
  if (bundle_->pmu != nullptr) {
    bundle_->pmu->add(phase_, profile::thread_counters().delta(*begin_, end));
  }
  if (bundle_->trace != nullptr) {
    bundle_->trace->span(phase_name(phase_), begin_ns, end.wall_ns);
  }
}

}  // namespace telemetry
}  // namespace bitspread
