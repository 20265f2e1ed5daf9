#include "profile/counters.h"

#include "telemetry/json.h"

namespace bitspread {
namespace profile {

void KernelBlockProfiler::mark(bool opening, telemetry::Phase next) noexcept {
  CounterSnapshot now;
  telemetry::take_reading(bundle_, now);
  if (open_) {
    if (bundle_.phases != nullptr) {
      bundle_.phases->add(current_, now.wall_ns - last_.wall_ns);
    }
    if (bundle_.pmu != nullptr) {
      bundle_.pmu->add(current_, thread_counters().delta(last_, now));
    }
  }
  open_ = opening;
  current_ = next;
  last_ = now;
}

JsonValue pmu_stats_to_json(const PmuPhaseStats& stats, bool pmu_available,
                            const char* unavailable_reason) {
  JsonValue root = JsonValue::object();
  root.set("pmu_available", pmu_available);
  if (!pmu_available) {
    root.set("pmu_unavailable_reason", unavailable_reason);
  }
  root.set("pmu_backed", stats.pmu_backed());
  JsonValue rows = JsonValue::array();
  for (int p = 0; p < telemetry::kPhaseCount; ++p) {
    const auto phase = static_cast<telemetry::Phase>(p);
    const std::uint64_t samples = stats.samples(phase);
    if (samples == 0) continue;
    JsonValue row = JsonValue::object();
    row.set("phase", telemetry::phase_name(phase));
    row.set("samples", samples);
    row.set("wall_seconds", static_cast<double>(stats.wall_ns(phase)) * 1e-9);
    for (int c = 0; c < kCounterCount; ++c) {
      const auto counter = static_cast<Counter>(c);
      if (!stats.counted(phase, counter)) continue;
      row.set(counter_name(counter), stats.total(phase, counter));
    }
    const double ipc = stats.ipc(phase);
    // Fallback-rung cycles come from rdtsc; an IPC without an instruction
    // count would be meaningless, so ipc is emitted only when PMU-backed.
    if (stats.pmu_backed() && ipc > 0.0) row.set("ipc", ipc);
    row.set("multiplexed", stats.multiplexed(phase));
    rows.push_back(std::move(row));
  }
  root.set("phases", std::move(rows));
  return root;
}

}  // namespace profile
}  // namespace bitspread
