#include "telemetry/jsonl.h"

#include <cstdio>

namespace bitspread {
namespace telemetry {
namespace {

// Shortest round-tripping double representation, locale-independent.
std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

RoundStream::RoundStream(const std::string& path)
    : RoundStream(path, Options{}) {}

RoundStream::RoundStream(const std::string& path, Options options)
    : stride_(options.stride == 0 ? 1 : options.stride),
      out_(path, options.append ? std::ios::out | std::ios::app
                                : std::ios::out | std::ios::trunc) {}

void RoundStream::on_round(std::uint64_t round, std::uint64_t ones,
                           std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++rounds_seen_;
  if (round % stride_ != 0) return;

  std::string line;
  line.reserve(192);
  line += "{\"round\":";
  line += std::to_string(round);
  line += ",\"ones\":";
  line += std::to_string(ones);
  line += ",\"n\":";
  line += std::to_string(n);
  const double x = n == 0 ? 0.0 : static_cast<double>(ones) /
                                      static_cast<double>(n);
  line += ",\"x\":";
  line += format_double(x);
  line += ",\"drift\":";
  if (bias_) {
    line += format_double(static_cast<double>(n) * bias_(x));
  } else {
    line += "null";
  }
  line += ",\"phase_ns\":{";
  const PhaseStats* stats = sinks().phases;
  for (int i = 0; i < kPhaseCount; ++i) {
    const auto phase = static_cast<Phase>(i);
    const std::uint64_t total =
        stats != nullptr ? stats->total_ns(phase) : 0;
    const std::uint64_t delta =
        total >= last_phase_ns_[static_cast<std::size_t>(i)]
            ? total - last_phase_ns_[static_cast<std::size_t>(i)]
            : 0;
    last_phase_ns_[static_cast<std::size_t>(i)] = total;
    if (i != 0) line += ',';
    line += '"';
    line += phase_name(phase);
    line += "\":";
    line += std::to_string(delta);
  }
  line += "}}\n";
  out_ << line;
  ++lines_;
}

bool RoundStream::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<bool>(out_.flush());
}

}  // namespace telemetry
}  // namespace bitspread
