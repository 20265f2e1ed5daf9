#include "obs/prometheus.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "profile/pmu.h"

namespace bitspread {
namespace obs {

namespace {

// Shortest round-trip double rendering; Prometheus accepts Go-style floats.
// Go's strconv prints the shortest string that re-parses exactly, so 0.1 is
// "0.1", not the %.17g "0.10000000000000001" — probe precisions upward until
// the value round-trips (17 significant digits always does).
std::string format_double(double value) {
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      value < 1e15 && value > -1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string format_uint(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

void help_and_type(std::string& out, const std::string& family,
                   const std::string& help, const char* type) {
  out += "# HELP ";
  out += family;
  out += ' ';
  out += escape_help_text(help);
  out += '\n';
  out += "# TYPE ";
  out += family;
  out += ' ';
  out += type;
  out += '\n';
}

void sample(std::string& out, const std::string& family,
            const std::string& labels, const std::string& value) {
  out += family;
  out += labels;
  out += ' ';
  out += value;
  out += '\n';
}

std::string one_label(const char* key, const std::string& value) {
  std::string out = "{";
  out += key;
  out += "=\"";
  out += escape_label_value(value);
  out += "\"}";
  return out;
}

std::string run_labels(const ProgressRecord& record) {
  std::string out = "{run=\"";
  out += format_uint(record.run_ordinal);
  out += "\",engine=\"";
  out += escape_label_value(record.engine != nullptr ? record.engine : "");
  out += "\"}";
  return out;
}

// A per-run gauge family: HELP/TYPE once, one sample per board record.
void run_gauge(std::string& out, const std::vector<ProgressRecord>& runs,
               const char* name, const std::string& help,
               double (*value)(const ProgressRecord&)) {
  const std::string family = std::string("bitspread_run_") + name;
  help_and_type(out, family, help, "gauge");
  for (const ProgressRecord& record : runs) {
    sample(out, family, run_labels(record), format_double(value(record)));
  }
}

}  // namespace

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string escape_help_text(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string to_exposition(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);

  // --- Wall-clock phase totals ------------------------------------------
  if (snapshot.phases_present) {
    help_and_type(out, "bitspread_phase_seconds_total",
                  "wall-clock seconds attributed to each engine phase",
                  "counter");
    for (int i = 0; i < telemetry::kPhaseCount; ++i) {
      const auto p = static_cast<std::size_t>(i);
      if (snapshot.phase_events[p] == 0) continue;
      sample(out, "bitspread_phase_seconds_total",
             one_label("phase",
                       telemetry::phase_name(static_cast<telemetry::Phase>(i))),
             format_double(static_cast<double>(snapshot.phase_ns[p]) * 1e-9));
    }
    help_and_type(out, "bitspread_phase_events_total",
                  "probe events recorded for each engine phase", "counter");
    for (int i = 0; i < telemetry::kPhaseCount; ++i) {
      const auto p = static_cast<std::size_t>(i);
      if (snapshot.phase_events[p] == 0) continue;
      sample(out, "bitspread_phase_events_total",
             one_label("phase",
                       telemetry::phase_name(static_cast<telemetry::Phase>(i))),
             format_uint(snapshot.phase_events[p]));
    }
  }

  // --- PMU totals --------------------------------------------------------
  if (snapshot.pmu_present && !snapshot.pmu.empty()) {
    help_and_type(out, "bitspread_pmu_events_total",
                  "multiplex-scaled hardware counter totals per phase",
                  "counter");
    for (const MetricsSnapshot::PmuRow& row : snapshot.pmu) {
      const char* phase =
          telemetry::phase_name(static_cast<telemetry::Phase>(row.phase));
      for (int c = 0; c < profile::kCounterCount; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        if (!row.counted[ci]) continue;
        std::string labels = "{phase=\"";
        labels += escape_label_value(phase);
        labels += "\",counter=\"";
        labels += escape_label_value(
            profile::counter_name(static_cast<profile::Counter>(c)));
        labels += "\"}";
        sample(out, "bitspread_pmu_events_total", labels,
               format_uint(row.value[ci]));
      }
    }
    help_and_type(out, "bitspread_pmu_samples_total",
                  "PMU probe scopes recorded per phase", "counter");
    for (const MetricsSnapshot::PmuRow& row : snapshot.pmu) {
      sample(out, "bitspread_pmu_samples_total",
             one_label("phase", telemetry::phase_name(
                                    static_cast<telemetry::Phase>(row.phase))),
             format_uint(row.samples));
    }
    help_and_type(out, "bitspread_pmu_wall_seconds_total",
                  "wall-clock seconds covered by PMU probe scopes per phase",
                  "counter");
    for (const MetricsSnapshot::PmuRow& row : snapshot.pmu) {
      sample(out, "bitspread_pmu_wall_seconds_total",
             one_label("phase", telemetry::phase_name(
                                    static_cast<telemetry::Phase>(row.phase))),
             format_double(static_cast<double>(row.wall_ns) * 1e-9));
    }
  }

  // --- Progress board ----------------------------------------------------
  help_and_type(out, "bitspread_runs_started_total",
                "runs that claimed a progress slot", "counter");
  sample(out, "bitspread_runs_started_total", "",
         format_uint(snapshot.runs_started));
  help_and_type(out, "bitspread_runs_finished_total",
                "runs that released their progress slot", "counter");
  sample(out, "bitspread_runs_finished_total", "",
         format_uint(snapshot.runs_finished));

  if (!snapshot.runs.empty()) {
    const std::vector<ProgressRecord>& runs = snapshot.runs;
    run_gauge(out, runs, "active", "1 while the run is inside the driver loop",
              [](const ProgressRecord& r) { return r.active ? 1.0 : 0.0; });
    run_gauge(out, runs, "round", "last published parallel round",
              [](const ProgressRecord& r) {
                return static_cast<double>(r.round);
              });
    run_gauge(out, runs, "max_rounds", "stop-rule round cap",
              [](const ProgressRecord& r) {
                return static_cast<double>(r.max_rounds);
              });
    run_gauge(out, runs, "ones", "X_t (ones count) at the published round",
              [](const ProgressRecord& r) {
                return static_cast<double>(r.ones);
              });
    run_gauge(out, runs, "population", "population size n",
              [](const ProgressRecord& r) {
                return static_cast<double>(r.n);
              });
    run_gauge(out, runs, "rounds_per_sec", "EWMA simulation rate",
              [](const ProgressRecord& r) { return r.rounds_per_sec; });
    run_gauge(out, runs, "drift_per_round", "EWMA of per-round change in X_t",
              [](const ProgressRecord& r) { return r.drift_per_round; });
    run_gauge(out, runs, "eta_seconds",
              "estimated seconds to the stop-rule cap",
              [](const ProgressRecord& r) { return r.eta_seconds; });
    run_gauge(out, runs, "fault_flips", "source flips applied so far",
              [](const ProgressRecord& r) {
                return static_cast<double>(r.fault_flips);
              });
    run_gauge(out, runs, "recovery_segments", "closed recovery segments",
              [](const ProgressRecord& r) {
                return static_cast<double>(r.recovery_segments);
              });
    run_gauge(out, runs, "checkpoints_written", "snapshot-ring writes so far",
              [](const ProgressRecord& r) {
                return static_cast<double>(r.checkpoint_slot);
              });
  }
  return out;
}

}  // namespace obs
}  // namespace bitspread
