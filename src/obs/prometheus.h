// Prometheus text exposition (format version 0.0.4) for a MetricsSnapshot.
//
// Naming contract, pinned by tests/obs_test.cc:
//  - Every family is prefixed `bitspread_`; counters carry a `_total`
//    suffix, gauges none.
//  - Phase wall-clock totals become bitspread_phase_seconds_total /
//    bitspread_phase_events_total{phase="round_step"}; PMU totals become
//    bitspread_pmu_events_total{phase=...,counter="cycles"} plus per-phase
//    sample and wall-second counters. Zero-sample phases are skipped.
//  - Progress slots export as gauges labelled {run="<ordinal>",
//    engine="<tag>"}; board totals as bitspread_runs_started_total /
//    bitspread_runs_finished_total.
//
// Escaping: label values escape backslash, double-quote, and newline; HELP
// text escapes backslash and newline (the exposition format's rules).
#ifndef BITSPREAD_OBS_PROMETHEUS_H_
#define BITSPREAD_OBS_PROMETHEUS_H_

#include <string>

#include "obs/snapshot.h"

namespace bitspread {
namespace obs {

// Renders the whole snapshot as one scrape payload.
std::string to_exposition(const MetricsSnapshot& snapshot);

// Exposed for the golden-format tests.
std::string escape_label_value(const std::string& value);
std::string escape_help_text(const std::string& text);

}  // namespace obs
}  // namespace bitspread

#endif  // BITSPREAD_OBS_PROMETHEUS_H_
