#!/usr/bin/env python3
"""Compare perf_smoke reports run bare and under a live exporter.

Usage:
    check_telemetry_overhead.py --baseline B1.json B2.json ... \
                                --telemetry E1.json E2.json ... [--max-regression R]
    check_telemetry_overhead.py --self-test

Both sides are unified bench reports ("bitspread-bench/1") written by one
perf_smoke binary: the baseline run bare, the measured side (--telemetry)
run under --listen= with a client polling /metrics. The measured side must
carry pmu.exporter_active=true and the baseline must not, so the gate
cannot silently measure nothing. The measured side must stay within
`--max-regression` (default 5%) of the baseline throughput on every
benchmark; a faster measured side always passes. The budget bounds the
cost of the progress publishes plus concurrent scrapes. (What the
sinkless probes cost is measured end to end by bench/e2e: every build
compiles them.)

Each benchmark compares the per-row MEDIAN items/sec across that side's
runs. Median, not best-of: on burst-budgeted hosts the noise is two-sided —
throttled windows slow a run down AND turbo windows spike one 30% above
steady state — so a max-of-N estimate chases whichever side caught the one
lucky spike and never converges. Single-shot comparison swings ±20% per
row in both directions; CI takes three interleaved measurements per side,
which the median makes robust to one outlier run on each side.

Reports recorded while the SIGPROF sampling profiler was running
(pmu.sampling_active in the report, set when --profile-out= was passed)
are REJECTED as bad input: sampling interrupts perturb both sides of the
comparison. Reports predating the field are accepted.

Exit status 0 = within budget, 1 = regression, 2 = bad input.
"""

import argparse
import json
import statistics
import sys
import tempfile


class BadInput(Exception):
    """Input file missing, malformed, or not a bench report."""


def reject_sampling(report, path):
    """A report taken with the sampling profiler firing is not an overhead
    measurement; the pmu.sampling_active field is recorded by every bench
    (older reports without it pass unchallenged)."""
    pmu = report.get("pmu")
    if isinstance(pmu, dict) and pmu.get("sampling_active"):
        raise BadInput(
            f"{path}: recorded with the sampling profiler active "
            f"(--profile-out=); rerun without profiling flags"
        )


def check_exporter(report, path, exporter):
    """Enforce the pmu.exporter_active stamp: present on the measured side
    (exporter=True) — otherwise the gate silently measures nothing — and
    absent on the baseline. Reports predating the field read as
    exporter-off."""
    pmu = report.get("pmu")
    active = bool(isinstance(pmu, dict) and pmu.get("exporter_active"))
    if exporter and not active:
        raise BadInput(
            f"{path}: the measured side must be recorded with a live "
            f"exporter (--listen= and pmu.exporter_active set)"
        )
    if not exporter and active:
        raise BadInput(
            f"{path}: the baseline must be recorded without a live exporter"
        )


def load_benchmarks(path, exporter):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as err:
        raise BadInput(
            f"{path}: cannot read: {err.strerror or err}"
        ) from err
    except json.JSONDecodeError as err:
        raise BadInput(f"{path}: malformed JSON: {err}") from err
    if not isinstance(report, dict) or report.get("schema") != "bitspread-bench/1":
        raise BadInput(f"{path}: not a bitspread-bench/1 report")
    reject_sampling(report, path)
    check_exporter(report, path, exporter)
    benchmarks = report.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise BadInput(f"{path}: no benchmarks array")
    out = {}
    for row in benchmarks:
        name = row.get("name") if isinstance(row, dict) else None
        ips = row.get("items_per_second") if isinstance(row, dict) else None
        if not isinstance(name, str) or not isinstance(ips, (int, float)):
            raise BadInput(
                f"{path}: benchmark rows need string 'name' and numeric "
                f"'items_per_second'"
            )
        out[name] = float(ips)
    return out


def load_merged(paths, exporter):
    """Per-benchmark median items/sec across repeated runs of the same
    binary. Every file must be a valid, sampling-free report; rows appearing
    in any run count (the cross-side missing check still runs in compare)."""
    collected = {}
    for path in paths:
        for name, ips in load_benchmarks(path, exporter).items():
            collected.setdefault(name, []).append(ips)
    return {name: statistics.median(vals) for name, vals in collected.items()}


def compare(baseline, telemetry, max_regression):
    """Returns (exit_code, report_lines). Pure so the self-test can drive it."""
    lines = []
    missing = sorted(set(baseline) - set(telemetry))
    if missing:
        raise BadInput(f"telemetry report lacks benchmarks: {missing}")

    worst = 0.0
    failed = False
    lines.append(
        f"{'benchmark':<28} {'baseline':>12} {'telemetry':>12} {'delta':>8}"
    )
    for name, base_ips in sorted(baseline.items()):
        tele_ips = telemetry[name]
        if base_ips <= 0:
            raise BadInput(f"baseline throughput for {name} is {base_ips}")
        # Positive = the measured side is slower.
        slowdown = (base_ips - tele_ips) / base_ips
        worst = max(worst, slowdown)
        verdict = "OK"
        if slowdown > max_regression:
            verdict = "FAIL"
            failed = True
        lines.append(
            f"{name:<28} {base_ips:12.3e} {tele_ips:12.3e} "
            f"{slowdown:+7.1%} {verdict}"
        )
    lines.append(f"\nworst slowdown: {worst:+.1%} (budget {max_regression:.0%})")
    return (1 if failed else 0), lines


# ---------------------------------------------------------------------------
# Self-test


def _fake_report(scale, exporter=False):
    return {
        "schema": "bitspread-bench/1",
        "pmu": {"available": True, "exporter_active": exporter},
        "benchmarks": [
            {"name": "agent_serial_step", "items_per_second": 4.0e7 * scale},
            {"name": "aggregate_step", "items_per_second": 3.0e6 * scale},
        ],
    }


def self_test():
    import os

    failures = []

    def case(name, fn):
        try:
            fn()
        except AssertionError as err:
            failures.append(name)
            print(f"  FAIL {name}: {err}")
        else:
            print(f"  ok   {name}")

    def bench(scale):
        return {
            b["name"]: b["items_per_second"]
            for b in _fake_report(scale)["benchmarks"]
        }

    def test_within_budget():
        code, _ = compare(bench(1.0), bench(0.97), 0.05)
        assert code == 0, "3% slowdown must pass a 5% budget"

    def test_over_budget():
        code, _ = compare(bench(1.0), bench(0.90), 0.05)
        assert code == 1, "10% slowdown must fail a 5% budget"

    def test_faster_passes():
        code, _ = compare(bench(1.0), bench(1.20), 0.05)
        assert code == 0, "a faster measured side must pass"

    def test_missing_benchmark():
        tele = bench(1.0)
        del tele["aggregate_step"]
        try:
            compare(bench(1.0), tele, 0.05)
        except BadInput:
            return
        raise AssertionError("missing benchmark must raise BadInput")

    def test_malformed_file():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "broken.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("{not json")
            try:
                load_benchmarks(path, False)
            except BadInput:
                return
        raise AssertionError("malformed JSON must raise BadInput")

    def test_missing_file():
        try:
            load_benchmarks("/nonexistent/report.json", False)
        except BadInput:
            return
        raise AssertionError("missing file must raise BadInput")

    def test_sampling_active_rejected():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sampled.json")
            report = _fake_report(1.0)
            report["pmu"]["sampling_active"] = True
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(report, fh)
            try:
                load_benchmarks(path, False)
            except BadInput:
                return
        raise AssertionError("sampling-active report must raise BadInput")

    def test_sampling_off_accepted():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "unsampled.json")
            report = _fake_report(1.0)
            report["pmu"]["sampling_active"] = False
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(report, fh)
            loaded = load_benchmarks(path, False)
            assert "agent_serial_step" in loaded, "report must load"

    def _write_reports(tmp, side, scales, exporter):
        paths = []
        for i, scale in enumerate(scales):
            path = os.path.join(tmp, f"{side}{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_fake_report(scale, exporter), fh)
            paths.append(path)
        return paths

    def _merged(tmp, base_scales, measured_scales):
        return (
            load_merged(_write_reports(tmp, "base", base_scales, False),
                        False),
            load_merged(_write_reports(tmp, "meas", measured_scales, True),
                        True),
        )

    def test_median_survives_outlier_runs():
        # One outlier run per side — a 30% throttle on one, a 25% turbo
        # spike on the other — must not move the row estimate when the
        # remaining runs agree within budget.
        with tempfile.TemporaryDirectory() as tmp:
            base, meas = _merged(tmp, [1.0, 0.7, 0.99], [1.25, 0.97, 0.96])
            code, _ = compare(base, meas, 0.05)
            assert code == 0, "median must discard one outlier per side"

    def test_median_keeps_real_regressions():
        with tempfile.TemporaryDirectory() as tmp:
            base, meas = _merged(tmp, [1.0, 0.98, 0.99], [0.90, 0.88, 0.89])
            code, _ = compare(base, meas, 0.05)
            assert code == 1, "a slowdown present in every run must fail"

    def test_accepts_stamped_pair():
        with tempfile.TemporaryDirectory() as tmp:
            base, meas = _merged(tmp, [1.0], [0.97])
            code, _ = compare(base, meas, 0.05)
            assert code == 0, "3% exporter overhead must pass a 5% budget"

    def test_measured_side_needs_stamp():
        with tempfile.TemporaryDirectory() as tmp:
            paths = _write_reports(tmp, "plain", [1.0], False)
            try:
                load_merged(paths, True)
            except BadInput:
                return
        raise AssertionError(
            "a measured side without the stamp must raise BadInput"
        )

    def test_rejects_stamped_baseline():
        with tempfile.TemporaryDirectory() as tmp:
            paths = _write_reports(tmp, "base", [1.0], True)
            try:
                load_merged(paths, False)
            except BadInput:
                return
        raise AssertionError("a stamped baseline must raise BadInput")

    def test_wrong_schema():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "other.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"schema": "something-else/1"}, fh)
            try:
                load_benchmarks(path, False)
            except BadInput:
                return
        raise AssertionError("wrong schema must raise BadInput")

    print("check_telemetry_overhead self-test:")
    case("3% slowdown within 5% budget", test_within_budget)
    case("10% slowdown fails 5% budget", test_over_budget)
    case("faster measured side passes", test_faster_passes)
    case("missing benchmark is a clean error", test_missing_benchmark)
    case("malformed JSON is a clean error", test_malformed_file)
    case("missing file is a clean error", test_missing_file)
    case("sampling-active report is rejected", test_sampling_active_rejected)
    case("sampling-off report is accepted", test_sampling_off_accepted)
    case("median discards outlier runs", test_median_survives_outlier_runs)
    case("median keeps real regressions", test_median_keeps_real_regressions)
    case("a correctly stamped pair is accepted", test_accepts_stamped_pair)
    case("the measured side needs the stamp", test_measured_side_needs_stamp)
    case("a stamped baseline is rejected", test_rejects_stamped_baseline)
    case("wrong schema is a clean error", test_wrong_schema)
    if failures:
        print(f"self-test: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("self-test: all cases passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--baseline",
        nargs="+",
        default=[],
        metavar="REPORT",
        help="bare perf_smoke reports; the per-row median is compared",
    )
    parser.add_argument(
        "--telemetry",
        nargs="+",
        default=[],
        metavar="REPORT",
        help="perf_smoke reports recorded under --listen= with a live "
        "poller (stamped pmu.exporter_active); the per-row median is "
        "compared",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.05,
        help="maximum tolerated relative slowdown per benchmark (default 0.05)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the built-in test cases and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.telemetry:
        parser.error("--baseline and --telemetry reports are required")

    try:
        baseline = load_merged(args.baseline, False)
        telemetry = load_merged(args.telemetry, True)
        code, lines = compare(baseline, telemetry, args.max_regression)
    except BadInput as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    print("\n".join(lines))
    if code != 0:
        print("exporter overhead exceeds budget", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
