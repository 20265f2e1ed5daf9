#!/usr/bin/env python3
"""Bench-trajectory history: append unified bench reports, gate regressions.

The repo's perf story is a *trajectory*: every CI run appends the
perf_smoke "bitspread-bench/1" payload to results/HISTORY.jsonl, and the
gate compares the freshest run against the trailing median of comparable
history so a slow drift (or a one-PR cliff) fails the build instead of
silently eroding the numbers.

Usage:
    bench_history.py append REPORT.json --history results/HISTORY.jsonl \
        --commit SHA [--stamp ISO8601]
    bench_history.py gate REPORT.json --history results/HISTORY.jsonl \
        [--threshold 0.10] [--share-drift 0.15] [--min-entries 3] [--window 20]
    bench_history.py self-test

History entries use schema "bitspread-history/1": one JSON object per
line holding the provenance key (bench name, build type, quick flag,
hardware_concurrency) plus the extracted metrics:

  * throughput.<benchmark>   items/sec of each row in "benchmarks"
  * phase_share.<phase>      that phase's fraction of total phase seconds
  * ipc.<backend>.<sub>      per-kernel-sub-phase IPC from bench_profile's
                             "profiles" rows (absent on no-PMU hosts)
  * subphase_share.<backend>.<sub>  that sub-phase's share of kernel wall

`gate` only compares against history entries whose provenance key matches
the candidate report exactly (a Debug laptop run never gates a Release CI
run). Throughput and IPC may not drop more than --threshold below the
trailing median; phase shares may not shift more than --share-drift
absolute. With fewer than --min-entries comparable entries the gate passes
vacuously (exit 0) so a fresh repo can seed its own history. Rows lacking
PMU data simply contribute no ipc.* columns — a no-PMU host's report
gates its throughput as usual and never trips on counters it cannot read.

Exit status: 0 = pass/appended, 1 = regression detected, 2 = bad input.
"""

import argparse
import json
import os
import sys
import tempfile

HISTORY_SCHEMA = "bitspread-history/1"
BENCH_SCHEMA = "bitspread-bench/1"


class BadInput(Exception):
    """Input file missing, malformed, or not a bench report."""


# ---------------------------------------------------------------------------
# Report loading and metric extraction


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as err:
        raise BadInput(f"{path}: cannot read: {err.strerror or err}") from err
    except json.JSONDecodeError as err:
        raise BadInput(f"{path}: malformed JSON: {err}") from err
    if not isinstance(report, dict) or report.get("schema") != BENCH_SCHEMA:
        raise BadInput(f"{path}: not a {BENCH_SCHEMA} report")
    return report


def provenance_key(report):
    """The comparability key: entries gate each other only within a key."""
    build = report.get("build", {})
    return {
        "bench": report.get("bench"),
        "build_type": build.get("type"),
        "quick": bool(report.get("quick", False)),
        "hardware_concurrency": report.get("hardware_concurrency"),
    }


def exporter_stamped(report):
    """True when the report was recorded with a live §3.9 introspection
    exporter serving scrapes (pmu.exporter_active, set under --listen=)."""
    pmu = report.get("pmu")
    return bool(isinstance(pmu, dict) and pmu.get("exporter_active"))


def extract_metrics(report):
    """Flatten a bench report into the tracked scalar metrics.

    Throughput rows from a run stamped pmu.exporter_active are DROPPED (with
    a warning): a live exporter polled during the measurement perturbs
    items/sec, so such a run must neither seed the history medians nor be
    gated against clean ones. Phase/sub-phase shares are ratios of the same
    perturbed run and stay comparable.
    """
    metrics = {}
    drop_throughput = exporter_stamped(report)
    warned = False
    for row in report.get("benchmarks") or []:
        name = row.get("name")
        ips = row.get("items_per_second")
        if isinstance(name, str) and isinstance(ips, (int, float)) and ips > 0:
            if drop_throughput:
                if not warned:
                    print(
                        "warning: report recorded with a live exporter "
                        "(pmu.exporter_active) — dropping throughput.* rows",
                        file=sys.stderr,
                    )
                    warned = True
                continue
            metrics[f"throughput.{name}"] = float(ips)
    phases = report.get("phases") or []
    total = sum(
        p.get("seconds", 0.0)
        for p in phases
        if isinstance(p.get("seconds"), (int, float))
    )
    if total > 0:
        for p in phases:
            name = p.get("name")
            secs = p.get("seconds")
            if isinstance(name, str) and isinstance(secs, (int, float)):
                metrics[f"phase_share.{name}"] = float(secs) / total
    # bench_profile rows: per-backend kernel sub-phase IPC and wall share.
    # Sub-phase rows without PMU data (fallback hosts) carry no "ipc" key
    # and are tolerated — they just contribute no column.
    for row in report.get("profiles") or []:
        if not isinstance(row, dict):
            continue
        backend = row.get("backend")
        sps = row.get("agent_steps_per_second")
        if (
            isinstance(backend, str)
            and isinstance(sps, (int, float))
            and sps > 0
            and not drop_throughput
        ):
            metrics[f"throughput.profile.{backend}"] = float(sps)
        for sub in row.get("sub_phases") or []:
            if not isinstance(sub, dict) or not isinstance(backend, str):
                continue
            name = sub.get("sub_phase")
            if not isinstance(name, str):
                continue
            ipc = sub.get("ipc")
            if isinstance(ipc, (int, float)) and ipc > 0:
                metrics[f"ipc.{backend}.{name}"] = float(ipc)
            share = sub.get("wall_share")
            if isinstance(share, (int, float)) and 0 <= share <= 1:
                metrics[f"subphase_share.{backend}.{name}"] = float(share)
    if not metrics:
        raise BadInput("report carries no benchmarks or phases to track")
    return metrics


def make_entry(report, commit, stamp):
    entry = {"schema": HISTORY_SCHEMA, "commit": commit}
    if stamp:
        entry["stamp"] = stamp
    entry.update(provenance_key(report))
    entry["metrics"] = extract_metrics(report)
    return entry


# ---------------------------------------------------------------------------
# History file


def load_history(path):
    """Parses HISTORY.jsonl; a missing file is an empty history.

    A crash or kill mid-append can leave a half-written trailing line (JSONL
    appends are not atomic). Corrupt or foreign lines are SKIPPED with a
    warning rather than failing the whole gate: one torn line must never
    wedge CI, and the surviving entries are still a valid history.
    """
    entries = []
    if not os.path.exists(path):
        return entries
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as err:
                    print(
                        f"warning: {path}:{lineno}: skipping corrupt "
                        f"history line ({err})",
                        file=sys.stderr,
                    )
                    continue
                if not isinstance(entry, dict) or (
                    entry.get("schema") != HISTORY_SCHEMA
                ):
                    print(
                        f"warning: {path}:{lineno}: skipping non-"
                        f"{HISTORY_SCHEMA} line",
                        file=sys.stderr,
                    )
                    continue
                entries.append(entry)
    except OSError as err:
        raise BadInput(f"{path}: cannot read: {err.strerror or err}") from err
    return entries


def matching_entries(history, key):
    return [
        e for e in history if all(e.get(k) == v for k, v in key.items())
    ]


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


# ---------------------------------------------------------------------------
# Subcommands


def cmd_append(args):
    report = load_report(args.report)
    entry = make_entry(report, args.commit, args.stamp)
    directory = os.path.dirname(os.path.abspath(args.history))
    os.makedirs(directory, exist_ok=True)
    with open(args.history, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(
        f"appended {entry['bench']} @ {args.commit} "
        f"({len(entry['metrics'])} metrics) to {args.history}"
    )
    return 0


def cmd_gate(args):
    report = load_report(args.report)
    key = provenance_key(report)
    candidate = extract_metrics(report)
    history = matching_entries(load_history(args.history), key)
    if args.window > 0:
        history = history[-args.window:]
    if len(history) < args.min_entries:
        print(
            f"gate: only {len(history)} comparable history entries "
            f"(need {args.min_entries}) — passing vacuously"
        )
        return 0

    # Shares are fractions of the report's own total (phase_share of all
    # phase seconds, subphase_share of that backend's kernel wall), so they
    # are only comparable between reports tracking the SAME set of rows:
    # adding a bench row mechanically shrinks every other share without any
    # real perf change. Each share family gates only against entries with an
    # identical name set for that family; throughput and IPC rows are
    # absolute ratios and gate against the full window.
    def share_names(metrics, prefix):
        return frozenset(k for k in metrics if k.startswith(prefix))

    share_history = {}
    for prefix in ("phase_share.", "subphase_share."):
        names = share_names(candidate, prefix)
        pool = [
            e
            for e in history
            if share_names(e.get("metrics", {}), prefix) == names
        ]
        share_history[prefix] = pool
        if len(pool) < len(history):
            print(
                f"gate: {prefix.rstrip('.')} set changed — compares "
                f"against {len(pool)} of {len(history)} entries"
            )

    failures = []
    print(
        f"gate: {len(history)} comparable entries, "
        f"threshold {args.threshold:.0%} throughput, "
        f"{args.share_drift:.2f} share drift"
    )
    print(f"{'metric':<38} {'median':>12} {'current':>12} {'delta':>9}")
    for name in sorted(candidate):
        pool = history
        for prefix, filtered in share_history.items():
            if name.startswith(prefix):
                pool = filtered
                break
        samples = [
            e["metrics"][name]
            for e in pool
            if isinstance(e.get("metrics", {}).get(name), (int, float))
        ]
        if not samples:
            print(f"{name:<38} {'(new)':>12} {candidate[name]:12.4g}")
            continue
        base = median(samples)
        current = candidate[name]
        if name.startswith(("throughput.", "ipc.")):
            # Relative: positive drop = slower (or lower-IPC) than the
            # trailing median.
            drop = (base - current) / base if base > 0 else 0.0
            bad = drop > args.threshold
            delta = f"{-drop:+8.1%}"
        else:
            # Shares are already fractions; compare absolutely.
            drift = abs(current - base)
            bad = drift > args.share_drift
            delta = f"{current - base:+8.3f}"
        verdict = "FAIL" if bad else "OK"
        if bad:
            failures.append(f"{name}: median {base:.6g} -> {current:.6g}")
        print(f"{name:<38} {base:12.4g} {current:12.4g} {delta} {verdict}")

    if failures:
        print(
            "gate: regression vs trailing median:\n  "
            + "\n  ".join(failures),
            file=sys.stderr,
        )
        return 1
    print("gate: all tracked metrics within budget")
    return 0


# ---------------------------------------------------------------------------
# Self-test: synthetic reports through the real append/gate paths.


def _fake_report(ips_scale=1.0, phase_secs=None, profiles_ipc=None):
    """Synthetic bench report; profiles_ipc adds bench_profile-style rows
    (a float scales every sub-phase IPC; False emulates a no-PMU host whose
    rows carry wall shares but no IPC)."""
    phase_secs = phase_secs or {"simulate": 0.8, "analyze": 0.2}
    report = {
        "schema": BENCH_SCHEMA,
        "bench": "engine",
        "quick": True,
        "hardware_concurrency": 1,
        "build": {"type": "release"},
        "benchmarks": [
            {"name": "agent_serial_step",
             "items_per_second": 4.0e7 * ips_scale},
            {"name": "aggregate_step",
             "items_per_second": 3.0e6 * ips_scale},
        ],
        "phases": [
            {"name": name, "seconds": secs}
            for name, secs in phase_secs.items()
        ],
    }
    if profiles_ipc is not None:
        def sub(name, share, ipc):
            row = {"sub_phase": name, "wall_seconds": share * 0.01,
                   "wall_share": share, "cycles": int(share * 1e7)}
            if profiles_ipc is not False:
                row["ipc"] = ipc * profiles_ipc
            return row

        report["profiles"] = [{
            "backend": "avx2",
            "pmu_available": profiles_ipc is not False,
            "subphase_markers": True,
            "agent_steps_per_second": 2.0e8 * ips_scale,
            "sub_phases": [
                sub("gather", 0.40, 1.8), sub("fault", 0.20, 2.2),
                sub("decide", 0.22, 2.5), sub("commit", 0.18, 2.0),
            ],
        }]
    return report


def _run_selftest_case(check, name, fn):
    try:
        fn()
    except AssertionError as err:
        check.append(f"FAIL {name}: {err}")
        print(f"  FAIL {name}: {err}")
    else:
        print(f"  ok   {name}")


def cmd_selftest(_args):
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        history = os.path.join(tmp, "HISTORY.jsonl")

        def write_report(path, **kwargs):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_fake_report(**kwargs), fh)

        def append(report_path, commit):
            ns = argparse.Namespace(
                report=report_path, history=history, commit=commit, stamp=None
            )
            return cmd_append(ns)

        def gate(report_path, min_entries=3, threshold=0.10):
            ns = argparse.Namespace(
                report=report_path,
                history=history,
                threshold=threshold,
                share_drift=0.15,
                min_entries=min_entries,
                window=20,
            )
            return cmd_gate(ns)

        good = os.path.join(tmp, "good.json")
        write_report(good)

        def test_vacuous_pass():
            assert gate(good) == 0, "empty history must pass vacuously"

        def test_append_and_pass():
            for i in range(3):
                assert append(good, f"c{i}") == 0
            assert gate(good) == 0, "identical report must pass the gate"

        def test_regression_fails():
            slow = os.path.join(tmp, "slow.json")
            write_report(slow, ips_scale=0.5)
            assert gate(slow) == 1, "50% throughput drop must fail"

        def test_improvement_passes():
            fast = os.path.join(tmp, "fast.json")
            write_report(fast, ips_scale=1.5)
            assert gate(fast) == 0, "a faster run must pass"

        def test_share_drift_fails():
            skew = os.path.join(tmp, "skew.json")
            write_report(
                skew, phase_secs={"simulate": 0.2, "analyze": 0.8}
            )
            assert gate(skew) == 1, "a 0.6 phase-share swing must fail"

        def test_new_phase_set_skips_share_gate():
            # A report that adds a bench row reshuffles every phase share;
            # shares must gate only against same-phase-set history, so the
            # run passes as long as throughput holds up.
            extra = os.path.join(tmp, "extra_phase.json")
            write_report(
                extra,
                phase_secs={"simulate": 0.5, "analyze": 0.1, "kernel": 0.4},
            )
            assert gate(extra) == 0, (
                "a changed phase-name set must not trip the share gate"
            )
            # Same phase set, same skew: the original share-drift guard
            # still fires against the matching history.
            skew = os.path.join(tmp, "skew2.json")
            write_report(
                skew, phase_secs={"simulate": 0.2, "analyze": 0.8}
            )
            assert gate(skew) == 1, (
                "share drift within an unchanged phase set must still fail"
            )

        def test_provenance_isolation():
            debug = os.path.join(tmp, "debug.json")
            report = _fake_report(ips_scale=0.01)
            report["build"]["type"] = "debug"
            with open(debug, "w", encoding="utf-8") as fh:
                json.dump(report, fh)
            assert gate(debug) == 0, (
                "a debug report must not gate against release history"
            )

        def test_stamped_history_still_matches():
            # Entries appended while reports carried a build.telemetry
            # stamp keep a "telemetry" field; the key no longer holds it,
            # so they still gate reports that carry no stamp.
            old = make_entry(_fake_report(), "old", None)
            old["telemetry"] = False
            assert matching_entries([old], provenance_key(_fake_report())), (
                "a stamped history entry must match an unstamped report"
            )

        def test_malformed_input():
            broken = os.path.join(tmp, "broken.json")
            with open(broken, "w", encoding="utf-8") as fh:
                fh.write("{not json")
            try:
                load_report(broken)
            except BadInput:
                return
            raise AssertionError("malformed JSON must raise BadInput")

        def test_missing_input():
            try:
                load_report(os.path.join(tmp, "nope.json"))
            except BadInput:
                return
            raise AssertionError("missing file must raise BadInput")

        def test_torn_trailing_line_is_skipped():
            # A kill -9 mid-append leaves a half-written last line; the
            # loader must skip it with a warning and keep every intact
            # entry, and the gate must still run against them.
            before = len(load_history(history))
            assert before >= 3, "earlier cases should have seeded history"
            whole = json.dumps(
                make_entry(_fake_report(), "torn", None), sort_keys=True
            )
            with open(history, "a", encoding="utf-8") as fh:
                fh.write(whole[: len(whole) // 2])  # No newline: torn write.
            assert len(load_history(history)) == before, (
                "a torn trailing line must be skipped, not fatal"
            )
            assert gate(good) == 0, "the gate must survive a torn line"
            # A well-formed line of the wrong schema is skipped too.
            with open(history, "a", encoding="utf-8") as fh:
                fh.write('\n{"schema": "other/1"}\n')
            assert len(load_history(history)) == before, (
                "foreign-schema lines must be skipped"
            )

        def test_profile_ipc_columns():
            m = extract_metrics(_fake_report(profiles_ipc=1.0))
            assert "ipc.avx2.gather" in m, "ipc columns missing"
            assert "subphase_share.avx2.decide" in m, (
                "subphase_share columns missing"
            )
            assert "throughput.profile.avx2" in m, (
                "profile throughput column missing"
            )
            prof = os.path.join(tmp, "prof.json")
            write_report(prof, profiles_ipc=1.0)
            for i in range(3):
                assert append(prof, f"p{i}") == 0
            assert gate(prof) == 0, "identical profile report must pass"
            slow = os.path.join(tmp, "slow_ipc.json")
            write_report(slow, profiles_ipc=0.7)
            assert gate(slow) == 1, "a 30% sub-phase IPC drop must fail"
            fast = os.path.join(tmp, "fast_ipc.json")
            write_report(fast, profiles_ipc=1.3)
            assert gate(fast) == 0, "an IPC improvement must pass"

        def test_exporter_stamped_drops_throughput():
            # A run recorded under --listen= with a poller attached must
            # never gate throughput rows (in either direction): items/sec
            # with a live exporter is not the number the history tracks.
            report = _fake_report(ips_scale=0.4, profiles_ipc=1.0)
            report["pmu"] = {"available": True, "exporter_active": True}
            m = extract_metrics(report)
            assert not any(k.startswith("throughput.") for k in m), (
                "exporter-stamped reports must carry no throughput columns"
            )
            assert "phase_share.simulate" in m, (
                "phase shares must survive the exporter stamp"
            )
            stamped = os.path.join(tmp, "exporter.json")
            with open(stamped, "w", encoding="utf-8") as fh:
                json.dump(report, fh)
            assert gate(stamped) == 0, (
                "a 60% 'slower' exporter-attached run must not trip the "
                "throughput gate"
            )

        def test_no_pmu_rows_tolerated():
            # A fallback host's rows have wall shares but no IPC: they must
            # extract cleanly and never trip against IPC-bearing history.
            m = extract_metrics(_fake_report(profiles_ipc=False))
            assert not any(k.startswith("ipc.") for k in m), (
                "no-PMU rows must contribute no ipc columns"
            )
            assert "subphase_share.avx2.gather" in m, (
                "wall shares must survive without PMU"
            )
            nopmu = os.path.join(tmp, "nopmu.json")
            write_report(nopmu, profiles_ipc=False)
            assert gate(nopmu) == 0, (
                "a no-PMU report must gate cleanly vs PMU history"
            )

        print("bench_history self-test:")
        for name, fn in [
            ("vacuous pass on short history", test_vacuous_pass),
            ("append + identical gate passes", test_append_and_pass),
            ("throughput regression fails", test_regression_fails),
            ("improvement passes", test_improvement_passes),
            ("phase-share drift fails", test_share_drift_fails),
            ("new phase set skips share gate", test_new_phase_set_skips_share_gate),
            ("provenance key isolates builds", test_provenance_isolation),
            ("stamped history entries still match", test_stamped_history_still_matches),
            ("malformed JSON is a clean error", test_malformed_input),
            ("missing file is a clean error", test_missing_input),
            ("torn trailing history line is skipped", test_torn_trailing_line_is_skipped),
            ("profile ipc/share columns gate", test_profile_ipc_columns),
            ("exporter-stamped run drops throughput", test_exporter_stamped_drops_throughput),
            ("no-PMU profile rows tolerated", test_no_pmu_rows_tolerated),
        ]:
            _run_selftest_case(failures, name, fn)

    if failures:
        print(f"self-test: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("self-test: all cases passed")
    return 0


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_append = sub.add_parser(
        "append", help="append a bench report to the history file"
    )
    p_append.add_argument("report")
    p_append.add_argument("--history", required=True)
    p_append.add_argument("--commit", required=True)
    p_append.add_argument(
        "--stamp", default=None, help="optional ISO-8601 build stamp"
    )
    p_append.set_defaults(fn=cmd_append)

    p_gate = sub.add_parser(
        "gate", help="fail if the report regresses vs the trailing median"
    )
    p_gate.add_argument("report")
    p_gate.add_argument("--history", required=True)
    p_gate.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="max tolerated relative throughput drop (default 0.10)",
    )
    p_gate.add_argument(
        "--share-drift",
        type=float,
        default=0.15,
        help="max tolerated absolute phase-share shift (default 0.15)",
    )
    p_gate.add_argument(
        "--min-entries",
        type=int,
        default=3,
        help="comparable entries required before the gate arms (default 3)",
    )
    p_gate.add_argument(
        "--window",
        type=int,
        default=20,
        help="trailing entries considered for the median (default 20)",
    )
    p_gate.set_defaults(fn=cmd_gate)

    p_self = sub.add_parser("self-test", help="run the built-in test cases")
    p_self.set_defaults(fn=cmd_selftest)

    args = parser.parse_args()
    try:
        return args.fn(args)
    except BadInput as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
