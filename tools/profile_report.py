#!/usr/bin/env python3
"""Render a BENCH_profile.json breakdown and flag IPC regressions.

Usage:
    profile_report.py BENCH_profile.json [--history results/HISTORY.jsonl]
        [--ipc-drop 0.15] [--min-entries 3] [--window 20] [--folded STACKS.txt]
    profile_report.py --self-test

BENCH_profile.json is the "bitspread-bench/1" report written by
bench_profile: one "profiles" row per kernel backend, each carrying the
whole-run counter totals plus the gather / fault / decide / commit
sub-phase split (wall share, cycles, instructions, IPC, LLC-miss per
agent-step) recorded by the §3.8 PMU subsystem. This tool renders the
gather-vs-decide breakdown as a table and, when results/HISTORY.jsonl
holds comparable entries (appended by bench_history.py), fails if any
sub-phase IPC dropped more than --ipc-drop below the trailing median.

The report degrades with the data: on a no-PMU host the rows carry
rdtsc/steady_clock cycles and wall shares but no instruction counts, so
the IPC columns print "-" and the regression gate passes vacuously with
a note (wall-share drift is bench_history's job, not this tool's).
With --folded the top stacks of a sampling-profiler folded file are
appended to the breakdown.

Exit status: 0 = rendered (and within budget), 1 = IPC regression,
2 = bad input.
"""

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_history  # noqa: E402  (shared report/history plumbing)

SUB_PHASES = ("gather", "fault", "decide", "commit")


class BadInput(Exception):
    """Input file missing, malformed, or not a bench_profile report."""


def load_profile_report(path):
    try:
        report = bench_history.load_report(path)
    except bench_history.BadInput as err:
        raise BadInput(str(err)) from err
    if report.get("bench") != "profile":
        raise BadInput(f"{path}: not a bench_profile report "
                       f"(bench={report.get('bench')!r})")
    rows = report.get("profiles")
    if not isinstance(rows, list) or not rows:
        raise BadInput(f"{path}: no 'profiles' rows")
    return report


# ---------------------------------------------------------------------------
# Rendering


def _fmt(value, spec, missing="-"):
    if isinstance(value, (int, float)):
        return format(value, spec)
    return missing


def render_breakdown(report):
    """Returns the human-readable breakdown as a list of lines."""
    lines = []
    pmu = report.get("pmu") or {}
    workload = report.get("workload") or {}
    lines.append(
        "bench_profile breakdown (n={n}, rounds={rounds}, pmu={pmu})".format(
            n=workload.get("n", "?"),
            rounds=workload.get("rounds", "?"),
            pmu="available" if pmu.get("available") else
            f"fallback [{pmu.get('unavailable_reason', 'no reason recorded')}]",
        )
    )
    for row in report["profiles"]:
        backend = row.get("backend", "?")
        lines.append("")
        lines.append(
            f"{backend}: "
            f"{_fmt(row.get('agent_steps_per_second', 0) / 1e6, '8.2f')} M "
            f"agent-steps/s over {_fmt(row.get('seconds'), '.3f')}s"
        )
        subs = row.get("sub_phases")
        if not subs:
            lines.append("  (no sub-phase markers: legacy loop)")
            continue
        lines.append(
            f"  {'sub-phase':<10} {'share':>7} {'wall':>9} {'cycles':>13} "
            f"{'instrs':>13} {'ipc':>6} {'llc/step':>9} {'mpki':>7}"
        )
        for sub in subs:
            share = sub.get("wall_share")
            bar = "#" * int(round(20 * share)) if isinstance(
                share, (int, float)) else ""
            lines.append(
                "  {name:<10} {share:>7} {wall:>8}s {cycles:>13} "
                "{instrs:>13} {ipc:>6} {llc:>9} {mpki:>7}  {bar}".format(
                    name=sub.get("sub_phase", "?"),
                    share=_fmt(share, ".1%"),
                    wall=_fmt(sub.get("wall_seconds"), ".4f"),
                    cycles=_fmt(sub.get("cycles"), ",.0f"),
                    instrs=_fmt(sub.get("instructions"), ",.0f"),
                    ipc=_fmt(sub.get("ipc"), ".2f"),
                    llc=_fmt(sub.get("llc_miss_per_agent_step"), ".4f"),
                    mpki=_fmt(sub.get("mpki"), ".2f"),
                    bar=bar,
                )
            )
        by_name = {
            s.get("sub_phase"): s for s in subs if isinstance(s, dict)
        }
        gather = by_name.get("gather", {}).get("wall_seconds")
        decide = by_name.get("decide", {}).get("wall_seconds")
        if (isinstance(gather, (int, float))
                and isinstance(decide, (int, float)) and decide > 0):
            lines.append(
                f"  gather/decide wall ratio: {gather / decide:.2f} "
                f"(ROADMAP item 1 tracks gather dominance)"
            )
    return lines


def render_folded(path, top=10):
    """Top stacks of a folded-stack file (sampling profiler output)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as err:
        raise BadInput(f"{path}: cannot read: {err.strerror or err}") from err
    stacks = []
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        if not stack or not count.isdigit():
            raise BadInput(f"{path}: not a folded-stack file "
                           f"(line {line[:60]!r})")
        stacks.append((int(count), stack))
    total = sum(c for c, _ in stacks)
    lines = [f"top stacks ({path}, {total} samples):"]
    if total == 0:
        lines.append("  (no samples)")
        return lines
    for count, stack in sorted(stacks, reverse=True)[:top]:
        leaf = stack.rsplit(";", 1)[-1]
        lines.append(f"  {count / total:6.1%} {count:>7}  {leaf}")
        lines.append(f"                  {stack}")
    return lines


# ---------------------------------------------------------------------------
# IPC regression gate (vs bench_history's HISTORY.jsonl trailing median)


def ipc_metrics(report):
    """The ipc.<backend>.<sub_phase> metrics this report carries."""
    return {
        name: value
        for name, value in bench_history.extract_metrics(report).items()
        if name.startswith("ipc.")
    }


def check_ipc(report, history_path, ipc_drop, min_entries, window):
    """Returns (exit_code, lines): compares sub-phase IPC to history."""
    lines = []
    candidate = ipc_metrics(report)
    if not candidate:
        lines.append("ipc gate: report carries no IPC data (no-PMU host) "
                     "— passing vacuously")
        return 0, lines
    key = bench_history.provenance_key(report)
    history = bench_history.matching_entries(
        bench_history.load_history(history_path), key
    )
    if window > 0:
        history = history[-window:]
    failures = []
    lines.append(
        f"ipc gate: {len(history)} comparable history entries, "
        f"budget {ipc_drop:.0%} drop vs trailing median"
    )
    for name in sorted(candidate):
        samples = [
            e["metrics"][name]
            for e in history
            if isinstance(e.get("metrics", {}).get(name), (int, float))
        ]
        if len(samples) < min_entries:
            lines.append(f"  {name:<28} ({len(samples)} entries — skipped)")
            continue
        base = bench_history.median(samples)
        current = candidate[name]
        drop = (base - current) / base if base > 0 else 0.0
        verdict = "FAIL" if drop > ipc_drop else "OK"
        if drop > ipc_drop:
            failures.append(f"{name}: median {base:.3f} -> {current:.3f}")
        lines.append(
            f"  {name:<28} median {base:6.3f} current {current:6.3f} "
            f"{-drop:+7.1%} {verdict}"
        )
    if failures:
        lines.append("ipc gate: sub-phase IPC regression:\n  "
                     + "\n  ".join(failures))
        return 1, lines
    lines.append("ipc gate: all sub-phase IPCs within budget")
    return 0, lines


# ---------------------------------------------------------------------------
# Self-test


def _fake_profile_report(ipc_scale=1.0, pmu=True):
    def sub(name, share, ipc):
        row = {
            "sub_phase": name,
            "wall_seconds": share * 0.01,
            "wall_share": share,
            "samples": 1024,
            "cycles": int(share * 1e7),
        }
        if pmu:
            row["instructions"] = int(share * 1e7 * ipc * ipc_scale)
            row["ipc"] = ipc * ipc_scale
            row["llc_miss_per_agent_step"] = 0.01
            row["mpki"] = 0.5
        return row

    return {
        "schema": "bitspread-bench/1",
        "bench": "profile",
        "quick": True,
        "hardware_concurrency": 1,
        "build": {"type": "release"},
        "workload": {"n": 16384, "rounds": 64},
        "pmu": {"available": pmu,
                **({} if pmu else {"unavailable_reason": "forced"})},
        "benchmarks": [
            {"name": "profile_avx2", "items_per_second": 1.0e8}
        ],
        "profiles": [
            {
                "backend": "avx2",
                "pmu_available": pmu,
                "subphase_markers": True,
                "seconds": 0.04,
                "agent_steps": 1048512,
                "agent_steps_per_second": 2.6e7,
                "identical_to_unprofiled": True,
                "run_total": {"wall_seconds": 0.04, "cycles": 4 * 10**7},
                "sub_phases": [
                    sub("gather", 0.40, 1.8),
                    sub("fault", 0.20, 2.2),
                    sub("decide", 0.22, 2.5),
                    sub("commit", 0.18, 2.0),
                ],
            }
        ],
    }


def self_test():
    failures = []

    def case(name, fn):
        try:
            fn()
        except AssertionError as err:
            failures.append(name)
            print(f"  FAIL {name}: {err}")
        else:
            print(f"  ok   {name}")

    with tempfile.TemporaryDirectory() as tmp:
        history = os.path.join(tmp, "HISTORY.jsonl")

        def write(path, **kwargs):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_fake_profile_report(**kwargs), fh)
            return path

        good = write(os.path.join(tmp, "good.json"))
        nopmu = write(os.path.join(tmp, "nopmu.json"), pmu=False)

        def gate(path):
            report = load_profile_report(path)
            code, lines = check_ipc(report, history, 0.15, 3, 20)
            print("\n".join("    | " + ln for ln in lines))
            return code

        def test_render():
            lines = render_breakdown(load_profile_report(good))
            text = "\n".join(lines)
            assert "gather" in text and "ipc" in text, "breakdown incomplete"
            assert "gather/decide wall ratio" in text, "missing ratio line"

        def test_render_no_pmu():
            lines = render_breakdown(load_profile_report(nopmu))
            text = "\n".join(lines)
            assert "fallback" in text, "no-PMU report must say fallback"
            assert "gather" in text, "wall split must survive without PMU"

        def test_vacuous_without_history():
            assert gate(good) == 0, "empty history must pass vacuously"

        def test_no_pmu_vacuous():
            assert gate(nopmu) == 0, "a no-PMU report must pass vacuously"

        def test_regression_flagged():
            for i in range(3):
                entry = bench_history.make_entry(
                    _fake_profile_report(), f"c{i}", None
                )
                with open(history, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(entry) + "\n")
            assert gate(good) == 0, "identical IPC must pass"
            slow = write(os.path.join(tmp, "slow.json"), ipc_scale=0.5)
            assert gate(slow) == 1, "a 50% IPC drop must fail"
            fast = write(os.path.join(tmp, "fast.json"), ipc_scale=1.5)
            assert gate(fast) == 0, "an IPC improvement must pass"

        def test_no_pmu_vs_pmu_history():
            # History has IPC columns, the candidate (no-PMU host) has
            # none: must pass, not crash — CI runs on both kinds of host.
            assert gate(nopmu) == 0, "no-PMU candidate vs PMU history"

        def test_folded():
            folded = os.path.join(tmp, "stacks.folded")
            with open(folded, "w", encoding="utf-8") as fh:
                fh.write("main;run;gather 30\nmain;run;decide 10\n")
            lines = render_folded(folded)
            text = "\n".join(lines)
            assert "75.0%" in text and "gather" in text, f"bad top: {text}"

        def test_bad_inputs():
            for bad, what in [
                (os.path.join(tmp, "missing.json"), "missing file"),
                (write(os.path.join(tmp, "wrong.json")), None),
            ]:
                if what is None:
                    report = json.load(open(bad, encoding="utf-8"))
                    report["bench"] = "engine"
                    with open(bad, "w", encoding="utf-8") as fh:
                        json.dump(report, fh)
                    what = "wrong bench"
                try:
                    load_profile_report(bad)
                except BadInput:
                    continue
                raise AssertionError(f"{what} must raise BadInput")

        print("profile_report self-test:")
        case("breakdown renders PMU report", test_render)
        case("breakdown renders no-PMU report", test_render_no_pmu)
        case("vacuous pass without history", test_vacuous_without_history)
        case("no-PMU report passes vacuously", test_no_pmu_vacuous)
        case("IPC regression flagged vs history", test_regression_flagged)
        case("no-PMU candidate vs PMU history passes",
             test_no_pmu_vs_pmu_history)
        case("folded-stack top table", test_folded)
        case("bad inputs are clean errors", test_bad_inputs)

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
    parser.add_argument("report", nargs="?")
    parser.add_argument(
        "--history",
        default="results/HISTORY.jsonl",
        help="bench_history JSONL to compare IPC against "
        "(default results/HISTORY.jsonl; missing file = vacuous pass)",
    )
    parser.add_argument(
        "--ipc-drop",
        type=float,
        default=0.15,
        help="max tolerated relative sub-phase IPC drop (default 0.15)",
    )
    parser.add_argument(
        "--min-entries",
        type=int,
        default=3,
        help="history entries per metric before the gate arms (default 3)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=20,
        help="trailing history entries considered (default 20)",
    )
    parser.add_argument(
        "--folded",
        default=None,
        help="also render the top stacks of this folded-stack file",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="run the built-in test cases and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.report:
        parser.error("a BENCH_profile.json report is required")

    try:
        report = load_profile_report(args.report)
        lines = render_breakdown(report)
        if args.folded:
            lines.append("")
            lines.extend(render_folded(args.folded))
        code, gate_lines = check_ipc(
            report, args.history, args.ipc_drop, args.min_entries, args.window
        )
    except BadInput as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    print("\n".join(lines))
    print()
    print("\n".join(gate_lines))
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piping into head/less closes stdout early; not an error.
        sys.exit(0)
