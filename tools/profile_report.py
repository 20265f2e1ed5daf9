#!/usr/bin/env python3
"""Render a BENCH_profile.json breakdown.

Usage:
    profile_report.py BENCH_profile.json [--folded STACKS.txt]
    profile_report.py --self-test

BENCH_profile.json is the "bitspread-bench/1" report written by
bench_profile: one "profiles" row per kernel backend, each carrying the
whole-run counter totals plus the gather / fault / decide / commit
sub-phase split (wall share, cycles, instructions, IPC, LLC-miss per
agent-step) recorded by the §3.8 PMU subsystem. This tool renders the
gather-vs-decide breakdown as a table. Regressions are not its job:
`bench_history.py gate` gates the same report's ipc.<backend>.<sub>
columns against results/HISTORY.jsonl.

The report degrades with the data: on a no-PMU host the rows carry
rdtsc/steady_clock cycles and wall shares but no instruction counts, so
the IPC columns print "-". With --folded the top stacks of a
sampling-profiler folded file are appended to the breakdown.

Exit status: 0 = rendered, 2 = bad input.
"""

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_history  # noqa: E402  (shared report loading)

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
# Self-test


def _fake_profile_report(pmu=True):
    def sub(name, share, ipc):
        row = {
            "sub_phase": name,
            "wall_seconds": share * 0.01,
            "wall_share": share,
            "samples": 1024,
            "cycles": int(share * 1e7),
        }
        if pmu:
            row["instructions"] = int(share * 1e7 * ipc)
            row["ipc"] = ipc
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

        def write(path, **kwargs):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_fake_profile_report(**kwargs), fh)
            return path

        good = write(os.path.join(tmp, "good.json"))
        nopmu = write(os.path.join(tmp, "nopmu.json"), pmu=False)

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
    except BadInput as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piping into head/less closes stdout early; not an error.
        sys.exit(0)
