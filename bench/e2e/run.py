#!/usr/bin/env python3
"""bench_e2e runner: build the benchmark, run workloads, print every metric.

Run from the repository root (standard library only):

  python3 bench/e2e/run.py                      # every workload, untraced
  python3 bench/e2e/run.py --trace 1            # every workload, traced
  python3 bench/e2e/run.py --workload graph_er --seed 2 --seconds 25 --trace 0
  python3 bench/e2e/run.py --out DIR            # also keep result JSON files
  python3 bench/e2e/run.py --compare DIR_A DIR_B
  python3 bench/e2e/run.py --self-test

The bench_e2e binary (built from bench/e2e/CMakeLists.txt into
bench/e2e/.build/) runs one workload per process and prints raw
observations. This script turns them into the metrics named in
BENCHMARK.json: end-to-end metrics from the untraced pass (--trace 0),
per-layer metrics from the traced pass (--trace 1). It prints one
`name value unit` line per metric and, last, one JSON object with the keys
correct, attempted, failed and metrics. Any failed correctness check makes
the exit status non-zero.
"""

import argparse
import ctypes
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MANIFEST = ROOT / "BENCHMARK.json"
BUILD = HERE / ".build"
BINARY = BUILD / "bench_e2e"

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # <linux/personality.h>

# Environment overrides that change what the library runs; a measurement
# taken under any of them is not comparable with one taken without.
GUARDED_ENV = ("BITSPREAD_KERNEL", "BITSPREAD_FORCE_SCALAR_KERNEL",
               "BITSPREAD_NO_PMU", "BITSPREAD_QUICK")

# Which end-to-end metric, on which workloads, each per-layer metric should
# move. Written down before measuring; --self-test checks every entry names
# a metric and workload of BENCHMARK.json.
SHARDED = ("complete_kernel", "graph_er", "faulty_ckpt")
GRAPHS = ("graph_er",)
ALL = SHARDED + ("voter_replicates",)
MOVES = {
    "topology.build_s": (("setup_s",), GRAPHS),
    "topology.csr_mb": (("peak_rss_mb",), GRAPHS),
    "sharded.make_population_s": (("setup_s",), SHARDED),
    "sharded.step_ns_per_agent": (("agent_steps_per_s",), GRAPHS),
    "sharded.legacy_round_frac": (("agent_steps_per_s",), GRAPHS),
    "kernel.step_ns_per_agent.avx2": (("agent_steps_per_s",),
                                      ("complete_kernel",)),
    "kernel.step_ns_per_agent.scalar": (("agent_steps_per_s",),
                                        ("complete_kernel",)),
    "kernel.step_ns_per_agent.legacy": (("agent_steps_per_s",), GRAPHS),
    "run_loop.overhead_frac": (("agent_steps_per_s", "run_ms_p50"),
                               ("voter_replicates",)),
    "aggregate.step_ns": (("run_ms_p50",), ("voter_replicates",)),
    "random.binomial_ns": (("run_ms_p50",), ("voter_replicates",)),
    "faults.step_overhead_frac": (("agent_steps_per_s",), ("faulty_ckpt",)),
    "snapshot.encode_ms": (("experiment_s",), ("faulty_ckpt",)),
    "snapshot.write_ms_p50": (("experiment_s", "agent_steps_per_s"),
                              ("faulty_ckpt",)),
    "snapshot.write_ms_max": (("experiment_s",), ("faulty_ckpt",)),
    "snapshot.bytes": (("experiment_s",), ("faulty_ckpt",)),
    "snapshot.stall_frac": (("agent_steps_per_s",), ("faulty_ckpt",)),
    "snapshot.load_ms": (("experiment_s",), ("faulty_ckpt",)),
    "telemetry.report_write_ms": (("experiment_s",), ALL),
    "trace.overhead_frac": ((), ()),  # The probes' own cost.
}

# Duration of bench_e2e's host-speed reference loop on the defining host at
# its usual speed (README.md, "Host-speed normalisation"). End-to-end times
# are scaled by this over the loop's duration around each timed section.
REFERENCE_NOMINAL_S = 0.02

# Correctness tolerances (see README.md, "Correctness checks").
X_FRAC_TOLERANCE = 0.01
VOTER_T_RANGE = (0.05, 1.0)
MIN_LAYER_COVERAGE = 0.9

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(Exception):
    """A refusal or failure that must end the run without a result."""


# --------------------------------------------------------------------------
# Statistics.

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def tail(values, q=0.99, beyond=10):
    """The q-quantile capped so at least `beyond` samples lie above it.

    Returns (value, quantile actually reported), or (None, None) when fewer
    than beyond + 1 samples exist.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= beyond:
        return None, None
    index = min(math.ceil(q * count) - 1, count - 1 - beyond)
    return ordered[index], (index + 1) / count


# --------------------------------------------------------------------------
# Manifest.

def load_manifest():
    try:
        return json.loads(MANIFEST.read_text())
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read {MANIFEST}: {error}") from error


def validate_manifest(manifest, binary_workloads=None, binary_layers=None):
    """Every rule BENCHMARK.json must satisfy; returns a list of errors."""
    errors = []

    def need(condition, message):
        if not condition:
            errors.append(message)

    need(set(manifest) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"},
         "top-level keys differ from the benchmark contract")
    command = manifest.get("command", [])
    need(isinstance(command, list) and 1 <= len(command) <= 32 and
         all(isinstance(c, str) and len(c) <= 200 and
             not c.startswith("/") and ".." not in c.split("/")
             for c in command), "command must be <= 32 relative strings")
    paths = manifest.get("paths", [])
    need(isinstance(paths, list) and 1 <= len(paths) <= 16 and
         all(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) and
             not p.startswith("/") and ".." not in p.split("/")
             for p in paths), "paths must be 1-16 relative directories")
    seconds = manifest.get("run_seconds")
    need(isinstance(seconds, int) and 1 <= seconds <= 60,
         "run_seconds must be a whole number in [1, 60]")

    names = []
    workloads = manifest.get("workloads", [])
    need(2 <= len(workloads) <= 8, "2 to 8 workloads")
    for w in workloads:
        need(set(w) == {"name", "why"}, f"workload keys: {w}")
        why = w.get("why", "")
        need(0 < len(why) <= 200 and "\n" not in why, f"why of {w}")
        names.append(w.get("name", ""))
    e2e = manifest.get("end_to_end", [])
    need(1 <= len(e2e) <= 16, "1 to 16 end-to-end metrics")
    for m in e2e:
        need(set(m) == {"name", "unit", "better", "bound"},
             f"end-to-end keys: {m}")
        bound = m.get("bound")
        need(isinstance(bound, (int, float)) and 0 < bound <= 0.25,
             f"bound of {m.get('name')} must be in (0, 0.25]")
        names.append(m.get("name", ""))
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    need(len(setup) == 1 and setup[0].get("unit") == "s" and
         setup[0].get("better") == "lower", "setup_s (s, lower) is required")
    if setup:
        need(all(m.get("bound", 0) <= setup[0].get("bound", 0) for m in e2e),
             "setup_s must carry the largest bound")
    layers = manifest.get("per_layer", [])
    need(1 <= len(layers) <= 128, "1 to 128 per-layer metrics")
    for m in layers:
        need(set(m) == {"name", "unit", "better"}, f"per-layer keys: {m}")
        names.append(m.get("name", ""))
    for m in e2e + layers:
        need(m.get("better") in ("lower", "higher"), f"better of {m}")
        need(bool(UNIT_RE.match(str(m.get("unit", "")))), f"unit of {m}")
    for name in names:
        need(bool(NAME_RE.match(str(name))), f"bad name {name!r}")
    need(len(names) == len(set(names)), "names must be unique")

    e2e_names = {m.get("name") for m in e2e}
    workload_names = {w.get("name") for w in workloads}
    layer_names = [m.get("name") for m in layers]
    need(set(MOVES) == set(layer_names),
         "MOVES must cover exactly the per-layer metrics")
    for layer, (metrics, moved) in MOVES.items():
        need(set(metrics) <= e2e_names, f"{layer} moves unknown metrics")
        need(set(moved) <= workload_names, f"{layer} names unknown workloads")
    if binary_workloads is not None:
        need(binary_workloads == [w.get("name") for w in workloads],
             "bench_e2e workloads differ from BENCHMARK.json")
    if binary_layers is not None:
        need(binary_layers == layer_names,
             "bench_e2e per-layer metrics differ from BENCHMARK.json")
    return errors


# --------------------------------------------------------------------------
# Build, guard and host stamp.

def build():
    """Builds bench_e2e when it is missing or older than any source."""
    src = ROOT / "src"
    if not (src / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {src}")
    sources = [p for d in (src, HERE) for p in d.rglob("*")
               if p.suffix in (".cc", ".h", ".txt") and BUILD not in p.parents]
    if BINARY.is_file():
        built = BINARY.stat().st_mtime
        if all(p.stat().st_mtime <= built for p in sources):
            return
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "bench_e2e",
              "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, capture_output=True, text=True,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            raise BenchError(f"build step failed: {error}") from error
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(step))


def no_address_randomization():
    """Child-side: turn off ASLR (personality ADDR_NO_RANDOMIZE) so heap
    placement, and with it the resident high-water mark, repeats exactly."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def bench_e2e(*args, timeout=RUN_TIMEOUT_S):
    try:
        done = subprocess.run([str(BINARY), *args], capture_output=True,
                              text=True, timeout=timeout, check=False,
                              preexec_fn=no_address_randomization)
    except (OSError, subprocess.TimeoutExpired) as error:
        raise BenchError(f"bench_e2e did not finish: {error}") from error
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise BenchError(f"bench_e2e exited with {done.returncode}")
    return done.stdout


def git_commit():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def guard_and_stamp():
    """Refuses a non-comparable measurement; returns the host stamp."""
    set_vars = [v for v in GUARDED_ENV if v in os.environ]
    if set_vars:
        raise BenchError("refusing to measure with " + ", ".join(set_vars) +
                         " set (it changes what the library runs)")
    host = json.loads(bench_e2e("--info"))
    if not host.get("ndebug"):
        raise BenchError("refusing to measure: bench_e2e built without NDEBUG")
    host["git_commit"] = git_commit()
    return host


# --------------------------------------------------------------------------
# Metrics and correctness.

class Checks:
    """Counts checked operations and the ones whose check failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, what, ok, count=1, failed=None):
        failed = (0 if ok else count) if failed is None else failed
        self.attempted += count
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {count} failed")


def check_graph(checks, row):
    if "graph_digest" in row:
        checks.add("graph identity/connectivity",
                   row["graph_digest"] == row["expected_digest"] and
                   row["connected"] and row["min_degree"] >= 1)


def end_to_end(raw, checks):
    """End-to-end metrics and details of an untraced run; fills `checks`."""
    aggregate = raw["shape"]["trial_runs"] > 0
    faults = raw["shape"]["faults"]
    setups = [s["seconds"] for s in raw["setups"]]
    trials = raw["trials"]
    walls = [t["wall_s"] for t in trials]
    for row in raw["setups"]:
        check_graph(checks, row)
    for t in trials:
        ok = t["digest"] == trials[0]["digest"]
        if not aggregate:
            ok = ok and abs(t["x_frac"] - 0.5) <= X_FRAC_TOLERANCE
        checks.add("trial repeat digest / final X/n", ok)
        if aggregate:
            checks.add("Voter run ends in correct consensus", True,
                       count=t["runs"], failed=t["runs"] - t["correct_runs"])
        if faults:
            checks.add("checkpoint write", not t["write_error"],
                       count=t["writes_expected"],
                       failed=max(t["writes_expected"] - t["writes_done"],
                                  int(t["write_error"])))
            checks.add("ring entry CRC", True, count=t["ring_entries"],
                       failed=t["ring_entries"] - t["ring_verified"])
            checks.add("resume digest",
                       t["resumed"] and t["resume_digest"] == t["digest"])
    checks.add("report write", raw["reports_ok"], count=len(
        raw["report_write_s"]))

    # Every time is scaled to the host's nominal speed by the two
    # reference-loop runs next to it, raised to the section's sensitivity
    # (README.md, "Host-speed normalisation"); the raw times are kept in
    # details. A set-up and its trial alternate: reference_s[k] precedes
    # set-up k, setup_reference_s[k] sits between it and trial k, and
    # reference_s[k + 1] follows the trial; the last reference_s follows the
    # report writes.
    def speed_of(before, after):
        return REFERENCE_NOMINAL_S / ((before + after) / 2)

    reference = raw["reference_s"]
    between = raw["setup_reference_s"]
    setup_speed = [speed_of(reference[k], between[k])
                   for k in range(len(setups))]
    speed = [speed_of(between[k], reference[k + 1])
             for k in range(len(trials))]
    scale = [s ** raw["shape"]["trial_sensitivity"] for s in speed]
    setup_exponent = raw["shape"]["setup_sensitivity"]
    setup_s = median([s * setup_speed[k] ** setup_exponent
                      for k, s in enumerate(setups)])
    trial_s = median([w * scale[k] for k, w in enumerate(walls)])
    report_speed = speed_of(reference[-2], reference[-1])
    report_s = median([w * report_speed ** setup_exponent
                       for w in raw["report_write_s"]])
    if aggregate:
        run_ms = [ms * scale[k] for k, t in enumerate(trials)
                  for ms in t["run_ms"]]
    else:
        run_ms = [w * scale[k] * 1e3 for k, w in enumerate(walls)]
    metrics = {
        "experiment_s": setup_s + trial_s + report_s,
        "setup_s": setup_s,
        "agent_steps_per_s": median(
            [t["agent_steps"] / (t["run_wall_s"] * scale[k]) / 1e6
             for k, t in enumerate(trials)]),
        "run_ms_p50": median(run_ms),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    p99, q = tail(run_ms)
    details = {
        "setups": len(setups),
        "trials": len(trials),
        "raw_trial_wall_s": walls,
        "raw_trial_wall_median_s": median(walls),
        "raw_setup_s": setups,
        "raw_setup_median_s": median(setups),
        "reference_s": reference,
        "setup_reference_s": between,
        "host_speed_median": median(speed),
        "run_samples": len(run_ms),
        "run_ms_p99": p99,
        "run_ms_p99_quantile": q,
        "measured_s": raw["measured_s"],
    }
    if aggregate:
        n = raw["shape"]["n"]
        runs = sum(t["runs"] for t in trials)
        mean_t = sum(t["rounds"] for t in trials) / runs / (n * math.log(n))
        lo, hi = VOTER_T_RANGE
        checks.add("Voter mean T/(n ln n) in range", lo <= mean_t <= hi)
        details["voter_mean_T_over_n_ln_n"] = mean_t
    return metrics, details


def per_layer(raw, checks, names):
    """Per-layer metrics and details of a traced run; fills `checks`."""
    faults = raw["shape"]["faults"]
    check_graph(checks, raw)
    for pair in raw["pairs"]:
        ok = pair["traced_digest"] == pair["untraced_digest"]
        if faults:
            traced = pair["traced"]
            ok = (ok and traced["resumed"] and
                  traced["resume_digest"] == traced["digest"] and
                  not traced["write_error"] and
                  traced["ring_verified"] == traced["ring_entries"])
        checks.add("traced replay reproduces the untraced digest", ok)
    coverage = raw["layer_self_sum_s"] / raw["traced_wall_s"]
    checks.add("layer self times cover the traced wall",
               coverage >= MIN_LAYER_COVERAGE)
    checks.add("layer probes", raw["probes_ok"])
    layers = raw["layers"]
    checks.add("layer metrics are the manifest's, all finite",
               sorted(layers) == sorted(names) and all(
                   isinstance(v, (int, float)) and math.isfinite(v)
                   for v in layers.values()))
    details = dict(raw["details"])
    details.update({
        "self_time_s": raw["self_time_s"],
        "layer_coverage": coverage,
        "traced_wall_s": raw["traced_wall_s"],
        "pass_wall_s": raw["pass_wall_s"],
        "pairs": len(raw["pairs"]),
        "spans": raw["spans"],
    })
    return dict(layers), details


def run_workload(workload, seed, seconds, trace, host, manifest, out_dir):
    """Runs one workload; returns the result document."""
    work = BUILD / "work" / f"{workload}-{os.getpid()}"
    trace_path = BUILD / "traces" / f"{workload}.seed{seed}.trace.json"
    args = [f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", f"--trace={int(trace)}",
            f"--work-dir={work}"]
    if trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        args.append(f"--trace-out={trace_path}")
    try:
        raw = json.loads(bench_e2e(*args))
    except ValueError as error:
        raise BenchError(f"bench_e2e printed no JSON: {error}") from error
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks = Checks()
    if trace:
        specs = manifest["per_layer"]
        values, details = per_layer(raw, checks, [m["name"] for m in specs])
        checks.add("Chrome trace written", raw.get("trace_written", False))
        details["chrome_trace"] = str(trace_path.relative_to(ROOT))
    else:
        specs = manifest["end_to_end"]
        values, details = end_to_end(raw, checks)
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise BenchError("bench_e2e did not report " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "host": host, "shape": raw["shape"],
        "correct": checks.failed == 0, "attempted": checks.attempted,
        "failed": checks.failed, "failures": checks.failures,
        "metrics": metrics, "details": details,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        name = f"{workload}.seed{seed}{'.trace' if trace else ''}.json"
        (out_dir / name).write_text(json.dumps(result, indent=2) + "\n")
    return result


def print_result(result):
    host = result["host"]
    print(f"# {result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])} | {host['nproc']} cpus, "
          f"{host['cpu_model']}, L2 {host['l2_kb']} KB, L3 {host['l3_kb']} KB,"
          f" kernel {host['kernel_backend']}, {host['compiler']}, "
          f"commit {host['git_commit'][:12]}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    sys.stdout.flush()


# --------------------------------------------------------------------------
# Two-set agreement.

def compare(dir_a, dir_b, manifest):
    """Markdown agreement table between two sets of untraced result files
    (one file per workload and seed, as --out writes them). A metric agrees
    when the medians over the two sets' runs differ by at most its bound;
    each set's spread is its quartile distance as a share of its median."""
    def results(directory, workload):
        files = sorted(Path(directory).glob(f"{workload}.seed*[0-9].json"))
        if not files:
            raise BenchError(f"no {workload} results in {directory}")
        return [json.loads(f.read_text()) for f in files]

    def spread_cell(values):
        return f"{spread(values):.4f}" if len(values) > 1 else "-"

    print("| workload | metric | runs A/B | median A | spread A | median B "
          "| spread B | B/A - 1 | bound | agree |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    agree_all = True
    for w in manifest["workloads"]:
        a, b = results(dir_a, w["name"]), results(dir_b, w["name"])
        runs = f"{len(a)}/{len(b)}"
        for m in manifest["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a]
            vb = [r["metrics"][m["name"]]["value"] for r in b]
            change = median(vb) / median(va) - 1
            agree = abs(change) <= m["bound"]
            agree_all = agree_all and agree
            print(f"| {w['name']} | {m['name']} | {runs} | {median(va):.6g} "
                  f"| {spread_cell(va)} | {median(vb):.6g} "
                  f"| {spread_cell(vb)} | {change:+.4f} | {m['bound']} "
                  f"| {'yes' if agree else 'NO'} |")
        # Time-bounded runs attempt different numbers of operations; the
        # failure count must match exactly (zero on both sides).
        failed = [sum(r["failed"] for r in s) for s in (a, b)]
        attempted = [sum(r["attempted"] for r in s) for s in (a, b)]
        same = failed == [0, 0]
        agree_all = agree_all and same
        print(f"| {w['name']} | failed (attempted) | {runs} | {failed[0]} "
              f"({attempted[0]}) | | {failed[1]} ({attempted[1]}) | | | exact "
              f"| {'yes' if same else 'NO'} |")
    return agree_all


# --------------------------------------------------------------------------
# Self-test.

def self_test():
    errors = []

    def expect(condition, message):
        if not condition:
            errors.append(message)

    expect(median([3, 1, 2]) == 2, "median odd")
    expect(median([4, 1, 3, 2]) == 2.5, "median even")
    expect(quartiles(list(range(1, 11))) == (2.75, 5.5, 8.25), "quartiles")
    expect(abs(spread([1, 2, 3, 4, 5]) - 3.0 / 3.0) < 1e-12, "spread")
    expect(tail(list(range(1, 1001))) == (990, 0.99), "p99 of 1000")
    expect(tail(list(range(1, 101))) == (90, 0.9), "p99 capped at 10 beyond")
    expect(tail(list(range(1, 2001)))[0] == 1980, "p99 of 2000")
    expect(tail([5.0] * 10) == (None, None), "p99 needs 11 samples")

    build()
    manifest = load_manifest()
    workloads = bench_e2e("--list-workloads").split()
    layers = bench_e2e("--list-metrics").split()
    errors += validate_manifest(manifest, workloads, layers)

    # The end-to-end names this script prints are exactly the manifest's.
    fixture = {
        "shape": {"trial_runs": 2, "faults": False, "n": 16,
                  "trial_sensitivity": 1.0, "setup_sensitivity": 0.5},
        "setups": [{"seconds": 0.1}],
        "trials": [{"wall_s": 1.0, "run_wall_s": 1.0, "digest": "a",
                    "agent_steps": 1e6, "rounds": 50, "runs": 2,
                    "correct_runs": 2, "run_ms": [1.0, 2.0]}],
        "report_write_s": [0.001], "reports_ok": True, "peak_rss_kb": 1024,
        "measured_s": 1.0,
        "reference_s": [REFERENCE_NOMINAL_S, REFERENCE_NOMINAL_S / 2,
                        REFERENCE_NOMINAL_S / 2],
        "setup_reference_s": [REFERENCE_NOMINAL_S / 2],
    }
    checks = Checks()
    values, _ = end_to_end(fixture, checks)
    expect(list(values) == [m["name"] for m in manifest["end_to_end"]],
           "end-to-end metric names differ from BENCHMARK.json")
    # The set-up ran while the reference loop took 0.75 of its nominal time
    # (the host 4/3 as fast as nominal), so with sensitivity 0.5 its 0.1 s
    # reads sqrt(4/3) times as long. The trial, bracketed by half-nominal
    # references, reads twice its 1 s (sensitivity 1), the report sqrt(2)
    # times its 1 ms.
    expected = 0.1 * math.sqrt(4 / 3) + 2.0 + 0.001 * math.sqrt(2)
    expect(abs(values["experiment_s"] - expected) < 1e-12,
           f"normalised experiment_s {values['experiment_s']}")
    expect(abs(values["agent_steps_per_s"] - 0.5) < 1e-12,
           f"normalised agent_steps_per_s {values['agent_steps_per_s']}")
    expect(checks.failed == 0 and checks.attempted == 5,
           f"fixture checks: {checks.failures} / {checks.attempted}")
    for error in errors:
        print(f"self-test: {error}", file=sys.stderr)
    print("self-test: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 0 if not errors else 1


# --------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for per-workload result JSON files")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        if args.self_test:
            return self_test()
        manifest = load_manifest()
        if args.compare:
            return 0 if compare(*args.compare, manifest) else 1
        names = [w["name"] for w in manifest["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(names)}")
        workloads = names if args.workload == "all" else [args.workload]
        seconds = (args.seconds if args.seconds is not None
                   else manifest["run_seconds"])
        build()
        host = guard_and_stamp()
        all_correct = True
        for workload in workloads:
            result = run_workload(workload, args.seed, seconds,
                                  bool(args.trace), host, manifest, args.out)
            print_result(result)
            all_correct = all_correct and result["correct"]
        return 0 if all_correct else 1
    except BenchError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
