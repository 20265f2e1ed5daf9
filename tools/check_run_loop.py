#!/usr/bin/env python3
"""Structural lint: run-loop concerns live in the RunDriver, nowhere else.

Usage:
    check_run_loop.py [--root DIR]
    check_run_loop.py --self-test

Since the unified run-loop refactor, stop-rule evaluation, per-round
flight-recorder emission, and recovery-segment bookkeeping are driver
concerns: engines are steppers and must not call `evaluate_stop()`,
`telemetry::record_round()`, or construct `RecoverySegment{...}` on their
own. This lint scans src/, bench/, and examples/ for those tokens and fails
on any call-site outside the allowlisted owners:

    src/engine/run_loop.*   -- the driver itself (all three tokens)
    src/engine/stopping.*   -- defines evaluate_stop and RecoverySegment
    src/faults/session.*    -- owns RecoverySegment lifecycle
    src/telemetry/          -- defines record_round (and its no-op stub)
    bench/perf_smoke.cc     -- record_round only: it steps engines directly
                               (no run loop), so it must emit rounds itself

Since the topology refactor, neighbor sampling is a Topology concern: every
stepper routes observation draws through Topology::sample_neighbors[_distinct]
(whose complete-graph branch IS the uniform path), so engine code must not
draw uniformly over the whole population (`next_below(n)` and friends) or
call the Floyd sampler directly. Those two tokens are scoped to src/engine/
only -- topology.h itself, the Markov/analysis layers, and benches' dual
walkers legitimately draw uniforms:

    src/engine/kernel/      -- both tokens: the bitslice kernel is complete-
                               graph-only by its eligibility rule, and its
                               per-lane draws go through the Floyd sampler

Since the sink-bundle refactor, run observation has one process-wide slot:
the telemetry::Sinks bundle behind SinkScope. A new global atomic pointer
(`std::atomic<T*> g_name`) would be a second, hand-wired slot beside it, so
the `global_slot` token allows exactly two owners:

    src/telemetry/telemetry.cc  -- the sink bundle
    src/snapshot/checkpoint.cc  -- the checkpointer

Comments do not count as call-sites. Tests are out of scope: they exercise
the primitives deliberately. Exit status 0 = clean, 1 = violation,
2 = bad input.
"""

import argparse
import os
import re
import sys
import tempfile

SCAN_DIRS = ("src", "bench", "examples")
EXTENSIONS = (".h", ".cc")

TOKENS = {
    "evaluate_stop": re.compile(r"\bevaluate_stop\s*\("),
    "record_round": re.compile(r"\brecord_round\s*\("),
    "RecoverySegment": re.compile(r"\bRecoverySegment\s*\{"),
    # A uniform draw over the whole population: next_below(n), next_below(n_),
    # next_below(population.n_), ... -- the member chain before the final n is
    # deliberate, the trailing \b deliberate too (next_below(non_source) must
    # NOT match: it is an agent pick, not an observation draw).
    "uniform_probe": re.compile(
        r"\bnext_below\s*\(\s*(?:\w+\s*(?:\.|->)\s*)*n_?\s*\)"
    ),
    # A direct Floyd call: distinct observation subsets must come from
    # Topology::sample_neighbors_distinct, which picks the right population
    # (all agents vs. a CSR row) per agent.
    "floyd_direct": re.compile(r"\bsampler\s*(?:\.|->)\s*sample(?:_batch)?\s*\("),
    # A process-wide pointer slot: std::atomic<T*> g_name. Atomics of
    # non-pointer types (epochs, flags) are not slots.
    "global_slot": re.compile(r"\bstd::atomic\s*<[^<>;]*\*\s*>\s*g_\w*"),
}

# Maps a token to the path prefixes it is checked under; tokens absent here
# are checked everywhere. The topology-seam tokens only police engine code:
# topology.h's own complete-graph branch, the Markov/analysis layers, and
# benches' coalescing-walk duals draw uniforms legitimately.
TOKEN_SCOPES = {
    "uniform_probe": ("src/engine/",),
    "floyd_direct": ("src/engine/",),
}

# Maps a path prefix (relative to the repo root, '/'-separated) to the set of
# tokens that may legitimately appear under it.
ALLOWLIST = (
    ("src/engine/run_loop.", {"evaluate_stop", "record_round",
                              "RecoverySegment"}),
    ("src/engine/stopping.", {"evaluate_stop", "RecoverySegment"}),
    ("src/faults/session.", {"RecoverySegment"}),
    ("src/telemetry/", {"record_round"}),
    ("bench/perf_smoke.cc", {"record_round"}),
    ("src/engine/kernel/", {"uniform_probe", "floyd_direct"}),
    ("src/telemetry/telemetry.cc", {"global_slot"}),
    ("src/snapshot/checkpoint.cc", {"global_slot"}),
)


def allowed_tokens(relpath):
    allowed = set()
    for prefix, tokens in ALLOWLIST:
        if relpath.startswith(prefix):
            allowed |= tokens
    return allowed


def in_scope(token, relpath):
    scopes = TOKEN_SCOPES.get(token)
    if scopes is None:
        return True
    return any(relpath.startswith(prefix) for prefix in scopes)


def strip_comments(text):
    """Blanks out // and /* */ comments, preserving line structure."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # string or char literal: copy verbatim, honor escapes.
            if c == "\\" and nxt:
                out.append(c)
                out.append(nxt)
                i += 2
                continue
            if (state == "string" and c == '"') or (
                state == "char" and c == "'"
            ):
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def scan_file(root, relpath):
    """Returns [(relpath, line_number, token)] violations in one file."""
    path = os.path.join(root, relpath)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise RuntimeError(f"{relpath}: cannot read: {err}") from err
    allowed = allowed_tokens(relpath)
    violations = []
    code = strip_comments(text)
    for line_number, line in enumerate(code.splitlines(), start=1):
        for token, pattern in TOKENS.items():
            if token in allowed or not in_scope(token, relpath):
                continue
            if pattern.search(line):
                violations.append((relpath, line_number, token))
    return violations


def scan_tree(root):
    """Returns all violations under the scan dirs, sorted by path."""
    violations = []
    for scan_dir in SCAN_DIRS:
        top = os.path.join(root, scan_dir)
        if not os.path.isdir(top):
            continue
        for dirpath, _dirnames, filenames in os.walk(top):
            for filename in sorted(filenames):
                if not filename.endswith(EXTENSIONS):
                    continue
                relpath = os.path.relpath(
                    os.path.join(dirpath, filename), root
                ).replace(os.sep, "/")
                violations.extend(scan_file(root, relpath))
    violations.sort()
    return violations


# ---------------------------------------------------------------------------
# Self-test


def _write(root, relpath, text):
    path = os.path.join(root, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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

    def test_clean_tree():
        with tempfile.TemporaryDirectory() as tmp:
            _write(tmp, "src/engine/foo.cc", "int step() { return 1; }\n")
            assert scan_tree(tmp) == [], "clean tree must have no violations"

    def test_engine_call_site_flagged():
        with tempfile.TemporaryDirectory() as tmp:
            _write(
                tmp,
                "src/engine/foo.cc",
                "void run() {\n  evaluate_stop(rule, config);\n}\n",
            )
            found = scan_tree(tmp)
            assert found == [("src/engine/foo.cc", 2, "evaluate_stop")], found

    def test_allowlisted_owner_passes():
        with tempfile.TemporaryDirectory() as tmp:
            _write(
                tmp,
                "src/engine/run_loop.h",
                "auto r = evaluate_stop(rule, c);\n"
                "telemetry::record_round(0, c.ones, c.n);\n",
            )
            _write(tmp, "src/faults/session.cc",
                   "push_back(RecoverySegment{0, 0, false});\n")
            assert scan_tree(tmp) == [], "allowlisted owners must pass"

    def test_allowlist_is_per_token():
        with tempfile.TemporaryDirectory() as tmp:
            # session.* may build RecoverySegment but not evaluate stops.
            _write(tmp, "src/faults/session.cc",
                   "auto r = evaluate_stop(rule, c);\n")
            found = scan_tree(tmp)
            assert found == [("src/faults/session.cc", 1, "evaluate_stop")], (
                found
            )

    def test_comments_do_not_count():
        with tempfile.TemporaryDirectory() as tmp:
            _write(
                tmp,
                "src/engine/foo.h",
                "// The driver calls evaluate_stop() for us.\n"
                "/* record_round(r, ones, n) is emitted\n"
                "   by RecoverySegment{...} owners. */\n"
                "int x;\n",
            )
            assert scan_tree(tmp) == [], "comment mentions must not count"

    def test_string_literals_count_as_code():
        with tempfile.TemporaryDirectory() as tmp:
            # A '//' inside a string must not hide real code after it.
            _write(
                tmp,
                "src/engine/foo.cc",
                'const char* url = "http://x"; auto r = evaluate_stop(a, b);\n',
            )
            found = scan_tree(tmp)
            assert found == [("src/engine/foo.cc", 1, "evaluate_stop")], found

    def test_bench_record_round_allowed():
        with tempfile.TemporaryDirectory() as tmp:
            _write(tmp, "bench/perf_smoke.cc",
                   "telemetry::record_round(r, ones, n);\n")
            _write(tmp, "bench/other_bench.cc",
                   "telemetry::record_round(r, ones, n);\n")
            found = scan_tree(tmp)
            assert found == [("bench/other_bench.cc", 1, "record_round")], (
                found
            )

    def test_uniform_probe_flagged_in_engine():
        with tempfile.TemporaryDirectory() as tmp:
            _write(
                tmp,
                "src/engine/foo.cc",
                "auto a = rng.next_below(n);\n"
                "auto b = rng.next_below(n_);\n"
                "auto c = rng.next_below(population.n_);\n",
            )
            found = scan_tree(tmp)
            assert found == [
                ("src/engine/foo.cc", 1, "uniform_probe"),
                ("src/engine/foo.cc", 2, "uniform_probe"),
                ("src/engine/foo.cc", 3, "uniform_probe"),
            ], found

    def test_agent_picks_are_not_probes():
        with tempfile.TemporaryDirectory() as tmp:
            # Drawing WHICH agent activates (or a bounded index) is not an
            # observation; only whole-population draws are the seam's business.
            _write(
                tmp,
                "src/engine/foo.cc",
                "auto a = rng.next_below(non_source);\n"
                "auto b = rng.next_below(j + 1);\n"
                "topo.sample_neighbors(i, ell, rng, visit);\n",
            )
            assert scan_tree(tmp) == [], "agent picks and seam calls are clean"

    def test_floyd_direct_flagged_in_engine():
        with tempfile.TemporaryDirectory() as tmp:
            _write(
                tmp,
                "src/engine/foo.cc",
                "sampler.sample(n, ell, rng, visit);\n"
                "population.sampler->sample_batch(n, ell, rng, out);\n",
            )
            found = scan_tree(tmp)
            assert [v[2] for v in found] == ["floyd_direct", "floyd_direct"], (
                found
            )

    def test_topology_tokens_scoped_to_engine():
        with tempfile.TemporaryDirectory() as tmp:
            # topology.h's complete branch and a bench's dual walker both
            # draw uniforms; the tokens must not fire outside src/engine/.
            _write(tmp, "src/topology/topology.h",
                   "visit(rng.next_below(n_));\n")
            _write(tmp, "bench/bench_topology.cc",
                   "positions[w] = rng.next_below(n);\n"
                   "sampler.sample(n, k, rng, visit);\n")
            assert scan_tree(tmp) == [], "scoped tokens fire in engines only"

    def test_kernel_is_allowlisted():
        with tempfile.TemporaryDirectory() as tmp:
            _write(tmp, "src/engine/kernel/backend_impl.h",
                   "sampler.sample(64, k, aux, visit);\n"
                   "a.sampler->sample_batch(a.n, a.ell, view, sample);\n")
            assert scan_tree(tmp) == [], "kernel backends are allowlisted"

    def test_global_slot_flagged():
        with tempfile.TemporaryDirectory() as tmp:
            _write(tmp, "src/obs/progress.cc",
                   "std::atomic<ProgressBoard*> g_board{nullptr};\n"
                   "std::atomic<const Sinks *> g_other{&kNone};\n")
            found = scan_tree(tmp)
            assert found == [
                ("src/obs/progress.cc", 1, "global_slot"),
                ("src/obs/progress.cc", 2, "global_slot"),
            ], found

    def test_global_slot_owners_and_non_pointers_pass():
        with tempfile.TemporaryDirectory() as tmp:
            _write(tmp, "src/telemetry/telemetry.cc",
                   "std::atomic<const Sinks*> g_sinks{&kNoSinks};\n")
            _write(tmp, "src/snapshot/checkpoint.cc",
                   "std::atomic<Checkpointer*> g_checkpointer{nullptr};\n")
            _write(tmp, "src/telemetry/trace.cc",
                   "std::atomic<std::uint64_t> g_trace_epoch{0};\n"
                   "std::atomic<Lane*> head_{nullptr};\n")
            assert scan_tree(tmp) == [], "the two owners and non-slots pass"

    print("check_run_loop self-test:")
    case("clean tree passes", test_clean_tree)
    case("engine call-site is flagged", test_engine_call_site_flagged)
    case("allowlisted owners pass", test_allowlisted_owner_passes)
    case("allowlist is per-token", test_allowlist_is_per_token)
    case("comments do not count", test_comments_do_not_count)
    case("string literals stay code", test_string_literals_count_as_code)
    case("only perf_smoke may record rounds", test_bench_record_round_allowed)
    case("uniform probes flagged in engines", test_uniform_probe_flagged_in_engine)
    case("agent picks are not probes", test_agent_picks_are_not_probes)
    case("direct Floyd calls flagged in engines", test_floyd_direct_flagged_in_engine)
    case("topology tokens scoped to src/engine/", test_topology_tokens_scoped_to_engine)
    case("kernel backends allowlisted", test_kernel_is_allowlisted)
    case("global pointer slot is flagged", test_global_slot_flagged)
    case("slot owners and non-pointer atomics pass",
         test_global_slot_owners_and_non_pointers_pass)
    if failures:
        print(f"self-test: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("self-test: all cases passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root to scan (default: parent of tools/)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the built-in test cases and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not os.path.isdir(args.root):
        print(f"error: not a directory: {args.root}", file=sys.stderr)
        return 2

    try:
        violations = scan_tree(args.root)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if violations:
        print("run-loop lint: driver concerns leaked outside the RunDriver:")
        for relpath, line_number, token in violations:
            print(f"  {relpath}:{line_number}: {token}")
        print(
            f"{len(violations)} violation(s); route these through "
            "src/engine/run_loop.h or extend the allowlist deliberately.",
            file=sys.stderr,
        )
        return 1
    print("run-loop lint: clean (stop/trace/recovery stay in the driver)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
