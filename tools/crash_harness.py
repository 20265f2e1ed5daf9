#!/usr/bin/env python3
"""Kill-and-recover harness: prove checkpoint/restore survives real crashes.

Drives the `long_run` example (examples/long_run.cpp) through the full
crash-recovery protocol and asserts the one property that matters: the
payload digest of an interrupted-then-resumed chain is IDENTICAL to the
digest of the same run executed uninterrupted.

Stages (all run by default):

  kill      SIGKILL the run at a randomized wall-clock offset, resume with
            --resume=auto, repeat until the chain completes; the final
            LONGRUN digest must equal the uninterrupted golden digest.
  graceful  SIGTERM the run; it must stop at a round boundary with exit
            status 3 and a LONGRUN-INTERRUPTED line, then resume to the
            golden digest.
  corrupt   Bit-flip the newest ring entry between kill and resume; the
            run must fall back (older ring entry, or a fresh start when
            nothing valid remains) and STILL reach the golden digest.

Usage:
    crash_harness.py --binary build/examples/long_run [options]
    crash_harness.py --self-test

Options mirror long_run's: --n, --rounds, --seed, --threads, --kernel,
--flip-at pick the workload; --checkpoint-every, --kills, --kill-min/max,
--random-seed shape the crash schedule. --stage kill|graceful|corrupt
runs one stage. The run must be long enough in wall-clock terms for a
kill to land mid-run; the harness warns when every kill missed.

--self-test exercises the harness logic against a built-in Python stub
child (no C++ binary needed), so CI can vet the harness itself cheaply.

Exit status: 0 = all stages passed, 1 = digest mismatch or protocol
violation, 2 = bad input.
"""

import argparse
import glob
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time

RESULT_PREFIX = "LONGRUN "
INTERRUPTED_PREFIX = "LONGRUN-INTERRUPTED"
# How long a catchable signal waits for the child to install its handler
# before it is sent anyway (a child that never catches it then fails).
HANDLER_WAIT_S = 10.0


class HarnessError(Exception):
    """Bad input or a child that violated the output protocol."""


# ---------------------------------------------------------------------------
# Child-process protocol


def parse_result(stdout):
    """The last LONGRUN line of a completed run, as a dict (digest, reason,
    ticks); None when the run never printed one (crashed or interrupted)."""
    result = None
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith(RESULT_PREFIX):
            try:
                result = json.loads(line[len(RESULT_PREFIX):])
            except json.JSONDecodeError as err:
                raise HarnessError(f"malformed LONGRUN line: {line!r}: {err}")
    return result


def was_interrupted(stdout):
    return any(
        line.strip().startswith(INTERRUPTED_PREFIX)
        for line in stdout.splitlines()
    )


def catches(pid, signum):
    """True once process `pid` has a handler for `signum` (the SigCgt mask
    of /proc/<pid>/status); None when /proc cannot tell."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("SigCgt:"):
                    return bool(int(line.split()[1], 16) >> (signum - 1) & 1)
    except (OSError, ValueError):
        pass
    return None


def run_child(cmd, kill_after=None, kill_signal=signal.SIGKILL, timeout=600):
    """Runs `cmd`; when kill_after is set, delivers kill_signal after that
    many seconds (no-op if the child finished first). A catchable signal's
    delay counts from the moment the child has installed its handler (up to
    HANDLER_WAIT_S after the start), so a slow start-up cannot turn a
    graceful stop into a kill. Returns (returncode, stdout, stderr, killed)
    with killed = the signal went out while the child was still alive."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    state = {"killed": False}
    done = threading.Event()
    sender = None
    if kill_after is not None:

        def fire():
            if kill_signal != signal.SIGKILL:
                deadline = time.monotonic() + HANDLER_WAIT_S
                while (catches(proc.pid, kill_signal) is False
                       and time.monotonic() < deadline
                       and not done.wait(0.001)):
                    pass
            if done.wait(kill_after) or proc.poll() is not None:
                return
            state["killed"] = True
            try:
                proc.send_signal(kill_signal)
            except ProcessLookupError:
                state["killed"] = False

        sender = threading.Thread(target=fire, daemon=True)
        sender.start()
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    finally:
        done.set()
        if sender is not None:
            sender.join()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, stdout, stderr, state["killed"]


# ---------------------------------------------------------------------------
# Stages


def golden_digest(binary_cmd, timeout):
    """One uninterrupted run (no checkpointing at all): the reference."""
    rc, stdout, stderr, _ = run_child(binary_cmd, timeout=timeout)
    result = parse_result(stdout)
    if rc != 0 or result is None:
        raise HarnessError(
            f"uninterrupted run failed (exit {rc}): {stderr.strip()[-500:]}"
        )
    print(f"golden digest {result['digest']} ({result['ticks']} ticks)")
    return result["digest"]


def checkpoint_cmd(binary_cmd, ring_base, every, resume):
    cmd = list(binary_cmd) + [
        f"--checkpoint-out={ring_base}",
        f"--checkpoint-every={every}",
    ]
    if resume:
        cmd.append("--resume=auto")
    return cmd


def newest_ring_entry(ring_base):
    entries = glob.glob(f"{ring_base}.*.snap")
    return max(entries, key=os.path.getmtime) if entries else None


def flip_byte(path, rng):
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    if not data:
        raise HarnessError(f"{path}: empty snapshot")
    index = rng.randrange(len(data))
    data[index] ^= 1 << rng.randrange(8)
    with open(path, "wb") as fh:
        fh.write(data)
    return index


def stage_kill(binary_cmd, golden, args, rng, workdir, corrupt=False):
    """SIGKILL at random offsets until the chain completes; the final digest
    must equal `golden`. With corrupt=True, a ring entry is bit-flipped
    between a kill and the next resume (the fallback path)."""
    name = "corrupt" if corrupt else "kill"
    ring = os.path.join(workdir, f"{name}-ring")
    kills = corruptions = 0
    for attempt in range(args.max_attempts):
        cmd = checkpoint_cmd(
            binary_cmd, ring, args.checkpoint_every, resume=attempt > 0
        )
        delay = rng.uniform(args.kill_min, args.kill_max)
        rc, stdout, stderr, killed = run_child(
            cmd, kill_after=delay, timeout=args.timeout
        )
        if killed:
            kills += 1
            print(f"  [{name}] attempt {attempt}: killed at ~{delay:.2f}s")
            if corrupt:
                entry = newest_ring_entry(ring)
                if entry is not None:
                    where = flip_byte(entry, rng)
                    corruptions += 1
                    print(
                        f"  [{name}] flipped byte {where} of "
                        f"{os.path.basename(entry)}"
                    )
            if kills < args.kills:
                continue
            # Enough kills: let the final attempt run to completion.
            rc, stdout, stderr, _ = run_child(
                checkpoint_cmd(
                    binary_cmd, ring, args.checkpoint_every, resume=True
                ),
                timeout=args.timeout,
            )
        result = parse_result(stdout)
        if rc != 0 or result is None:
            raise HarnessError(
                f"[{name}] completed child failed (exit {rc}): "
                f"{stderr.strip()[-500:]}"
            )
        if result["digest"] != golden:
            print(
                f"FAIL [{name}]: digest {result['digest']} != golden "
                f"{golden} after {kills} kill(s)",
                file=sys.stderr,
            )
            return False
        if kills == 0:
            print(
                f"  [{name}] warning: the run completed before any kill "
                f"landed — lengthen --rounds or shrink --kill-min",
                file=sys.stderr,
            )
        extra = f", {corruptions} corruption(s)" if corrupt else ""
        print(
            f"ok [{name}]: digest {result['digest']} == golden after "
            f"{kills} kill(s){extra}"
        )
        return True
    print(
        f"FAIL [{name}]: no completion within {args.max_attempts} attempts",
        file=sys.stderr,
    )
    return False


def stage_graceful(binary_cmd, golden, args, rng, workdir):
    """SIGTERM must stop at a round boundary (exit 3, LONGRUN-INTERRUPTED),
    and the resumed run must reach the golden digest."""
    ring = os.path.join(workdir, "graceful-ring")
    delay = rng.uniform(args.kill_min, args.kill_max)
    rc, stdout, stderr, killed = run_child(
        checkpoint_cmd(binary_cmd, ring, args.checkpoint_every, resume=False),
        kill_after=delay,
        kill_signal=signal.SIGTERM,
        timeout=args.timeout,
    )
    if not killed:
        print(
            "  [graceful] warning: run completed before SIGTERM landed — "
            "treating as vacuous pass",
            file=sys.stderr,
        )
        return True
    if rc != 3 or not was_interrupted(stdout):
        print(
            f"FAIL [graceful]: expected exit 3 + {INTERRUPTED_PREFIX}, got "
            f"exit {rc}: {stderr.strip()[-500:]}",
            file=sys.stderr,
        )
        return False
    print(f"  [graceful] SIGTERM at ~{delay:.2f}s: clean interrupt (exit 3)")
    rc, stdout, stderr, _ = run_child(
        checkpoint_cmd(binary_cmd, ring, args.checkpoint_every, resume=True),
        timeout=args.timeout,
    )
    result = parse_result(stdout)
    if rc != 0 or result is None:
        raise HarnessError(
            f"[graceful] resumed child failed (exit {rc}): "
            f"{stderr.strip()[-500:]}"
        )
    if result["digest"] != golden:
        print(
            f"FAIL [graceful]: digest {result['digest']} != golden {golden}",
            file=sys.stderr,
        )
        return False
    print(f"ok [graceful]: digest {result['digest']} == golden")
    return True


def run_stages(args):
    binary_cmd = [
        args.binary,
        f"--n={args.n}",
        f"--rounds={args.rounds}",
        f"--run-seed={args.seed}",
        f"--threads={args.threads}",
        f"--kernel={args.kernel}",
    ]
    if args.flip_at:
        binary_cmd.append(f"--flip-at={args.flip_at}")
    if not os.path.exists(args.binary):
        raise HarnessError(f"{args.binary}: no such binary (build long_run)")
    rng = random.Random(args.random_seed)
    stages = (
        [args.stage] if args.stage else ["kill", "graceful", "corrupt"]
    )

    def run_in(workdir):
        golden = golden_digest(binary_cmd, args.timeout)
        ok = True
        for stage in stages:
            if stage == "kill":
                ok &= stage_kill(binary_cmd, golden, args, rng, workdir)
            elif stage == "graceful":
                ok &= stage_graceful(binary_cmd, golden, args, rng, workdir)
            elif stage == "corrupt":
                ok &= stage_kill(
                    binary_cmd, golden, args, rng, workdir, corrupt=True
                )
        return 0 if ok else 1

    if args.workdir:
        # Persistent: CI uploads the snapshot ring of a failed chain.
        os.makedirs(args.workdir, exist_ok=True)
        return run_in(args.workdir)
    with tempfile.TemporaryDirectory(prefix="crash_harness.") as workdir:
        return run_in(workdir)


# ---------------------------------------------------------------------------
# Self-test: the harness logic against a built-in stub child.
#
# The stub emulates long_run's protocol without any C++: it "runs" rounds
# (a short sleep each), checkpoints its round counter to a checksummed
# state file every K rounds, resumes from it under --resume=auto (falling
# back to a fresh start when the file is corrupt), prints a LONGRUN line
# whose digest depends only on (seed, rounds) — exactly the determinism
# contract — and handles SIGTERM as a clean interrupt (exit 3).

STUB_SOURCE = r'''
import hashlib, os, signal, sys, time

n = rounds = seed = every = 0
ring = ""
resume = False
for arg in sys.argv[1:]:
    if arg.startswith("--n="): n = int(arg[4:])
    elif arg.startswith("--rounds="): rounds = int(arg[9:])
    elif arg.startswith("--run-seed="): seed = int(arg[11:])
    elif arg.startswith("--checkpoint-out="): ring = arg[17:]
    elif arg.startswith("--checkpoint-every="): every = int(arg[19:])
    elif arg == "--resume=auto": resume = True

interrupted = []
signal.signal(signal.SIGTERM, lambda *_: interrupted.append(True))

path = ring + ".0.snap" if ring else ""

def save(r):
    if not path: return
    body = f"{seed}:{r}"
    line = body + ":" + hashlib.md5(body.encode()).hexdigest()
    with open(path + ".tmp", "w") as fh: fh.write(line)
    os.replace(path + ".tmp", path)

start = 0
if resume and path and os.path.exists(path):
    try:
        body, _, check = open(path).read().rpartition(":")
        s, r = (int(x) for x in body.split(":"))
        if hashlib.md5(body.encode()).hexdigest() == check and s == seed:
            start = r
        else:
            print("[corrupt snapshot skipped]", file=sys.stderr)
    except (ValueError, OSError):
        print("[corrupt snapshot skipped]", file=sys.stderr)

for r in range(start, rounds):
    if interrupted:
        save(r)
        print(f'LONGRUN-INTERRUPTED {{"ticks":{r}}}', flush=True)
        sys.exit(3)
    time.sleep(0.002)
    if every and (r + 1) % every == 0: save(r + 1)

digest = hashlib.md5(f"{seed}/{rounds}/{n}".encode()).hexdigest()[:16]
print(f'LONGRUN {{"digest":"0x{digest}","reason":"round-limit",'
      f'"ticks":{rounds},"ones":{n//2}}}', flush=True)
'''


def make_stub(workdir):
    stub = os.path.join(workdir, "stub_long_run.py")
    with open(stub, "w", encoding="utf-8") as fh:
        fh.write(STUB_SOURCE)
    runner = os.path.join(workdir, "stub_long_run")
    with open(runner, "w", encoding="utf-8") as fh:
        fh.write(f'#!/bin/sh\nexec "{sys.executable}" "{stub}" "$@"\n')
    os.chmod(runner, 0o755)
    return runner


def _selftest_args(binary, workdir):
    return argparse.Namespace(
        binary=binary,
        n=4096,
        rounds=400,
        seed=11,
        threads=1,
        kernel="legacy",
        flip_at=0,
        checkpoint_every=10,
        kills=2,
        kill_min=0.05,
        kill_max=0.25,
        max_attempts=30,
        timeout=60,
        random_seed=1234,
        stage=None,
        workdir=workdir,
    )


def cmd_selftest():
    failures = []

    def case(name, fn):
        try:
            fn()
        except (AssertionError, HarnessError) as err:
            failures.append(name)
            print(f"  FAIL {name}: {err}")
        else:
            print(f"  ok   {name}")

    def test_parse_result():
        out = 'noise\nLONGRUN {"digest":"0xab","reason":"round-limit","ticks":4}\n'
        assert parse_result(out)["digest"] == "0xab"
        assert parse_result("no result\n") is None
        assert was_interrupted('LONGRUN-INTERRUPTED {"ticks":3}\n')
        try:
            parse_result("LONGRUN {broken\n")
        except HarnessError:
            pass
        else:
            raise AssertionError("malformed LONGRUN must raise")

    def test_flip_byte_changes_file():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.snap")
            with open(path, "wb") as fh:
                fh.write(b"\x00" * 64)
            flip_byte(path, random.Random(7))
            with open(path, "rb") as fh:
                assert fh.read() != b"\x00" * 64, "flip must change a byte"

    def test_stub_chain_end_to_end():
        with tempfile.TemporaryDirectory() as tmp:
            args = _selftest_args(make_stub(tmp), tmp)
            assert run_stages(args) == 0, "stub chain must pass all stages"

    def test_digest_mismatch_detected():
        # A stub whose resume silently loses progress (digest depends on
        # rounds actually executed THIS process) must fail the kill stage.
        with tempfile.TemporaryDirectory() as tmp:
            runner = make_stub(tmp)
            broken = os.path.join(tmp, "stub_long_run.py")
            with open(broken, "r", encoding="utf-8") as fh:
                source = fh.read()
            source = source.replace('f"{seed}/{rounds}/{n}"', 'f"{seed}/{rounds - start}/{n}"')
            with open(broken, "w", encoding="utf-8") as fh:
                fh.write(source)
            args = _selftest_args(runner, tmp)
            args.stage = "kill"
            assert run_stages(args) == 1, (
                "a resume that loses progress must fail the digest assert"
            )

    print("crash_harness self-test:")
    for name, fn in [
        ("LONGRUN line parsing", test_parse_result),
        ("corruption flips a byte", test_flip_byte_changes_file),
        ("stub kill/graceful/corrupt chain passes", test_stub_chain_end_to_end),
        ("lost progress fails the digest assert", test_digest_mismatch_detected),
    ]:
        case(name, fn)
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
    parser.add_argument("--binary", help="path to the built long_run example")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--stage", choices=["kill", "graceful", "corrupt"])
    parser.add_argument("--n", type=int, default=1 << 18)
    parser.add_argument("--rounds", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--kernel", default="legacy")
    parser.add_argument("--flip-at", type=int, default=0)
    parser.add_argument("--checkpoint-every", type=int, default=25)
    parser.add_argument(
        "--kills", type=int, default=2,
        help="SIGKILLs to land before letting the chain finish (default 2)",
    )
    parser.add_argument("--kill-min", type=float, default=0.3)
    parser.add_argument("--kill-max", type=float, default=1.5)
    parser.add_argument("--max-attempts", type=int, default=30)
    parser.add_argument("--timeout", type=float, default=600)
    parser.add_argument(
        "--random-seed", type=int, default=0,
        help="seed for the kill/corruption schedule (reproducible chaos)",
    )
    parser.add_argument(
        "--workdir", default=None,
        help="keep snapshot rings here instead of a temp dir (CI artifacts)",
    )
    args = parser.parse_args()

    try:
        if args.self_test:
            return cmd_selftest()
        if not args.binary:
            raise HarnessError("--binary is required (or use --self-test)")
        return run_stages(args)
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
