#!/usr/bin/env python3
"""Build and run the lapis benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cold-analyze, release-stream, fleet-mixed, or all (each in turn,
in a fresh process). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.

This wrapper builds bin/lapis.exe and perfbench/bench.exe into
.bench_build, runs bench.exe in its own process group under a wall
limit, and owns the clean-up: on exit, on failure, on a stall and on
SIGINT/SIGTERM it stops every process of the group and removes the
run's temporary directory. A process still alive after bench.exe
exited fails the run.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["cold-analyze", "release-stream", "fleet-mixed"]
WALL_LIMIT_S = 170.0
BUILD_DIR = ".bench_build"
WORK_ROOT = ".bench_work"


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "--display=quiet",
           "./bin/lapis.exe", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=800)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    exe = os.path.join(BUILD_DIR, "default", "bin", "lapis.exe")
    bench = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    if done.returncode != 0 or not (os.path.exists(exe) and os.path.exists(bench)):
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.abspath(exe), os.path.abspath(bench)


def group_members(pgid):
    """Live (non-zombie) processes of the process group."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # fields after the parenthesised command: state ppid pgrp ...
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def kill_group(pgid):
    """SIGKILL every live member of the group and wait until none is
    left; True if there was one."""
    found = False
    while True:
        members = group_members(pgid)
        if not members:
            return found
        found = True
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.02)


def failed_result(reason):
    print(f"run.py: {reason}", file=sys.stderr)
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_one(exes, workload, seed, seconds, trace, extra):
    lapis, bench = exes
    work = os.path.abspath(os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}"))
    os.makedirs(work, exist_ok=True)
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--lapis", lapis, "--work", work] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    pgid = proc.pid
    interrupted = []

    def on_signal(signum, _frame):
        # bench.exe stops its children and removes its files on SIGTERM
        interrupted.append((signum, time.monotonic()))
        try:
            os.killpg(pgid, signal.SIGTERM)
        except ProcessLookupError:
            pass

    old = {s: signal.signal(s, on_signal) for s in (signal.SIGINT, signal.SIGTERM)}
    deadline = time.monotonic() + WALL_LIMIT_S
    stalled = False
    try:
        while True:
            try:
                out, _ = proc.communicate(timeout=0.25)
                break
            except subprocess.TimeoutExpired:
                now = time.monotonic()
                late_stop = interrupted and now > interrupted[0][1] + 10.0
                if now > deadline or late_stop:
                    stalled = not interrupted
                    kill_group(pgid)
        leftover = kill_group(pgid)
    finally:
        for s, h in old.items():
            signal.signal(s, h)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    if interrupted:
        sys.exit(128 + interrupted[0][0])
    if stalled:
        return failed_result(f"{workload}: stalled past the {WALL_LIMIT_S:.0f} s wall limit"), 1
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return failed_result(f"{workload}: bench.exe printed no result (exit {proc.returncode})"), 1
    code = proc.returncode
    if leftover:
        print("run.py: a benchmark child outlived bench.exe", file=sys.stderr)
        result["correct"] = False
        result["failed"] += 1
        code = code or 1
    return result, code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full",
                    help="tiny: small inputs, for the benchmark's own tests")
    ap.add_argument("--plant", choices=["wrong-answer", "kill-shard"],
                    help="inject a fault (the benchmark's own tests)")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    extra = ["--scale", args.scale] + (["--plant", args.plant] if args.plant else [])
    exes = build()
    if exes is None:
        sys.exit(2)
    if args.workload != "all":
        result, code = run_one(exes, args.workload, args.seed, args.seconds, args.trace, extra)
        print(json.dumps(result))
        sys.exit(code)
    # every workload in turn; the last line merges them as workload/metric
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        result, code = run_one(exes, w, args.seed, args.seconds, args.trace, extra)
        print(f"# {w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"#   {name:<34} {m['value']:>16.6f} {m['unit']}")
            merged["metrics"][f"{w}/{name}"] = m
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        worst = worst or code
    print(json.dumps(merged))
    sys.exit(worst)


if __name__ == "__main__":
    main()
