#!/usr/bin/env python3
"""Builds and runs the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. The first form builds the benchmark binary
(release, offline) into $CARGO_TARGET_DIR (default .bench_build), runs one
workload in its own process and passes its output through: the last
stdout line is the JSON result. `--workload all` runs every workload
untraced and traced, each in its own process, and prints the end-to-end
metrics and the per-layer table. The exit code is nonzero when the build,
a run, or an output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["baseline-replay", "hosts32-ssd-writes", "fleet1k-shard-outage"]

# A run must end within 180 s; leave room for the build check and clean-up.
RUN_TIMEOUT_S = 170


def build(root, target):
    """Builds the benchmark binary; returns its path, or None on failure."""
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def run_one(binary, work, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def table(workload, result):
    print(f"# {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>18.6g} {m['unit']}")


def run_all(binary, work, seed, seconds):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_one(binary, work, workload, seed, seconds, trace)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                ok = False
                print(f"# {workload} (trace {trace}) failed", file=sys.stderr)
                continue
            for line in lines[:-1]:
                print(line)
            table(workload, json.loads(lines[-1]))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.abspath(
        os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(root, target)
    if binary is None:
        return 2
    work = os.path.join(target, "perfbench")
    os.makedirs(work, exist_ok=True)
    try:
        if args.workload == "all":
            return run_all(binary, work, args.seed, args.seconds)
        code, out = run_one(binary, work, args.workload, args.seed,
                            args.seconds, args.trace)
        sys.stdout.write(out)
        return code
    finally:
        # Spans stay in `work`; per-run scratch directories do not.
        for entry in os.listdir(work):
            path = os.path.join(work, entry)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
