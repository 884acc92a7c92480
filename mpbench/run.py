#!/usr/bin/env python3
"""Repository benchmark: builds mpbench from source and runs one workload.

    python3 mpbench/run.py --workload stream|fleet256|chaos50 \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout. The first run configures and builds a
Release tree under .bench_build/mpbench (the simulator libraries from src/
plus the harness in mpbench/src); later runs only re-check the build.
The last line of standard output is the result JSON:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 1 the span file goes to .bench_build/spans/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "mpbench")
WORKLOADS = ("stream", "fleet256", "chaos50")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"mpbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found at {os.path.join(ROOT, 'src')}")
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    log = sys.stderr
    if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(BUILD, ignore_errors=True)
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "mpbench")


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(result, dict)
        and set(result) == RESULT_KEYS
        and isinstance(result["correct"], bool)
        and isinstance(result["attempted"], int)
        and isinstance(result["failed"], int)
        and result["attempted"] >= 1
        and isinstance(result["metrics"], dict)
    )


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines or not valid_result(lines[-1]):
        sys.stdout.write(proc.stdout)
        fail(f"no result line (exit code {proc.returncode})")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
