#!/usr/bin/env python3
"""Build and run the gcol benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fem_mesh --seed 1 --seconds 20 --trace 0

Configures and builds the library plus the harness (Release) under
`.bench_build/perfbench` in the repository root, runs the harness, and
re-prints its result so the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Exits non-zero, with
no result line, when the build or the run fails. See perfbench/NOTES.md.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "gcol_perfbench"
WORKLOADS = ("fem_mesh", "powerlaw_rmat", "batch_small")
# A run measures for --seconds, plus set-ups, probes and traced passes.
RUN_MARGIN_S = 120
MAX_SECONDS = 3600
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    # Build output goes to stderr so that stdout carries only the result.
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "gcol_perfbench",
                  "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        fail(f"--seed must be >= 0 and --seconds in 1..{MAX_SECONDS}")

    build()
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    timeout_s = 2 * args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout_s} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"harness exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail("harness printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
