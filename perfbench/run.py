#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The driver is built with CMake under
.bench_build/ (the build is not part of any timing). With --trace 0 the last
line of standard output is the end-to-end result; with --trace 1 the
workload runs twice, untraced and then traced, and the last line holds the
per-layer metrics plus the tracing overhead between the two runs. Spans and
the per-layer self-time summary go to .bench_results/.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
# Two driver runs (untraced, traced) must end well within three minutes.
RUN_TIMEOUT_S = 80


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            return False
    return True


def run_driver(args, trace):
    """Runs the driver once; returns (exit code, parsed result or None)."""
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"driver timed out after {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1, None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        print(lines[-1])
        result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    code, result = run_driver(args, trace=False)
    if result is None:
        return code or 1
    if args.trace:
        plain, plain_code = result, code
        code, result = run_driver(args, trace=True)
        if result is None:
            return code or 1
        code = code or plain_code
        metrics = result["metrics"]
        base = plain["metrics"]["train_examples_per_s"]["value"]
        traced = metrics["trace.train_examples_per_s"]["value"]
        metrics["trace.overhead_train_pct"] = {
            "value": 100.0 * (base - traced) / base, "unit": "%"}
        base = plain["metrics"]["serve_p50_us"]["value"]
        traced = metrics["trace.serve_p50_us"]["value"]
        metrics["trace.overhead_serve_p50_pct"] = {
            "value": 100.0 * (traced - base) / base, "unit": "%"}
        result["correct"] = bool(result["correct"] and plain["correct"])
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
