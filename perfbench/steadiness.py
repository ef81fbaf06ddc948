#!/usr/bin/env python3
"""Runs every workload repeatedly and prints each metric's spread.

    python3 perfbench/steadiness.py [--runs 10]

Run from the root of a checkout. Every workload in BENCHMARK.json runs
untraced for run_seconds; run i uses seed i + 1, and the order of the
workloads alternates between runs (forward, then reversed), so drift on the
host does not always land on the same workload. A run that exits non-zero or
whose checks fail is reported and left out of the figures. For each workload
and metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile spread as a
share of the median, next to the metric's bound in BENCHMARK.json. It also
prints the failed share of operations, which must be the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    failed_shares = {w: [] for w in workloads}
    skipped = {w: 0 for w in workloads}
    for i in range(args.runs):
        seed = i + 1
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{w} seed {seed}: no result (exit {proc.returncode})")
                skipped[w] += 1
                continue
            if not result["correct"] or proc.returncode != 0:
                print(f"{w} seed {seed}: checks failed (exit {proc.returncode})")
                for line in lines:
                    if "CHECK FAILED" in line:
                        print("  " + line)
                skipped[w] += 1
                continue
            failed_shares[w].append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            summary = " ".join(f"{k}={v['value']:.6g}"
                               for k, v in result["metrics"].items())
            print(f"{w} seed {seed}: {summary}", flush=True)

    for w in workloads:
        shares = sorted(set(failed_shares[w]))
        print(f"\n== {w}: {len(failed_shares[w])} runs, {skipped[w]} skipped, "
              f"failed share "
              f"{shares if len(shares) > 1 else shares[0] if shares else '-'}")
        print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values[w].items():
            median = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / abs(median) if median else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print(f"{name:32} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
