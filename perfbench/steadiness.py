#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/steadiness.py --workload serve_hourly_7d \
        --seeds 1-10 [--trace 0] [--out results.json]

For every metric: the median over the runs and the spread, which is the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. Each run's JSON result, with the run's
"#" comment lines (per-rep times), is kept in --out.
The spread of an end-to-end metric must stay under its bound in
BENCHMARK.json; under a third of it is the target.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        wall = time.monotonic() - start
        last = proc.stdout.rstrip("\n").split("\n")[-1]
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            result = {"correct": False, "metrics": {}}
        result["seed"], result["wall_s"] = seed, wall
        result["notes"] = [line for line in proc.stdout.split("\n")
                           if line.startswith("#")]
        runs.append(result)
        print(f"seed {seed}: exit {proc.returncode}, correct "
              f"{result.get('correct')}, {wall:.1f} s", flush=True)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    names = list(runs[0]["metrics"])
    print(f"\n{args.workload} trace={args.trace}: {len(runs)} runs")
    print(f"{'metric':32} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        third = f"{bound / 3:.3f}" if bound is not None else "-"
        print(f"{name:32} {med:14.6g} {spread:8.3f} {third:>8}")


if __name__ == "__main__":
    main()
