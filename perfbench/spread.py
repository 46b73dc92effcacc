#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload several times, each with another seed, and prints
per metric the median, the quartiles (statistics.quantiles, n=4) and
the interquartile distance as a share of the median, next to the
metric's bound from BENCHMARK.json. A metric is steady when that share
stays below a third of its bound. Run from the repository root:

    python3 perfbench/spread.py --workload crawl-wire --runs 10
    python3 perfbench/spread.py --workload crawl-sim --runs 5 --first-seed 100
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    walls = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        start = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        walls.append(time.time() - start)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {lines[-1][:200]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s wall", file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
    worst = 0.0
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        share = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            ratio = share / bound
            if name != "setup_s":
                worst = max(worst, ratio)
            verdict = "steady" if ratio < 1 / 3 else ("within bound" if ratio <= 1 else "TOO WIDE")
        print(f"  {name:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"iqr/median {share:7.4f}  bound {bound}  {verdict}")
        print("      runs: " + " ".join(f"{x:.5g}" for x in xs))
    print(f"  worst spread ÷ bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
