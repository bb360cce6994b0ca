#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workload W ...]

Runs each workload --runs times through perfbench/run.py, each with another
seed, and prints per end-to-end metric the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and their distance as a share
of the median. The suggested bound is three times that spread (so a bound
holds the spread to a third of itself), at least 0.05 and at most 0.25;
setup_s, which is one cold set-up per run, gets the largest bound. Also
prints each workload's failed/attempted share, which must be the same in
every run. Run from the root of a nashlb checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    suggested = {}
    for name in names:
        results = [run_once(name, args.first_seed + r, args.seconds)
                   for r in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{name}: correct={correct} failed shares={sorted(shares)}")
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[metric] / 3 else "  <-- above bound/3"
            print(f"  {metric:16s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.4f}  bound {bounds[metric]}{flag}")
            suggested[metric] = max(suggested.get(metric, 0.0), spread)
    print("suggested bounds (3 x worst spread, within [0.05, 0.25]):")
    for metric, spread in suggested.items():
        bound = 0.25 if metric == "setup_s" else min(0.25, max(0.05, 3 * spread))
        print(f"  {metric}: {bound:.2f}")


if __name__ == "__main__":
    main()
