#!/usr/bin/env python3
"""Steadiness check: runs one workload several times, each with another
seed, and prints each metric's median, quartiles and spread.

    python3 perfbench/steady.py --workload query [--runs 10] [--first-seed 1]

The spread is (Q3 - Q1) / median, with the quartiles of Python's
statistics.quantiles(values, n=4). A metric whose spread exceeds its
bound in BENCHMARK.json is flagged, and so is one whose spread is over a
third of the bound (the margin the bounds were set with). Run from the
root of a checkout, like run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values, shares = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"], stdout=subprocess.PIPE)
        lines = out.stdout.decode().strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"steady: run with seed {seed} failed (exit {out.returncode})")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"steady: run with seed {seed} reported incorrect output")
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append((m["value"], m["unit"]))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)

    print(f"workload {args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, failed share {sorted(set(shares))}")
    print(f"{'metric':34} {'unit':9} {'median':>12} {'Q1':>12} {'Q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name, vals in values.items():
        v = [x for x, _ in vals]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf") if q3 != q1 else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "OVER BOUND" if spread > bound else (
                "over bound/3" if spread > bound / 3 else "")
        print(f"{name:34} {vals[0][1]:9} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:7.3f} {bound if bound is not None else '-':>6} {flag}")


if __name__ == "__main__":
    main()
