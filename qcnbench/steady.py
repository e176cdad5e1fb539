#!/usr/bin/env python3
"""Steadiness report: runs one workload of the benchmark N times, with
seeds 1..N, and prints per end-to-end metric the median, the quartiles and
the spread (Q3 - Q1) / median, flagging any spread above the metric's bound
in BENCHMARK.json.

With --baseline DIR it compares instead: DIR is the root of another
checkout (the parent commit, say) holding the same qcnbench/. Each seed
runs there and here, alternating which side goes first, so both sides see
the same host state. It prints each side's median, the change, and in how
many pairs this tree read better, and flags a metric whose median got
worse than the baseline's by more than its bound.

Run from the repository root:

    python3 qcnbench/steady.py --workload search --runs 10
    python3 qcnbench/steady.py --workload search --runs 10 --baseline ../parent

Each run lasts BENCHMARK.json's run_seconds. Each tree builds into its own
.bench_build/. Quartiles are Python's statistics.quantiles(values, n=4).
Exits 1 when a run fails, or a spread exceeds its bound, or (with
--baseline) a median got worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench, root, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"{root}: run with seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{root}: run with seed {seed}: {result}")
    values = {k: m["value"] for k, m in result["metrics"].items()}
    print(f"{root} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in values.items()),
          flush=True)
    return values


def spread(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report_spreads(title, values, bounds):
    print(f"\n{title}")
    print(f"{'metric':<22} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
    bad = False
    for name, vals in values.items():
        med, q1, q3, s = spread(vals)
        bound = bounds[name]["bound"]
        flag = ""
        if s > bound:
            flag, bad = "  OVER BOUND", True
        elif s > bound / 3:
            flag = "  above bound/3"
        print(f"{name:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>8.3f} {bound:>6}{flag}")
    return bad


def report_change(values, base_values, bounds):
    print("\nchange against the baseline (positive = worse)")
    print(f"{'metric':<22} {'baseline':>12} {'this tree':>12} {'worse by':>9} {'bound':>6}"
          f" {'better in':>10}")
    bad = False
    for name, vals in values.items():
        sign = -1 if bounds[name]["better"] == "higher" else 1
        base, med = statistics.median(base_values[name]), statistics.median(vals)
        worse = sign * (med - base) / base if base else 0.0
        wins = sum(sign * (v - b) < 0 for v, b in zip(vals, base_values[name]))
        bound = bounds[name]["bound"]
        flag = ""
        if worse > bound:
            flag, bad = "  WORSE THAN BOUND", True
        print(f"{name:<22} {base:>12.6g} {med:>12.6g} {worse:>+9.3f} {bound:>6}"
              f" {f'{wins}/{len(vals)}':>10}{flag}")
    return bad


def collect(into, values):
    for name, v in values.items():
        into.setdefault(name, []).append(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--baseline", metavar="DIR", help="root of a checkout to compare against")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values, base_values = {}, {}
    for seed in range(1, args.runs + 1):
        sides = [(values, ".")]
        if args.baseline:
            sides.insert(seed % 2, (base_values, args.baseline))
        for into, root in sides:
            collect(into, run_once(bench, root, args.workload, seed))

    title = f"{args.workload}: {args.runs} runs of {bench['run_seconds']} s"
    bad = False
    if args.baseline:
        bad |= report_spreads(f"{title}, baseline {args.baseline}", base_values, bounds)
    bad |= report_spreads(title, values, bounds)
    if args.baseline:
        bad |= report_change(values, base_values, bounds)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
