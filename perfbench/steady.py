#!/usr/bin/env python3
"""Steadiness check for the paging benchmark.

Runs every workload (or the ones named) as two interleaved sets of runs —
A, B, A, B, ... each with its own seed — and prints, per set, every metric's
median and quartiles, its spread (interquartile distance over the median),
and whether the two sets agree within the bounds in BENCHMARK.json: each
spread within the metric's bound (setup_s exempt) and set B's median no worse
than set A's by more than the bound.

    python3 perfbench/steady.py --runs 5 --seconds 30 [--trace 1] [workload ...]

Run from the repository root. Beside every run it times a fixed CPU loop
(host.spin_ms). That probe only explains a slow set: it never scales, drops
or re-runs a measurement.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def spin_ms():
    start = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i
    return (time.perf_counter() - start) * 1e3


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed accesses")
    return {name: m["value"] for name, m in result["metrics"].items()}


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    all_ok = True
    seed = args.first_seed
    for workload in workloads:
        sets = {"A": [], "B": []}
        spins = {"A": [], "B": []}
        for _ in range(args.runs):
            for name in ("A", "B"):
                spins[name].append(spin_ms())
                sets[name].append(run_once(workload, seed, seconds, args.trace))
                print(f"  {workload} set {name} seed {seed} host.spin_ms {spins[name][-1]:.1f} "
                      + " ".join(f"{k}={v:.4g}" for k, v in sets[name][-1].items()),
                      flush=True)
                seed += 1
        print(f"\n== {workload}: {args.runs} runs per set, {seconds} s each")
        for name in ("A", "B"):
            med, q1, q3, spread = describe(spins[name])
            print(f"  set {name} host.spin_ms median {med:.1f} (q1 {q1:.1f}, q3 {q3:.1f})")
        print(f"  {'metric':28} {'set':3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7}  verdict")
        for metric in sets["A"][0]:
            stats = {}
            for name in ("A", "B"):
                stats[name] = describe([run[metric] for run in sets[name]])
            pooled = describe([run[metric] for name in ("A", "B") for run in sets[name]])
            verdict = ""
            if metric in bounds and not args.trace:
                bound = bounds[metric]["bound"]
                sign = 1 if bounds[metric]["better"] == "lower" else -1
                spread_ok = metric == "setup_s" or all(
                    stats[n][3] <= bound for n in ("A", "B"))
                drift = sign * (stats["B"][0] - stats["A"][0]) / stats["A"][0]
                ok = spread_ok and drift <= bound
                all_ok = all_ok and ok
                verdict = (f"{'ok' if ok else 'FAIL'} (bound {bound}, B vs A {drift:+.3f}, "
                           f"all-runs spread {pooled[3]:.3f})")
            for name in ("A", "B"):
                med, q1, q3, spread = stats[name]
                print(f"  {metric:28} {name:3} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:7.3f}"
                      f"  {verdict if name == 'B' else ''}")
    print("\nsteady" if all_ok else "\nNOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
