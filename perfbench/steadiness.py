#!/usr/bin/env python3
"""Steadiness and exactness check of the benchmark declared in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10                # every workload, seeds 1..10
    python3 perfbench/steadiness.py --runs 5 --workloads ensemble
    python3 perfbench/steadiness.py --exact                  # traced runs, twice per workload

The first mode runs `--trace 0` once per seed and reports, per end-to-end
metric, the distance between the first and third quartile of the values
(statistics.quantiles, n=4) as a share of their median, next to the
metric's bound. The second runs `--trace 1` twice with the same seed and
checks that every per-layer metric in unit `count` or `ratio` repeats
exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print("\n".join(lines[:-1]))
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return result, wall


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def steadiness(bench, workloads, runs, first_seed, verbose):
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        walls = []
        for seed in range(first_seed, first_seed + runs):
            result, wall = run(bench["command"], workload, seed, bench["run_seconds"], 0)
            walls.append(wall)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {runs} runs, {statistics.median(walls):.1f} s median wall per run")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            median, share = spread(values[name])
            ratio = share / bound
            if name != "setup_s":
                worst = max(worst, ratio)
            flag = "ok" if ratio < 1 / 3 else ("WITHIN BOUND" if ratio <= 1 else "TOO NOISY")
            print(f"  {name:16} median {median:<14.6g} spread {share:7.2%} "
                  f"bound {bound:5.0%}  {flag}")
            if verbose:
                print("    " + " ".join(f"{v:.4g}" for v in values[name]))
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")


def exactness(bench, workloads, seed):
    exact_units = {"count", "ratio"}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    clean = True
    for workload in workloads:
        first, _ = run(bench["command"], workload, seed, bench["run_seconds"], 1)
        second, _ = run(bench["command"], workload, seed, bench["run_seconds"], 1)
        names = sorted(first["metrics"])
        if names != sorted(units):
            clean = False
            print(f"{workload}: printed per-layer metrics differ from BENCHMARK.json")
        differing = [n for n in names
                     if units.get(n) in exact_units
                     and first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        exact = [n for n in names if units.get(n) in exact_units]
        clean &= not differing
        print(f"{workload}: {len(exact) - len(differing)} of {len(exact)} exact metrics repeat"
              + (f"; differ: {', '.join(differing)}" if differing else "")
              + f"; overhead {first['metrics']['trace.overhead_ratio']['value']:.3f}x")
    if not clean:
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--exact", action="store_true")
    parser.add_argument("--verbose", action="store_true", help="print every run's values")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    if args.exact:
        exactness(bench, workloads, args.first_seed)
    else:
        steadiness(bench, workloads, args.runs, args.first_seed, args.verbose)


if __name__ == "__main__":
    main()
