#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 0 1 2 ...]
                                [--seconds S] [--trace 0|1]

For every end-to-end metric (or per-layer metric with --trace 1) it prints the
median over the seeds and the distance between the first and third quartiles
as a share of the median, next to the metric's bound from BENCHMARK.json. A
steady benchmark keeps every spread but setup_s's below a third of its bound.
Defaults: every workload, the tuning seeds in perfbench/seeds.json, and the
run length from BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(os.path.join(ROOT, path)) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 + proc.stdout)
    return json.loads(lines[-1])


def main():
    bench = load("BENCHMARK.json")
    seeds = load("perfbench/seeds.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=seeds["tuning"])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end" if args.trace == 0 else "per_layer"]}

    steady = True
    for workload in args.workload:
        values = {}
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: outputs not correct")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True)
        print(f"\n{workload}: {len(args.seeds)} seeds")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                ok = share < bound / 3
                steady &= ok
                mark = "ok" if ok else "SPREAD"
            print(f"  {name:32s} median {med:14.6g}  spread {share:7.2%}"
                  f"  bound {bound if bound is not None else '-'}  {mark}")
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
