#!/usr/bin/env python3
"""Runs the benchmark repeatedly and prints the spread of every metric.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads a,b] [--seconds S]

Run from the root of a source checkout. Each repetition runs every chosen
workload once with a fresh seed (first-seed + repetition); the workload
order alternates between forward and reverse on successive repetitions so
that no workload always runs first or last. For each workload and metric it
prints the median, the quartiles (statistics.quantiles, n=4), the minimum,
the maximum and the spread (q3 - q1) / median, beside the metric's bound in
BENCHMARK.json when it has one, and the share of failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    if proc.returncode != 0:
        sys.exit("run failed (exit %d): %s seed %d\n%s"
                 % (proc.returncode, workload, seed, proc.stdout[-2000:]))
    return json.loads(last)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    for rep in range(args.runs):
        order = workloads if rep % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.first_seed + rep
            results[w].append(run_once(spec, w, seed, args.seconds))
            print("done %s seed %d" % (w, seed), file=sys.stderr, flush=True)

    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("== %s (%d runs, failed share %s, all correct: %s)"
              % (w, len(runs), shares, all(r["correct"] for r in runs)))
        print("%-32s %12s %12s %12s %12s %12s %8s %6s"
              % ("metric", "median", "q1", "q3", "min", "max", "spread",
                 "bound"))
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric)
            print("%-32s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6s"
                  % (metric, med, q1, q3, min(values), max(values), spread,
                     "" if bound is None else "%.3g" % bound))


if __name__ == "__main__":
    main()
