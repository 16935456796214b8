#!/usr/bin/env python3
"""Runs each workload k times and reports how steady its metrics are.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
        [--first-seed 1] [--verbose]

Each run uses its own seed (first-seed, first-seed + 1, ...) and the
run length in BENCHMARK.json. For every metric the table gives the
median, the first and third quartiles (statistics.quantiles, n=4), the
quartile spread as a share of the median, the max/min ratio, and the
bound BENCHMARK.json sets, flagging any spread above a third of it.
It also prints the share of failed operations per run, which must be
the same in every run.
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: " + " ".join(cmd))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run incorrect: " + " ".join(cmd))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value, in seed order")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst_ok = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"  {workload} seed={seed} done", file=sys.stderr)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs, failed share per run "
              f"{shares}, attempted "
              f"{min(r['attempted'] for r in results)}.."
              f"{max(r['attempted'] for r in results)}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'max/min':>8} {'bound':>6}")
        names = list(results[0]["metrics"])
        want = [m["name"] for m in spec["end_to_end"]]
        if any(list(r["metrics"]) != want for r in results):
            raise SystemExit(f"{workload}: the metrics printed are not the "
                             f"end_to_end list of BENCHMARK.json")
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            lo, hi = min(values), max(values)
            maxmin = hi / lo if lo > 0 else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above bound/3"
                worst_ok = False
            bound_text = f"{bound:6.3f}" if bound is not None else "     -"
            print(f"  {name:34} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {maxmin:8.4f} {bound_text}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.5g}" for v in values))
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
