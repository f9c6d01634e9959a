#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root):

    python3 perfbench/sweep.py [--workload NAME ...] [--seeds 1,2,3] [--trace 0|1]

For every workload and metric this prints the median, the quartiles
(Python's statistics.quantiles, n=4), the sample count, and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json. The
provenance line of the first run (seed, scale, workers, nproc, CPU,
compiler, commit, build) heads each workload's table. --out writes every
run's result line and provenance as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    provenance = next((json.loads(l.split(" ", 1)[1]) for l in lines
                       if l.startswith("provenance ")), None)
    failed_checks = [l for l in lines if l.startswith("failed-check ")]
    return json.loads(lines[-1]), provenance, failed_checks


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="write every run's result to this JSON file")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    declared = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    record = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, provenance, failed_checks = run_once(bench, workload, seed, args.trace)
            runs.append({"seed": seed, "result": result, "provenance": provenance})
            status = "ok" if result["correct"] and result["failed"] == 0 else "FAILED"
            print(f"{workload} seed {seed}: {status}", *failed_checks, file=sys.stderr)
        record[workload] = runs
        print(f"\n== {workload}  ({len(runs)} runs)")
        print(f"   provenance: {json.dumps(runs[0]['provenance'])}")
        print(f"   {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'n':>3} {'spread':>8} {'bound':>6}")
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s" and not spread < bound / 3:
                flag = "  <-- above a third of its bound"
            print(f"   {name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(values):>3} "
                  f"{spread:>8.4f} {bound if bound is not None else '-':>6}{flag}")
        bad = [r["seed"] for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
        if bad:
            print(f"   runs with failed checks or operations: seeds {bad}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
