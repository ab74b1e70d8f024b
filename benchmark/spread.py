#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME]... [--trace 0|1]

Runs the command in BENCHMARK.json `--runs` times per workload, each time with
another seed, and prints for every metric its median and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound. Everything is also written to
benchmark/out/spread.json. Run from the repo root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true", help="repeat --first-seed instead of counting up")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--out", default="benchmark/out/spread.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report = {}
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed if args.same_seed else args.first_seed + i
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
            ]
            began = time.time()
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
            if done.returncode != 0 or not last.startswith("{"):
                sys.exit(f"{' '.join(cmd)} failed with code {done.returncode}")
            result = json.loads(last)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {time.time() - began:.1f} s", file=sys.stderr)
        rows = {}
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':<34} {'median':>16} {'iqr/median':>11} {'bound':>7}")
        for name, vs in values.items():
            q1, median, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3" if spread <= bound else "  > BOUND"
            shown = "" if bound is None else f"{bound:7.2f}"
            print(f"  {name:<34} {median:>16.4f} {spread:>11.4f} {shown:>7}{flag}")
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vs}
        report[workload] = rows
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
