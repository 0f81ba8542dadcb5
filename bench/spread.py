#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the benchmark's
acceptance procedure takes it: each workload once per seed, ten seeds, and
for every metric the distance between the first and third quartile of the
ten values as a share of their median, held against the metric's bound in
BENCHMARK.json. Run from the root of a checkout:

    python3 bench/spread.py [--seeds 1-10] [--workload NAME ...] [--json FILE]

A spread above a third of its bound is marked '!', one above the bound 'X'.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--json", help="also write every run's values to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    first, last = (int(x) for x in args.seeds.split("-"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    values = {}
    for seed in range(first, last + 1):
        for w in workloads:
            for name, v in run(spec["command"], w, seed, spec["run_seconds"]).items():
                values.setdefault(w, {}).setdefault(name, []).append(v)
            print(f"seed {seed} {w} done", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(values, f, indent=1)

    print(f"{'workload':20} {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for m in spec["end_to_end"]:
            xs = values[w][m["name"]]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            mark = "X" if spread > m["bound"] else "!" if spread > m["bound"] / 3 else ""
            print(f"{w:20} {m['name']:18} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {m['bound']:6.2f} {mark}")


if __name__ == "__main__":
    main()
