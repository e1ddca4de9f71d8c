#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [workload ...]

Runs perfbench/run.py once for each of the seeds 1..10 on each workload
(default: all of BENCHMARK.json's workloads). For each end-to-end metric
it prints the median, the interquartile range as a share of the median
next to the metric's bound, and the ten values. A spread above a third of
its bound is flagged; setup_s has no spread requirement, only its median
matters.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    metrics = bench["end_to_end"]
    for workload in args.workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in SEEDS:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print("%s seed %d failed (exit %d):\n%s" %
                      (workload, seed, out.returncode, out.stderr[-2000:]))
                return 1
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: %s" % (workload, seed, lines[-1]))
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print("%s (%d runs)" % (workload, len(SEEDS)))
        for m in metrics:
            v = values[m["name"]]
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q[2] - q[0]) / med
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = "  <-- above bound/3"
            print("  %-18s median %12.4f %-4s spread %6.3f bound %.2f%s" %
                  (m["name"], med, m["unit"], spread, m["bound"], flag))
            print("    " + " ".join("%.4g" % x for x in v))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
