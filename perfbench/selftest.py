#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload briefly and checks the
output contract.

    python3 perfbench/selftest.py

For each workload of BENCHMARK.json it runs perfbench/run.py for one second
untraced and traced, and asserts that the run exits 0, that the last line
is a result object whose metrics are exactly the end_to_end (untraced) or
per_layer (traced) metrics with their units, that the run is correct and
that the traced run wrote its span file. It also checks that the
sim-faults counts repeat exactly for one seed, and that run.py fails
without printing a result when the library's sources are absent.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_SIM_COUNTS = ("core.msgs_per_entry", "service.chained_frac",
                    "sim.entries_per_ktick", "sim.max_wait_ticks",
                    "fault.repairs")


def run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def check_result(out, expected, label):
    assert out.returncode == 0, "%s exited %d:\n%s" % (
        label, out.returncode, out.stderr[-3000:])
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    names = [m["name"] for m in expected]
    assert sorted(result["metrics"]) == sorted(names), (
        "%s printed %s, BENCHMARK.json names %s" %
        (label, sorted(result["metrics"]), sorted(names)))
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], (label, m["name"])
        assert isinstance(printed["value"], (int, float))
        assert math.isfinite(printed["value"]), (label, m["name"])
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        result = check_result(run(workload, 7, 0), bench["end_to_end"],
                              workload + " untraced")
        for m in bench["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, (
                workload, m["name"])
        check_result(run(workload, 7, 1), bench["per_layer"],
                     workload + " traced")
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        span_file = os.path.join(ROOT, target, "traces",
                                 "perfbench-%s-seed7.trace.json" % workload)
        with open(span_file) as f:
            spans = json.load(f)["traceEvents"]
        assert {"setup", "workload", "acquire", "release"} <= {
            s["name"] for s in spans}, workload
        print("ok  %s" % workload)

    first = check_result(run("sim-faults", 3, 1), bench["per_layer"], "sim")
    second = check_result(run("sim-faults", 3, 1), bench["per_layer"], "sim")
    for name in EXACT_SIM_COUNTS:
        assert (first["metrics"][name]["value"] ==
                second["metrics"][name]["value"]), name
    print("ok  sim-faults counts repeat for one seed")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(bench["workloads"][0]["name"], 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0 and '"correct"' not in out.stdout, out.stdout
    print("ok  fails without the library's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
