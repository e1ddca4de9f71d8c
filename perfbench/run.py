#!/usr/bin/env python3
"""Builds and runs the lock service benchmark.

    python3 perfbench/run.py --workload <handoff|zipf|tcp|sim-faults>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (which builds the library from the checkout's sources) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only re-check the build. Build output goes to standard error. The last
line of standard output is the result object of perfbench/src/main.cpp;
with --trace 1 the span file lands in <build dir>/traces/.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from the root of a full checkout"
                 % needed)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build_dir, "--target",
                        "perfbench", "-j", jobs], stdout=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)
    trace_dir = os.path.join(target, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    sys.stdout.flush()
    return subprocess.call([binary] + sys.argv[1:] + ["--trace-dir",
                                                      trace_dir], env=env)


if __name__ == "__main__":
    sys.exit(main())
