#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
standalone CMake package in perfbench/ (the dgap libraries from src/ plus
the benchmark program) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set; later calls rebuild only what
changed. The program's standard output is passed through unchanged: its last
line is the result object {"correct", "attempted", "failed", "metrics"}.
Build logs go to standard error. --selftest builds and runs the
benchmark's own tests instead.

Workloads, metrics and the layer each metric belongs to are described in
perfbench/METRICS.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
WORKLOADS = ("huge_luby", "sweep_templates", "epochs_churn")
BUILD_TIMEOUT_S = 800
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# glibc's allocator for the measured program: back the heap with transparent
# huge pages, take every allocation from it (no per-array mmap) and keep
# freed memory for reuse. Otherwise each huge_luby iteration maps, faults
# in and unmaps about 1 GB in 4 KiB pages; on a shared 4-vCPU VM that
# page-fault path was the least steady part of its time (solve_s 2.3-3.3 s
# within one run, against 1.5-2.3 s with these settings).
MALLOC_TUNABLES = ("glibc.malloc.hugetlb=1:glibc.malloc.mmap_max=0:"
                   "glibc.malloc.trim_threshold=4000000000000")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the package; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no dgap sources at {os.path.join(ROOT, 'src')}; "
            "run from a full checkout of the repository")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            sys.exit(2)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            sys.exit(2)
    return out


def commit():
    """The checked-out commit, or "unknown" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_per_layer():
    """BENCHMARK.json's per-layer names, if the file is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        return [m["name"] for m in json.load(f)["per_layer"]]


def check_result(line, trace):
    """Raise ValueError unless `line` is a well-formed result object."""
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if trace:
        declared = declared_per_layer()
        if declared is not None and sorted(declared) != sorted(result["metrics"]):
            raise ValueError("per-layer metrics differ from BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = build()
    if args.selftest:
        done = subprocess.run(["ctest", "--test-dir", out,
                               "--output-on-failure"], timeout=300)
        return done.returncode

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--commit", commit()]
    # A run measures for --seconds plus at most a few iterations; the cap
    # keeps a hung run from outliving the benchmark's time limit.
    timeout = min(170.0, 3 * args.seconds + 60)
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout:.0f} s and was stopped")
        return 1
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        log(f"perfbench exited with {done.returncode}")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"malformed result line: {e}")
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
