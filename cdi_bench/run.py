#!/usr/bin/env python3
"""Builds the end-to-end CDI benchmark from source and runs one workload.

Run from the repository root:

    python3 cdi_bench/run.py --workload batch_day --seed 1 --seconds 10 --trace 0

The library under ../src and the driver in this directory are compiled
into .bench_build/cdi_bench (incremental after the first build); build
output goes to stderr so the JSON result stays the last line of stdout.

An untraced run splits its measured seconds over PROCESSES driver
processes, one after another, on the same seed, and reports each metric's
median over them: run-to-run noise on small virtual machines is mostly
per process (memory placement, core sharing), so a median over processes
steadies the figures more than a longer single process would. A traced
run (--trace 1) is one process; it also writes its spans as a Chrome trace
to .bench_build/traces/<workload>-seed<n>.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cdi_bench")
BINARY = os.path.join(BUILD_DIR, "cdi_bench")
PROCESSES = 3


def build():
    """Configures (once) and builds the driver; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: library sources (src/) not found", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "cdi_bench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_driver(cmd):
    """Runs one driver process; returns (exit code, parsed result or None)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None


def aggregate(results):
    """One result from several processes: sums of the operation counts,
    each metric's median over the processes."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch_day", "stream_fresh",
                                 "shard_dashboard"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    processes = 1 if args.trace == "1" else PROCESSES
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / processes), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]

    results = []
    failed_code = 0
    for _ in range(processes):
        code, result = run_driver(cmd)
        if result is None:
            print("run.py: driver exited %d without a result" % code,
                  file=sys.stderr)
            return code or 1
        results.append(result)
        failed_code = failed_code or code
    print(json.dumps(aggregate(results)), flush=True)
    return failed_code


if __name__ == "__main__":
    sys.exit(main())
