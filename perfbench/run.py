#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark, with the repository's libraries, into .bench_build/ (build output
goes to stderr); later runs only check that the build is up to date.

Stdout carries the benchmark's description lines ("# ...") and, last, one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are exactly BENCHMARK.json's end_to_end metrics, with
--trace 1 exactly its per_layer metrics; a per-layer metric that a workload
does not exercise reads 0. The exit code is 0 only for a correct run.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("sim_list32", "conc_read_mostly", "conc_contended")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing; nothing to build")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    declared = declared_metrics(args.trace)
    try:
        exe = build()
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)

    try:
        proc = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines:
        fail("benchmark printed nothing (exit code %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark's last line is not JSON (exit code %d)"
             % proc.returncode)

    measured = result["metrics"]
    metrics = {}
    for m in declared:
        got = measured.pop(m["name"], None)
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    if measured:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(measured))
    result["metrics"] = metrics
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
