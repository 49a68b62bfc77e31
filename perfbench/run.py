#!/usr/bin/env python3
"""Builds and runs the whole-attack benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the repository's libraries
from src/) into .bench_build/perfbench, runs one measured run of the
workload, and prints the benchmark's JSON result as the last stdout line.
With --trace 0 the end-to-end `setup_s` is the median over the measured run
and SETUP_PROBES extra set-up-only runs, each a fresh process.  Build output
goes to stderr.  Exits 1 without a result if the build or the run fails.
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
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "scratch")
SETUP_PROBES = 20
RUN_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 30


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def run(cmd, timeout):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no output from: " + " ".join(cmd))
    try:
        last = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not JSON: " + lines[-1])
    return proc.returncode, lines[:-1], last


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--scratch", SCRATCH_DIR]
    code, report, result = run(
        base + ["--seconds", str(args.seconds), "--trace", args.trace],
        RUN_TIMEOUT_S)
    for line in report:
        print(line)
    metrics = result.get("metrics", {})
    if args.trace == "0" and code == 0 and "setup_s" in metrics:
        setups = [metrics["setup_s"]["value"]]
        for _ in range(SETUP_PROBES):
            probe_code, _, probe = run(base + ["--setup-only"], PROBE_TIMEOUT_S)
            if probe_code != 0:
                fail("set-up probe failed")
            setups.append(probe["setup_s"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        print("  setup_s is the median of %d set-up runs: %s"
              % (len(setups), " ".join("%.6f" % s for s in setups)))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
