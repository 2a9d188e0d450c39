#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload recurring|churn|retrain \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout. The binary is compiled from ../src and this
directory into .bench_build/perfbench; generated inputs, the cached serving
model, result files and span traces go to .bench_build/perfbench-work.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. Exit status is 0 on success, 1 when the correctness gate failed,
2 on a usage or build error, 3 when the run was invalid and printed no
result (too few CPUs, or the load generator still fell behind its schedule
after its retries), and 4 on a timeout. `--workload all` runs every workload
untraced and prints each end-to-end metric by name with its unit.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["recurring", "churn", "retrain"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ next to perfbench/; run from a full checkout")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j",
                      str(max(1, min(4, os.cpu_count() or 1)))])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log("perfbench: build step failed: " + " ".join(step))
                return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
        sha = done.stdout.strip()
        return sha if done.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def prepare():
    """Trains and caches the serving model once per checkout."""
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            done = subprocess.run([BINARY, "--prepare", WORK_DIR],
                                  stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("perfbench: model preparation timed out")
            return False
    return done.returncode == 0


def run_one(workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, result dict or None)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", WORK_DIR, "--git-sha", git_sha()]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as expired:
        if expired.stdout:
            out = expired.stdout
            sys.stderr.write(out if isinstance(out, str) else out.decode())
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 4, None
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        lines = lines[:-1]
    for line in lines:
        print(line)
    return done.returncode, result


def run_all(seed, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    status = 0
    summary = {}
    for workload in WORKLOADS:
        code, result = run_one(workload, seed, seconds, 0)
        status = status or code
        summary[workload] = result
        if result is None:
            print("%-10s no result (exit %d)" % (workload, code))
            continue
        print("%-10s correct=%s attempted=%d failed=%d" % (
            workload, result["correct"], result["attempted"],
            result["failed"]))
        for metric in spec["end_to_end"]:
            value = result["metrics"][metric["name"]]
            print("  %-18s %14.6g %s" % (metric["name"], value["value"],
                                          value["unit"]))
    print(json.dumps(summary))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not build() or not prepare():
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    code, result = run_one(args.workload, args.seed, args.seconds, args.trace)
    if result is not None:
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
