#!/usr/bin/env python3
"""Compares two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are directories (searched recursively) or single files of
the result files perfbench writes (.bench_build/perfbench-work/results/
*.json; each names its workload). Untraced results only; result files marked
"valid": false (too few CPUs, or the generator fell behind: the run measured
the box) are skipped.

Prints one row per workload x end-to-end metric: each side's median and
quartiles (statistics.quantiles, n=4) and a verdict against the metric's
bound in BENCHMARK.json:
  improved    the change's median is better than the base median by more
              than the bound
  regressed   it is worse by more than the bound
  unchanged   within the bound either way
  unresolved  either side's spread (quartile distance over its median) is
              wider than the bound, unless every change run beats every base
              run (then improved) or loses to every one (then regressed)
Exit status is 1 when any row regressed, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "BENCHMARK.json")


def load_results(path):
    """Returns {workload: {metric: [values]}} from the result files under
    path."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "**", "*.json"),
                                 recursive=True))
    out = {}
    for name in files:
        with open(name) as f:
            record = json.load(f)
        if (record.get("trace") != 0 or not record.get("valid") or
                not record.get("result")):
            continue
        for metric, value in record["result"]["metrics"].items():
            out.setdefault(record["workload"], {}).setdefault(
                metric, []).append(value["value"])
    return out


def summary(values):
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    spread = abs(q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def verdict(base, change, bound, higher_is_better):
    b_med, _, _, b_spread = summary(base)
    c_med, _, _, c_spread = summary(change)
    sign = 1.0 if higher_is_better else -1.0
    # Relative gain of the change over the base (positive = better).
    gain = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    if b_spread > bound or c_spread > bound:
        if all(sign * c > sign * b for c in change for b in base):
            return "improved", gain
        if all(sign * c < sign * b for c in change for b in base):
            return "regressed", gain
        return "unresolved", gain
    if gain > bound:
        return "improved", gain
    if gain < -bound:
        return "regressed", gain
    return "unchanged", gain


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    base = load_results(args.base)
    change = load_results(args.change)

    header = "%-10s %-20s %-6s %5s %30s %30s %8s  %s" % (
        "workload", "metric", "unit", "bound", "base median [q1, q3] (n)",
        "change median [q1, q3] (n)", "delta", "verdict")
    print(header)
    regressed = False
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = base.get(workload, {}).get(name)
            c = change.get(workload, {}).get(name)
            if not b or not c:
                print("%-10s %-20s %-6s %5.2f %30s %30s %8s  %s" % (
                    workload, name, metric["unit"], metric["bound"],
                    "-" if not b else len(b), "-" if not c else len(c), "",
                    "missing"))
                continue
            kind, gain = verdict(b, c, metric["bound"],
                                 metric["better"] == "higher")
            regressed = regressed or kind == "regressed"
            cells = []
            for values in (b, c):
                med, q1, q3, _ = summary(values)
                cells.append("%.4g [%.4g, %.4g] (%d)" % (med, q1, q3,
                                                          len(values)))
            print("%-10s %-20s %-6s %5.2f %30s %30s %+7.1f%%  %s" % (
                workload, name, metric["unit"], metric["bound"], cells[0],
                cells[1], 100.0 * gain, kind))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
