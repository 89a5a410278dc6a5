#!/usr/bin/env python3
"""Compares two sets of benchmark runs.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are directories (or single files) of the per-run records
run.py writes to .bench_out/ (BENCH_<workload>_seed<n>_trace<t>_*.json);
copy .bench_out/ aside between the two sets. For every workload and
metric it prints each side's median and quartiles. End-to-end metrics
(from untraced runs) are judged against the bounds in BENCHMARK.json,
in this order:

  unresolved  a side has fewer than MIN_RUNS runs; or a side's own spread
              (quartile distance over median) exceeds the bound and not
              every AFTER run beats every BEFORE run
  same     the medians differ by no more than the bound
  better   AFTER's median is better by more than the bound
  WORSE    AFTER's median is worse by more than the bound

Each workload's untraced runs must also agree on the operations that
failed: the same seeds give the same operations, so a differing total
means the failures depend on timing.

Per-layer metrics (from traced runs) have no bounds and are listed only.
The exit status is 1 when any end-to-end metric is WORSE or unresolved,
or the failure totals differ.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Fewer runs than this give no quartiles worth judging.
MIN_RUNS = 5


def load(path):
    files = [path] if os.path.isfile(path) else sorted(
        glob.glob(os.path.join(path, "BENCH_*.json")))
    runs = []
    for f in files:
        with open(f) as fh:
            runs.append(json.load(fh))
    if not runs:
        sys.exit("no BENCH_*.json records under " + path)
    return runs


def values(runs, workload, trace, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["metrics"]]


def failures(runs, workload):
    """(attempted, failed) summed over a workload's untraced runs."""
    rs = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
    return sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs)


def quartiles(v):
    if len(v) < 2:
        return (v[0], v[0], v[0]) if v else (0, 0, 0)
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / med if med else 0.0


def verdict(before, after, better, bound):
    """Judges AFTER against BEFORE by the rules in the module docstring."""
    if min(len(before), len(after)) < MIN_RUNS:
        return "unresolved"
    dominated = (max(after) < min(before)) if better == "lower" else (
        min(after) > max(before))
    if max(spread(before), spread(after)) > bound and not dominated:
        return "unresolved"
    b_med, a_med = statistics.median(before), statistics.median(after)
    if b_med == 0:
        return "same" if a_med == 0 else "unresolved"
    change = (a_med - b_med) / b_med
    worse = change if better == "lower" else -change
    if abs(worse) <= bound:
        return "same"
    return "WORSE" if worse > 0 else "better"


def fmt(v):
    q1, med, q3 = quartiles(v)
    return "%12.4g [%.4g, %.4g] n=%d" % (med, q1, q3, len(v))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    before, after = load(sys.argv[1]), load(sys.argv[2])
    failing = 0
    for w in [w["name"] for w in spec["workloads"]]:
        print("== %s" % w)
        (b_att, b_fail), (a_att, a_fail) = failures(before, w), failures(after, w)
        agree = b_fail == a_fail
        failing += not agree
        print("  %-26s %d of %d | %d of %d | %s" % (
            "failed", b_fail, b_att, a_fail, a_att,
            "same" if agree else "DIFFER"))
        for m in spec["end_to_end"]:
            b = values(before, w, 0, m["name"])
            a = values(after, w, 0, m["name"])
            if not b or not a:
                print("  %-26s missing on one side" % m["name"])
                continue
            v = verdict(b, a, m["better"], m["bound"])
            failing += v in ("WORSE", "unresolved")
            print("  %-26s %s | %s | %-10s (bound %.2f, %s is better)" % (
                m["name"], fmt(b), fmt(a), v, m["bound"], m["better"]))
        for m in spec["per_layer"]:
            b = values(before, w, 1, m["name"])
            a = values(after, w, 1, m["name"])
            if b and a:
                print("  %-26s %s | %s" % (m["name"], fmt(b), fmt(a)))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
