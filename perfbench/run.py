#!/usr/bin/env python3
"""The repository benchmark: builds the TARDiS libraries, tardisd,
tardis_router and the load generator from source, runs one workload once,
checks its outputs and prints every metric.

    python3 perfbench/run.py --workload branch-merge --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); each run's full record,
BENCH_<workload>_seed<n>_trace<t>_<time>_<pid>.json, and the latest traced
run's Chrome trace, trace_<workload>.json, go to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
The exit status is 0 only when every correctness check passed.

A traced run alternates traced and untraced trials, starting with a
traced one. Layer metrics (named <layer>.<what>) come from the traced
trials; the user-facing figures among the per-layer metrics (txn_p99_us,
failed_frac, ...) come from the untraced ones, and bench.trace_overhead is
the traced trials' median txn_s over the untraced trials'.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
from percentiles import summarize  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Trials per run. Each trial is a fresh process with its own set-up and
# measures run_seconds / trials. The run pools the trials' latency samples
# and reports the median of every other metric across them, so one trial's
# outlying GC cycle or branch storm does not set the figure.
TRIALS = {"branch-merge": 6, "grid": 3}
# Metrics taken as a percentile of a population pooled over the trials:
# name -> (population, permille, unit). Permille 1000 is the maximum.
POPULATION_METRICS = {
    "txn_s": ("goodput", 500, "1/s"),  # grid: the median one-second slice
    "txn_p50_us": ("txn", 500, "us"),
    "txn_p99_us": ("txn", 990, "us"),
    "read_p99_us": ("read", 990, "us"),
    "write_p99_us": ("write", 990, "us"),
    "xpart_p99_us": ("xpart", 990, "us"),
    "merge_p50_us": ("merge", 500, "us"),
    "merge_p99_us": ("merge", 990, "us"),
    "core.commit_p99_us": ("core.commit", 990, "us"),
    "bench.gen_late_p99_us": ("gen_late", 990, "us"),
    "dag.states_p50": ("dag.states", 500, "count"),
    "dag.leaves_p50": ("dag.leaves", 500, "count"),
    "dag.leaves_max": ("dag.leaves", 1000, "count"),
}
TARGETS = ("tardis_perfbench", "perfbench_selftest", "tardisd", "tardis_router")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark package; exits on failure."""
    if not os.path.isdir(os.path.join(ROOT, "src", "core")):
        log("no TARDiS sources next to perfbench/ (expected src/core); "
            "run from a full checkout")
        sys.exit(1)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1)),
                  "--target"] + list(TARGETS))
    with open(log_path, "w") as logf:
        for cmd in steps:
            if subprocess.call(cmd, stdout=logf, stderr=subprocess.STDOUT) != 0:
                logf.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                log("build failed:\n" + tail)
                sys.exit(1)
    return out


def revision():
    """The git revision, or "unknown" outside a git checkout."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, text=True, capture_output=True, timeout=10)
        lines = rev.stdout.split()
        # Only a repository rooted here, not one that merely contains it.
        if (rev.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_trial(out, args, seconds, traced, trace_file, deadline):
    """One trial in a fresh process; returns its raw result or None."""
    cmd = [os.path.join(out, "tardis_perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % seconds, "--trace=%d" % traced,
           "--tardisd=" + os.path.join(out, "tardisd"),
           "--router=" + os.path.join(out, "tardis_router")]
    if trace_file:
        cmd.append("--trace-file=" + trace_file)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        log("trial exceeded the run's time limit")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        log("load generator failed with exit status %d" % proc.returncode)
        return None
    return json.loads(lines[-1])


def aggregate(trials):
    """Pools each population over the trials and takes its percentiles;
    every other metric is the median of its trial values. Counts add up,
    and the run is correct only if every trial was."""
    raw = {
        "correct": all(t["correct"] for t in trials),
        "attempted": sum(t["attempted"] for t in trials),
        "failed": sum(t["failed"] for t in trials),
        "errors": [e for t in trials for e in t["errors"]][:20],
        "errors_total": sum(t["errors_total"] for t in trials),
        "params": dict(trials[0]["params"], trials=str(len(trials))),
        "metrics": {},
    }
    for name in trials[0]["metrics"]:
        ms = [t["metrics"][name] for t in trials if name in t["metrics"]]
        raw["metrics"][name] = {
            "value": statistics.median(m["value"] for m in ms),
            "unit": ms[0]["unit"],
            "count": sum(m["count"] for m in ms),
            "trials": [m["value"] for m in ms],
        }
    # Set-up time is the mean of every set-up in the run: a process lands on
    # a fast or a slow core for all of its set-ups, so per-trial medians
    # cluster in two groups and their median flips between them.
    setups = [v for t in trials for v in t["samples"].get("setup", [])]
    if setups:
        raw["metrics"]["setup_s"] = {"value": statistics.fmean(setups),
                                     "unit": "s", "count": len(setups)}
    for name, (pop, permille, unit) in POPULATION_METRICS.items():
        if pop not in trials[0]["samples"]:
            continue
        pooled = [v for t in trials for v in t["samples"].get(pop, [])]
        value, used = summarize(pooled, permille)
        raw["metrics"][name] = {"value": value, "unit": unit,
                                "count": len(pooled), "permille": used}
    return raw


def merge_traced(trials):
    """Metrics of a traced run: layer metrics from the traced (even)
    trials, user-facing ones from the untraced (odd) trials, and the
    tracing overhead between the two."""
    traced = aggregate(trials[0::2])["metrics"]
    plain = aggregate(trials[1::2])["metrics"]
    metrics = {k: v for k, v in traced.items() if "." in k}
    metrics.update({k: v for k, v in plain.items() if "." not in k})
    metrics["bench.trace_overhead"] = {
        "value": (traced["txn_s"]["value"] / plain["txn_s"]["value"]
                  if plain["txn_s"]["value"] else 0.0),
        "unit": "ratio", "count": len(trials)}
    return metrics


def run_once(args, out):
    spec = load_spec()
    started = time.time()
    deadline = started + RUN_TIMEOUT_S
    bench_out = os.path.join(ROOT, ".bench_out")
    os.makedirs(bench_out, exist_ok=True)
    # Unique per run, so repeating a seed adds a record instead of
    # replacing one.
    stem = "%s_seed%d_trace%d_%s_%d" % (args.workload, args.seed, args.trace,
                                        time.strftime("%Y%m%dT%H%M%S"),
                                        os.getpid())
    n = TRIALS[args.workload]
    last_traced = (n - 1) // 2 * 2
    trials = []
    for i in range(n):
        traced = args.trace and i % 2 == 0
        # One Chrome trace per workload (the last traced trial's),
        # overwritten by each traced run, so runs do not pile up traces.
        trace_file = (os.path.join(bench_out, "trace_%s.json" % args.workload)
                      if traced and i == last_traced else None)
        t = run_trial(out, args, args.seconds / n, int(traced), trace_file,
                      deadline)
        if t is None:
            return 1
        trials.append(t)
    raw = aggregate(trials)
    if args.trace:
        raw["metrics"] = merge_traced(trials)
        raw["params"]["traced_trials"] = str(len(trials[0::2]))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                log("end-to-end metric %s missing from the run" % m["name"])
                return 1
            # A layer this workload does not exercise.
            got = {"value": 0, "unit": m["unit"], "count": 0}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "revision": revision(),
        "nproc": os.cpu_count(),
        "backend": raw["params"].get("backend"),
        "params": raw["params"],
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "errors": raw["errors"],
        "errors_total": raw["errors_total"],
        "wall_s": round(time.time() - started, 3),
        "metrics": raw["metrics"],
    }
    with open(os.path.join(bench_out, "BENCH_" + stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("workload %s  seed %d  trials %d  revision %s  nproc %s" %
          (args.workload, args.seed, n, record["revision"], record["nproc"]))
    for name in sorted(raw["metrics"]):
        m = raw["metrics"][name]
        tail = " p%g" % (m["permille"] / 10) if m.get("permille", 500) != 500 else ""
        print("  %-28s %16.4f %-6s n=%d%s" % (name, m["value"], m["unit"],
                                             m["count"], tail))
    print("  attempted %d, failed %d, correct %s" %
          (raw["attempted"], raw["failed"], raw["correct"]))
    for e in raw["errors"]:
        print("  WRONG: " + e)
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if raw["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(TRIALS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own arithmetic tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    out = build()
    if args.selftest:
        cpp = subprocess.call([os.path.join(out, "perfbench_selftest")])
        py = subprocess.call([sys.executable, "-B", "-m", "unittest", "discover",
                              "-s", HERE, "-p", "test_*.py"])
        return 1 if cpp or py else 0
    return run_once(args, out)


if __name__ == "__main__":
    sys.exit(main())
