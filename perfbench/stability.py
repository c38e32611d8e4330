#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its regression bounds.

Run from the repository root:

    python3 perfbench/stability.py [--runs 5] [--sets 2] [--seconds S] [WORKLOAD ...]

Runs each workload --runs times per set, every run with its own seed,
for --sets sets.  For every end-to-end metric it prints each set's
median, quartiles and spread (the interquartile range over the
median, quartiles as statistics.quantiles(values, n=4) gives them).
It fails if, for any metric but setup_s, a set's spread exceeds the
metric's bound in BENCHMARK.json, or if any later set's median is worse
than the first set's by more than the bound.  With --sets 2 --runs 10
it is the calibration run the bounds were set from: the "suggest"
column is max(5%, 3 x spread).
"""

import argparse
import json
import statistics
import sys

sys.dont_write_bytecode = True
import run as bench  # noqa: E402  (the sibling run.py)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bench.build()
    failures = []
    for name in names:
        # sets[k][metric] -> values
        sets = []
        for k in range(args.sets):
            values = {}
            for i in range(args.runs):
                seed = 1000 * (k + 1) + i
                result = bench.run(name, seed, seconds, 0, echo=False)
                if not result["correct"]:
                    failures.append("%s seed %d: incorrect result" % (name, seed))
                for m, v in result["metrics"].items():
                    values.setdefault(m, []).append(v["value"])
            sets.append(values)
        print("%s (%d sets x %d runs, %gs each)" % (name, args.sets, args.runs, seconds))
        print("  %-14s %3s %12s %12s %12s %7s %6s %7s"
              % ("metric", "set", "median", "q1", "q3", "spread", "bound", "suggest"))
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            first = None
            for k, values in enumerate(sets):
                q1, med, q3 = quartiles(values[metric])
                spread = (q3 - q1) / med
                print("  %-14s %3d %12.6g %12.6g %12.6g %6.1f%% %5.0f%% %6.1f%%"
                      % (metric, k + 1, med, q1, q3, 100 * spread, 100 * bound,
                         100 * max(0.05, 3 * spread)))
                if metric != "setup_s" and spread > bound:
                    failures.append("%s %s set %d: spread %.1f%% exceeds bound %.0f%%"
                                    % (name, metric, k + 1, 100 * spread, 100 * bound))
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first
                    if m["better"] == "higher":
                        worse = -worse
                    if worse > bound:
                        failures.append("%s %s set %d: median %.1f%% worse than set 1 (bound %.0f%%)"
                                        % (name, metric, k + 1, 100 * worse, 100 * bound))
        sys.stdout.flush()
    for f in failures:
        print("stability: " + f)
    print("stability: %s" % ("FAILED" if failures else "ok"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
