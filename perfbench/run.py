#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

The last line of standard output is the run's JSON result: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(which also writes the spans as Chrome trace-event JSON under
.perfbench-work/).  Build output and the run's readable summary go to
standard error.

--smoke runs every workload once at smoke size, traced and untraced,
and fails unless each run is correct and reports exactly the metrics
BENCHMARK.json names.
"""

import argparse
import json
import os
import subprocess
import sys

WORK = ".perfbench-work"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(need):
            fail("run from the repository root: %s is missing" % need)
    # the shared dune cache lives outside the checkout; keep the build in it
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail("build failed")


def run(workload, seed, seconds, trace, smoke=False, echo=True):
    """Run one workload; return its parsed JSON result."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        os.makedirs(WORK, exist_ok=True)
        cmd += ["--traced", os.path.join(WORK, "trace-%s.json" % workload)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    if done.returncode != 0:
        sys.exit(done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run(name, 42, 1, trace, smoke=True, echo=False)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append("%s --trace %d: metrics differ from %s: %s"
                                % (name, trace, kind, sorted(set(got.items()) ^ set(want.items()))))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s --trace %d: %d of %d checks failed"
                                % (name, trace, result["failed"], result["attempted"]))
            if trace:
                with open(os.path.join(WORK, "trace-%s.json" % name)) as f:
                    events = json.load(f)["traceEvents"]
                if not events:
                    problems.append("%s: empty Chrome trace" % name)
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: %s" % ("FAILED" if problems else "ok"), file=sys.stderr)
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        fail("--workload NAME is required")
    build()
    if args.smoke:
        smoke()
    run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
