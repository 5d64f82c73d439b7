#!/usr/bin/env python3
"""Builds ctbench from this source tree and runs one benchmark workload.

    python3 bench/suite/run.py --workload <name|all> --seed <n> \\
        --seconds <s> --trace <0|1> [--json <envelope.json>]

Run it from the root of a source checkout. The first run configures and
builds bench/suite/ (the cubetree library plus ctbench) into .bench_build/;
later runs only rebuild what changed. Build output goes to stderr, so the
last line of stdout is always ctbench's JSON result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 1 the metrics are the per-layer ones and the Chrome trace file
lands in .bench_build/traces/. Every file the run writes stays under
.bench_build/. bench/suite/README.md documents the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "suite")
WORKLOADS = ["slice-paper", "range-hot", "refresh-merge", "refresh-online"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no cubetree sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SUITE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "ctbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(step))
    return os.path.join(BUILD, "ctbench")


def run_workload(binary, workload, args):
    work = os.path.join(OUT, "work", "%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload=" + workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--dir=" + work]
    if args.trace:
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace=" + os.path.join(
            traces, "%s-%d.trace.json" % (workload, args.seed)))
    if args.json:
        cmd.append("--json=" + os.path.abspath(
            args.json if args.workload != "all"
            else "%s.%s.json" % (os.path.splitext(args.json)[0], workload)))
    # The program reads CUBETREE_* settings (tracing, query logs, worker
    # counts) from its environment; the benchmark fixes them itself.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CUBETREE_")}
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.splitlines() or [""]
    print("\n".join(lines))
    return done.returncode, lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=19980601)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--json", help="also write ctbench's envelope here")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in 1..3600")

    binary = build()
    if args.workload != "all":
        return run_workload(binary, args.workload, args)[0]
    # All four in turn: one result line each, then a combined one whose
    # metrics are named <workload>/<metric>.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, last = run_workload(binary, workload, args)
        worst = max(worst, code)
        try:
            result = json.loads(last)
        except ValueError:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
