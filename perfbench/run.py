#!/usr/bin/env python3
"""Build and run the TPUPoint benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The first run configures and builds the library plus the benchmark
binary into .bench_build/ (about a minute on 4 cores); later runs only
rebuild what changed. Build output goes to stderr, so the last line on
stdout is the benchmark's JSON result. The run fails without a result
when the checkout holds no library sources to build.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "tpupoint_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under src/ to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


WORKLOADS = ["profile", "analyze", "characterize", "serve"]


def run_one(workload, seed, seconds, trace):
    """Run one workload; print its header and result; fail on errors."""
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--root", ROOT],
        stdout=subprocess.PIPE, cwd=ROOT, text=True)
    lines = proc.stdout.splitlines()
    # Everything but the result line is the report header.
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: benchmark exited with %d" % proc.returncode)

    result = json.loads(lines[-1])
    names = set(result["metrics"])
    if names != expected_metrics(trace):
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s"
                 % sorted(names ^ expected_metrics(trace)))
    print(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"],
                        help="'all' runs every workload, untraced then "
                             "traced, one result line each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    if args.workload != "all":
        run_one(args.workload, args.seed, args.seconds, args.trace)
        return
    for workload in WORKLOADS:
        for trace in (0, 1):
            run_one(workload, args.seed, args.seconds, trace)


if __name__ == "__main__":
    main()
