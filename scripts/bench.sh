#!/usr/bin/env bash
# Record the perfbench trajectory. For every workload, runs
# perfbench/run.py untraced (end-to-end figures) and traced
# (per-layer figures) over seeds 1, 2 and 3 for 20 s each, then
# writes each metric's median and quartiles to BENCH_<workload>.json
# at the repo root, stamped with nproc, build type and git revision.
# A perf change commits the refreshed files, so its effect shows up
# as a diff of them. Usage:
#   scripts/bench.sh                  # profile analyze characterize serve
#   scripts/bench.sh profile serve    # just these workloads
# Only reads run.py's output: perfbench/ and BENCHMARK.json are not
# touched. Exits nonzero if any run fails or reports incorrect output.
set -euo pipefail

cd "$(dirname "$0")/.."

seeds=(1 2 3)
seconds=20
if [ "$#" -gt 0 ]; then
    workloads=("$@")
else
    workloads=(profile analyze characterize serve)
fi

work=$(mktemp -d)
trap 'rm -rf "${work}"' EXIT

for workload in "${workloads[@]}"; do
    for trace in 0 1; do
        for seed in "${seeds[@]}"; do
            echo "== bench: ${workload} trace=${trace} seed=${seed}" >&2
            python3 perfbench/run.py --workload "${workload}" \
                --seed "${seed}" --seconds "${seconds}" \
                --trace "${trace}" \
                > "${work}/${workload}.${trace}.${seed}.out"
        done
    done
done

rev=$(git describe --always --dirty 2>/dev/null || echo unknown)

python3 - "${work}" "${rev}" "${seconds}" "${seeds[*]}" \
    "${workloads[@]}" <<'EOF'
import glob
import json
import os
import re
import statistics
import sys

work, rev, seconds, seeds = sys.argv[1:5]
seeds = [int(s) for s in seeds.split()]
ok = True
for workload in sys.argv[5:]:
    header = {}
    samples = {}
    units = {}
    runs = {"untraced": 0, "traced": 0}
    attempted = failed = 0
    correct = True
    for path in sorted(glob.glob(os.path.join(work, workload + ".*.out"))):
        trace = os.path.basename(path).split(".")[1] == "1"
        lines = open(path).read().splitlines()
        for line in lines[:-1]:
            # The report header: "# build=... optimized=... nproc=...".
            header.update(re.findall(r"(\w+)=(\S+)", line))
        result = json.loads(lines[-1])
        runs["traced" if trace else "untraced"] += 1
        correct = correct and bool(result["correct"])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    metrics = {}
    for name in sorted(samples):
        values = sorted(samples[name])
        if len(values) > 1:
            q1, median, q3 = statistics.quantiles(
                values, n=4, method="inclusive")
        else:
            q1 = median = q3 = values[0]
        metrics[name] = {"unit": units[name], "median": median,
                         "q1": q1, "q3": q3, "runs": len(values)}
    report = {
        "workload": workload,
        "git_rev": rev,
        "build_type": header.get("build", "unknown"),
        "nproc": int(header.get("nproc", os.cpu_count() or 0)),
        "seeds": seeds,
        "seconds": float(seconds),
        "runs": runs,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open("BENCH_%s.json" % workload, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print("bench: wrote BENCH_%s.json (correct=%s, failed=%d)"
          % (workload, correct, failed))
    ok = ok and correct and failed == 0
sys.exit(0 if ok else 1)
EOF
