#!/usr/bin/env bash
# A/A tool: does the benchmark agree with itself?
#
#   benchmark/aa.sh N K      N sets of K full runs (all workloads) of one
#                            build and one seed, the sets alternating in
#                            time; prints per workload x end-to-end metric
#                            every set median, the largest gap between two
#                            set medians as a share of their mean, and the
#                            bound from BENCHMARK.json.
#   benchmark/aa.sh spread   the acceptance check of the benchmark: ten
#                            runs per workload, each with another seed,
#                            done twice; prints (Q3-Q1)/median of each
#                            batch and how much worse the second median is
#                            than the first, next to the bound.
#
# Environment: SEED (default 1, A/A only), RUN_SECONDS (default
# run_seconds of BENCHMARK.json). Run from the root of the repository.
# Builds once through the first run; command, workloads and bounds come
# from BENCHMARK.json, so this measures exactly what the driver runs.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "$@" <<'EOF'
import json, os, statistics, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
seconds = int(os.environ.get("RUN_SECONDS", spec["run_seconds"]))
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]


def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    delta = (second - first) / first
    return delta if better == "lower" else -delta


def aa(n_sets, k_runs):
    seed = int(os.environ.get("SEED", 1))
    sets = [{w: [] for w in workloads} for _ in range(n_sets)]
    for k in range(k_runs):
        for s in range(n_sets):
            for w in workloads:
                sets[s][w].append(run(w, seed))
            print(f"run {k + 1}/{k_runs} of set {s + 1}/{n_sets} done", file=sys.stderr)
    print(f"A/A, seed {seed}, {n_sets} sets of {k_runs} runs, {seconds} s per run")
    print(f"{'workload':<16} {'metric':<15} {'largest gap':>11} {'bound':>6}  set medians")
    for w in workloads:
        for m in metrics:
            medians = [statistics.median(r[m["name"]] for r in s[w]) for s in sets]
            gap = (max(medians) - min(medians)) / statistics.mean(medians)
            print(f"{w:<16} {m['name']:<15} {gap:>10.2%} {m['bound']:>6.0%}  "
                  + " ".join(f"{x:.6g}" for x in medians))


def spread():
    batches = []
    for b in range(2):
        batch = {w: [run(w, seed) for seed in range(10 * b + 1, 10 * b + 11)] for w in workloads}
        batches.append(batch)
        print(f"batch {b + 1}/2 done", file=sys.stderr)
    print(f"spread over ten seeds per batch, {seconds} s per run")
    print(f"{'workload':<16} {'metric':<15} {'iqr/med 1':>9} {'iqr/med 2':>9} {'2nd worse':>9} {'bound':>6}")
    for w in workloads:
        for m in metrics:
            cols, medians = [], []
            for batch in batches:
                values = [r[m["name"]] for r in batch[w]]
                q1, _, q3 = statistics.quantiles(values, n=4)
                medians.append(statistics.median(values))
                cols.append((q3 - q1) / medians[-1])
            drift = worse(medians[0], medians[1], m["better"])
            print(f"{w:<16} {m['name']:<15} {cols[0]:>9.2%} {cols[1]:>9.2%} {drift:>+9.2%} {m['bound']:>6.0%}")


if len(sys.argv) == 2 and sys.argv[1] == "spread":
    spread()
elif len(sys.argv) == 3:
    aa(int(sys.argv[1]), int(sys.argv[2]))
else:
    sys.exit("usage: benchmark/aa.sh N K | benchmark/aa.sh spread")
EOF
