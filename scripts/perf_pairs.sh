#!/usr/bin/env bash
# Interleaved BASE/HEAD pairs of one repository-benchmark workload.
#
# Usage: scripts/perf_pairs.sh BASE WORKLOAD PAIRS FIRST_SEED
#
#   BASE        a commit (hash, tag or branch) to compare against
#   WORKLOAD    methodology, tournament, fleet or live
#   PAIRS       how many BASE/HEAD pairs to run
#   FIRST_SEED  pair i runs seed FIRST_SEED + i on both sides
#
# BASE is exported with `git archive` into a temporary directory; HEAD
# is this checkout, working-tree changes included. The script refuses
# to run when BASE's perfbench/ or BENCHMARK.json differs from HEAD's,
# or the checkout has uncommitted changes there: both sides must run
# the same benchmark. Each side is built once through its own
# perfbench/run.py (a tiny run of the workload), then the pairs run
# `python3 perfbench/run.py --workload WORKLOAD --seed S --seconds
# RUN_SECONDS --trace 0` on each side, RUN_SECONDS being
# BENCHMARK.json's run_seconds, swapping which side runs first every
# pair.
#
# It prints, for each end-to-end metric of BENCHMARK.json, each side's
# median and quartiles, the change of the medians and HEAD's wins
# (ties count for neither side). It exits 1 only when a run fails or
# reports failed > 0 (or correct false), and 2 on a usage error;
# judging the numbers is left to the reader. Same-seed runs on a
# shared host drift 15-50%, so scripts/ci.sh does not run it.
set -euo pipefail

usage() {
    echo "usage: scripts/perf_pairs.sh BASE WORKLOAD PAIRS FIRST_SEED" >&2
    exit 2
}

[[ $# -eq 4 ]] || usage
cd "$(dirname "$0")/.."
head_dir=$(pwd)

base=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "perf_pairs: '$1' is not a commit" >&2
    exit 2
}
workload=$2
case "$workload" in
    methodology | tournament | fleet | live) ;;
    *)
        echo "perf_pairs: unknown workload '$workload'" >&2
        exit 2
        ;;
esac
pairs=$3
first_seed=$4
seconds=$(python3 -c \
    'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
for value in "$pairs" "$first_seed"; do
    [[ $value =~ ^[0-9]{1,18}$ ]] || {
        echo "perf_pairs: '$value' is not a whole decimal number" >&2
        exit 2
    }
done
# Base 10 explicitly: bash reads a leading zero as octal.
pairs=$((10#$pairs))
first_seed=$((10#$first_seed))
((pairs >= 1)) || usage

if ! git diff --quiet "$base" HEAD -- perfbench BENCHMARK.json; then
    echo "perf_pairs: perfbench/ or BENCHMARK.json differs between" \
        "$1 and HEAD; the two sides would run different benchmarks" >&2
    exit 2
fi
if ! git diff --quiet HEAD -- perfbench BENCHMARK.json; then
    echo "perf_pairs: perfbench/ or BENCHMARK.json has uncommitted" \
        "changes" >&2
    exit 2
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"

side_dir() {
    if [[ $1 == base ]]; then echo "$tmp/base"; else echo "$head_dir"; fi
}

# run SIDE ARGS...: one run.py invocation on SIDE; its result line is
# appended to $tmp/SIDE.jsonl, its stderr to $tmp/SIDE.log.
run() {
    local side=$1
    shift
    local line
    if ! line=$(cd "$(side_dir "$side")" &&
        python3 perfbench/run.py "$@" 2>>"$tmp/$side.log" | tail -n 1); then
        echo "perf_pairs: $side run failed: run.py $*" >&2
        tail -n 20 "$tmp/$side.log" >&2
        exit 1
    fi
    if ! python3 -c '
import json, sys
result = json.loads(sys.argv[1])
sys.exit(0 if result.get("correct") is True and result.get("failed") == 0
         else 1)' "$line" 2>/dev/null; then
        echo "perf_pairs: $side run reported a failure: run.py $*" >&2
        echo "$line" >&2
        exit 1
    fi
    echo "$line" >>"$tmp/$side.jsonl"
}

for side in base head; do
    echo "perf_pairs: building $side" >&2
    run "$side" --workload "$workload" --seed 1 --seconds 1 --trace 0 \
        --size tiny
    rm -f "$tmp/$side.jsonl"
done

for ((i = 0; i < pairs; ++i)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then order="base head"; else order="head base"; fi
    for side in $order; do
        run "$side" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0
    done
    echo "perf_pairs: pair $((i + 1))/$pairs (seed $seed) done" >&2
done

python3 - "$tmp/base.jsonl" "$tmp/head.jsonl" BENCHMARK.json \
    "$workload" "$pairs" "$first_seed" "$seconds" "$base" <<'PY'
import json
import statistics
import sys

base_path, head_path, bench_path, workload, pairs, first, seconds, sha = \
    sys.argv[1:]


def load(path):
    with open(path) as f:
        return [json.loads(line)["metrics"] for line in f]


base_runs, head_runs = load(base_path), load(head_path)
pairs, first = int(pairs), int(first)
print(f"workload {workload}: {pairs} pairs, seeds {first}-"
      f"{first + pairs - 1}, {seconds} s runs; BASE {sha[:12]}, HEAD "
      "the checkout")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


print(f"{'metric':<12} {'BASE median [q1, q3]':<28} "
      f"{'HEAD median [q1, q3]':<28} {'change':>8} {'HEAD wins':>10}")
for metric in json.load(open(bench_path))["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    b = [run[name]["value"] for run in base_runs]
    h = [run[name]["value"] for run in head_runs]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
    bq1, bmed, bq3 = quartiles(b)
    hq1, hmed, hq3 = quartiles(h)
    change = (hmed - bmed) / bmed * 100 if bmed else float("nan")
    print(f"{name:<12} {f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':<28} "
          f"{f'{hmed:.4g} [{hq1:.4g}, {hq3:.4g}]':<28} "
          f"{change:>+7.1f}% {f'{wins}/{pairs}':>10}")
PY
