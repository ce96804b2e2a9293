#!/usr/bin/env bash
# Alternating parent / change pairs of the repo benchmark, and their table.
#
#   tools/pairs/run.sh <parent-rev> [--workload W]... [--pairs N]
#                      [--seconds S] [--seed S]
#
# Builds benchmark/ twice, offline: the parent from `git archive
# <parent-rev>` and the change from the working tree, into
# target/pairs/{parent,change}. Then, per workload (default: every one in
# BENCHMARK.json), runs N pairs (default 5) at `--trace 0 --seconds S`
# (default 10), the side that goes first swapping every pair. A run
# without `correct: true` and `failed: 0` stops the script. The table
# (tools/pairs/report.py) gives, per end-to-end metric, each side's
# median [q1, q3], the change / parent ratio of the medians, the pairs the
# change won (direction from BENCHMARK.json) and an exact one-sided
# sign-test p. There is no stopping rule: N pairs are run, always.
# Every run's JSON stays under target/pairs/runs; nothing is written
# under benchmark/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."

usage() {
    sed -n '4,5p' "$0" | sed 's/^# *//' >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_rev=$1
shift
workloads=()
pairs=5
seconds=10
seed=
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
    --workload) workloads+=("$2") ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    --seed) seed=$2 ;;
    *) usage ;;
    esac
    shift 2
done
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

root=target/pairs
rev=$(git rev-parse --verify "$parent_rev^{commit}")
rm -rf "$root/parent/src" "$root/runs"
mkdir -p "$root/parent/src" "$root/runs"
git archive "$rev" | tar -x -C "$root/parent/src"

build() { # <side> <tree>
    echo "==> building $1 ($2)" >&2
    CARGO_TARGET_DIR="$root/$1" cargo build --release --offline -q \
        --manifest-path "$2/benchmark/Cargo.toml" >&2
}
build parent "$root/parent/src"
build change .

run() { # <side> <workload> <pair>
    local out="$root/runs/$2/$3/$1"
    local args=(--workload "$2" --seconds "$seconds" --trace 0 --out "$out")
    [ -n "$seed" ] && args+=(--seed "$seed")
    "$root/$1/release/icash-benchmark" "${args[@]}" >"$out.stdout"
    if ! grep -q '"correct": true' "$out/$2.json" || ! grep -q '"failed": 0,' "$out/$2.json"; then
        echo "error: $1 run $3 of $2 is not correct or failed ops ($out/$2.json)" >&2
        exit 1
    fi
}

for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        mkdir -p "$root/runs/$w/$i"
        if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
        echo "==> $w pair $((i + 1))/$pairs: ${order[*]}" >&2
        for side in "${order[@]}"; do run "$side" "$w" "$i"; done
    done
done

echo "# parent $rev, change = working tree; --seconds $seconds${seed:+ --seed $seed}, $pairs pairs"
python3 tools/pairs/report.py "$root/runs" "${workloads[@]}"
