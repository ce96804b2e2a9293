#!/usr/bin/env bash
# The repo benchmark's one command (BENCHMARK.json names it).
#
#   benchmark/run.sh                      every workload, full protocol
#   benchmark/run.sh --workload hit_read  one workload
#   benchmark/run.sh --list               workload and metric names
#
# Also: --seed <n>  --seconds <n>  --trace 0|1  --scale-div <n>  --out <dir>
# (see README.md). Builds the package offline first; each workload runs in
# a process of its own, one thread, one after the other.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/icash-benchmark"

for arg in "$@"; do
    case "$arg" in
    --workload | --list) exec "$bin" "$@" ;;
    esac
done
for workload in $("$bin" --list | awk '$1 == "workload" { print $2 }'); do
    "$bin" --workload "$workload" "$@"
done
