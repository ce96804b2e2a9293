#!/usr/bin/env bash
# Repo CI gate. Runs fully offline: all third-party deps are vendored under
# crates/. `./ci.sh` is the merge gate (fmt, clippy, rustdoc links, build,
# every test suite, the repo benchmark's smoke run and unit tests);
# `./ci.sh <stage>` runs one of the stages below, each of which announces
# what it checks as it goes. The
# gate is the only place a test suite runs at its own case counts: a stage
# holds what `cargo test` does not — golden diffs of the campaign and ablation
# rows, the trace pins, the sim fingerprints, the crash suites at 3 000 cases.
# Every stage is seeded and deterministic, hence blocking in
# .github/workflows/ci.yml.
# Host time is measured in one place only, the repo benchmark (BENCHMARK.json).
# `ICASH_BLESS=1 ./ci.sh bless` rewrites every pin those stages diff, in one
# pass, for a change that declares it moves simulated values.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p target # every stage's outputs, which a fresh checkout lacks
STAGES="golden fingerprints crash"
# EXPERIMENTS.md's winner-shape count. A bless does not move it: a change
# that flips an exhibit's winner edits this line and says so.
WINNERS=16/21

step() { echo "==> $*"; }
run() { step "$*" && "$@"; }                     # announce a command, run it
bins() { cargo build -q --release -p icash-bench; }
# Maps keyed by an address or an id take icash_storage::hash::{AddrMap,
# AddrSet, AddrPages}: a default-hasher one in product code (a file's
# `#[cfg(test)]` tail is exempt) pays SipHash on every block touched.
lint_hashers() {
  step "lint: no default-hasher map with an integer key outside #[cfg(test)]"
  local f bad=0
  for f in $(find crates/{storage,core,workloads,baselines}/src -name '*.rs' | sort); do
    # (pipefail: the pipeline succeeds only when grep found a line.)
    if sed '/^#\[cfg(test)\]/,$d' "$f" |
      grep -nE 'Hash(Map|Set)<(Lba|u64|u32|usize)\b' | sed "s|^|$f:|" >&2; then
      bad=1
    fi
  done
  if ((bad)); then
    echo "    use icash_storage::hash::{AddrMap, AddrSet} for these, or AddrPages for an" >&2
    echo "    Lba-keyed map looked up in runs of neighbouring addresses" >&2
    return 1
  fi
}

# Checks an output against its pin. Under `bless` the first output for a pin
# rewrites it and any later one for the same pin is diffed against that, so
# the cross-thread and knob-off identities still hold while blessing.
BLESSING=0
declare -A BLESSED=()
pin() {
  local got=$1 want=$2
  if ((BLESSING)) && [[ -z ${BLESSED[$want]:-} ]]; then
    BLESSED[$want]=1
    cp "$got" "$want"
  else
    diff "$got" "$want"
  fi
}

# One row per exhibit of a run_all report: title, paper winner, measured
# winner and I-CASH's measured value, tab-separated.
winners() {
  awk -F'|' '
    /^### / { title = substr($0, 5) }
    /^\| I-CASH \|/ { icash = $4; gsub(/ /, "", icash) }
    /^\*Paper winner:/ { split($0, w, /\*\*/); print title "\t" w[2] "\t" w[4] "\t" icash }
  ' "$1"
}

# run_all's 300-op trace JSONL (sha256 + line count) under the given
# environment must equal ci/golden/<pin>.sha256.
trace_pin() {
  local tag=$1 pin=$2 && shift 2
  step "golden ($tag): run_all trace JSONL vs ci/golden/$pin.sha256"
  env ICASH_OPS=300 ICASH_THREADS=1 "$@" ./target/release/run_all \
    "target/golden_$tag.md" --trace "target/golden_$tag.jsonl" > /dev/null
  {
    sha256sum "target/golden_$tag.jsonl" | cut -d' ' -f1
    wc -l < "target/golden_$tag.jsonl"
  } > "target/golden_$tag.sha256"
  pin "target/golden_$tag.sha256" "ci/golden/$pin.sha256"
}

# The knobs explicitly at their defaults: must be byte-identical to unset.
OFF=(ICASH_FULL=0 ICASH_SHARDS=1)
# Every ci/golden/*.txt an `exhibit` row prints, one entry each: the row, its
# golden, the ICASH_THREADS values it runs at ("-" leaves the knob unset:
# every worker, which arms campaign_scale's 4x wall-speedup assert on a host
# with >= 8) and its environment. The faults campaign at depth 1 is the
# knobs-off byte-identity check, with the knobs unset and explicitly off;
# its golden was pinned before any optional feature existed.
# crates/bench's exhibits tests hold this list to the rows and to ci/golden/.
ROWS=(
  "campaign_faults run_faults_depth1 -"
  "campaign_faults run_faults_depth1 - ${OFF[*]}"
  "campaign_faults_depth4 run_faults_depth4 -"
  "campaign_scale run_scale 1,2,-"
  "campaign_scale_queue16 run_scale_queue16 -"
  "campaign_chaos run_chaos 1,7"
  "campaign_scenarios campaign_scenarios 1,4"
  "ablation_codec ablation_codec - ICASH_OPS=8000"
  "ablation_delta_threshold ablation_delta_threshold - ICASH_OPS=8000"
  "ablation_embedded_cpu ablation_embedded_cpu - ICASH_OPS=8000"
  "ablation_group_commit ablation_group_commit - ICASH_OPS=8000"
  "ablation_preload ablation_preload - ICASH_OPS=8000"
  "ablation_queue_depth ablation_queue_depth - ICASH_OPS=8000"
  "ablation_queue_depth_pressure ablation_queue_depth_pressure - ICASH_OPS=8000"
  "ablation_scan_interval ablation_scan_interval - ICASH_OPS=8000"
)

pin_rows() {
  local entry row golden threads knobs t vars
  for entry in "${ROWS[@]}"; do
    read -r row golden threads knobs <<< "$entry"
    for t in ${threads//,/ }; do
      read -ra vars <<< "$knobs"
      [[ $t == - ]] || vars+=("ICASH_THREADS=$t")
      step "exhibit $row (${vars[*]:-knobs unset}) vs ci/golden/$golden.txt"
      env "${vars[@]}" ./target/release/exhibit "$row" > "target/$golden.txt"
      pin "target/$golden.txt" "ci/golden/$golden.txt"
    done
  done
}

stage_golden() {
  bins
  pin_rows
  trace_pin unset run_all_trace_depth1
  trace_pin off run_all_trace_depth1 "${OFF[@]}"
  # The one pin on a sharded harness cell: every architecture striped over
  # four shards sized by IcashConfig::shard_slice, at two worker counts.
  for threads in 1 2; do
    trace_pin "shards4_$threads" run_all_trace_shards4 ICASH_SHARDS=4 ICASH_THREADS=$threads
  done
  # The paper report is a golden: run_all's default report (host timings
  # go to stderr) at two workers, with its winner count held to $WINNERS.
  step "golden: default run_all report (ICASH_THREADS=2) vs EXPERIMENTS.md, $WINNERS winners"
  ICASH_THREADS=2 ./target/release/run_all target/experiments.md 2> target/experiments.err
  ((BLESSING)) || check_winners target/experiments.md
  pin target/experiments.md EXPERIMENTS.md
}

check_winners() {
  if ! grep -q "^\*\*Winner-shape summary: $WINNERS exhibits" "$1"; then
    grep "Winner-shape summary" "$1" >&2
    echo "    the winner count moved from $WINNERS: a change that flips a winner" >&2
    echo "    declares it and edits WINNERS in ci.sh" >&2
    return 1
  fi
}

stage_fingerprints() {
  # "Sim unmoved" in one command. The repo benchmark's sim.fingerprint hashes
  # every simulated value of a workload's run, so a host-speed change must
  # leave all of these where they are (benchmark/baseline/ is for host
  # numbers and may lag; this file may not). No tracked file under
  # benchmark/ is written: results go to target/.
  step "sim.fingerprint per (seed, benchmark workload) vs ci/golden/bench_fingerprints.txt"
  while read -r seed workload _; do
    benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 0 --trace 0 \
      --out target/fingerprints |
      awk -v id="$seed $workload" '$1 == "sim.fingerprint" { print id, $2 }'
  done < ci/golden/bench_fingerprints.txt > target/bench_fingerprints.txt
  pin target/bench_fingerprints.txt ci/golden/bench_fingerprints.txt
}

# Checksums of every file a bless may rewrite: the ci/golden pins, the test
# suites' goldens and the report.
pin_sums() { sha256sum ci/golden/* tests/golden/* crates/*/tests/golden/* EXPERIMENTS.md; }

# Every pin in one pass: the stages above with `pin` rewriting, the test
# suites that honour ICASH_BLESS (twice: a profile golden is computed from
# the event golden compiled into its test), then one row per exhibit of
# EXPERIMENTS.md against the report it replaced, and last the pin files
# the bless changed.
stage_bless() {
  if [[ ${ICASH_BLESS:-} != 1 ]]; then
    echo "ci.sh bless rewrites every golden; run it as ICASH_BLESS=1 ./ci.sh bless" >&2
    exit 2
  fi
  pin_sums > target/pins_parent.sha256
  cp EXPERIMENTS.md target/experiments_parent.md
  BLESSING=1
  stage_golden
  stage_fingerprints
  step "golden files of the test suites that honour ICASH_BLESS"
  for _ in 1 2; do
    cargo test -q --release -p icash-metrics --test golden_trace
    cargo test -q --release -p icash-storage --lib trace
    cargo test -q --release --test identity --test pipeline --test golden_replay
  done
  step "exhibits: paper winner, parent and change (winner, I-CASH's value)"
  echo "| Exhibit | Paper | Parent | Change | I-CASH parent -> change | Winner |"
  echo "|---|---|---|---|---:|---|"
  paste <(winners target/experiments_parent.md) <(winners EXPERIMENTS.md) | awk -F'\t' '{
    flip = $1 != $5 ? "exhibit list moved" : $3 == $7 ? "same" : "FLIPPED"
    printf "| %s | %s | %s | %s | %s -> %s | %s |\n", $1, $2, $3, $7, $4, $8, flip
  }'
  step "pin files this bless changed"
  pin_sums | { diff target/pins_parent.sha256 - || true; } |
    sed -n 's/^> [0-9a-f]*  /    /p' > target/pins_moved.txt
  if [[ -s target/pins_moved.txt ]]; then cat target/pins_moved.txt; else echo "    no pin moved"; fi
  check_winners EXPERIMENTS.md
}

case "${1:-gate}" in
golden) stage_golden ;;
fingerprints) stage_fingerprints ;;
bless) stage_bless ;;
crash)
  # What every change to the delta log, its barriers or recovery runs: the
  # crash properties (torn writes, group commit, 64-block logs, two crashes)
  # at 3 000 cases each, optimised.
  step "crash properties at PROPTEST_CASES=3000: fault_recovery, crash_recovery"
  PROPTEST_CASES=3000 cargo test -q --release --test fault_recovery --test crash_recovery
  ;;
gate)
  run cargo fmt --check
  run cargo clippy --workspace --all-targets -- -D warnings
  run cargo clippy -q -p icash-core -p icash-storage -p icash-delta -p icash-workloads --no-deps -- \
    -D warnings -D clippy::unwrap_used
  lint_hashers
  # Intra-doc links: a moved module or a deleted field must not leave a
  # dangling or private link behind.
  run env RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline
  run cargo build --release
  run cargo test -q --workspace
  # The repo benchmark is a package of its own that path-depends on crates/*:
  # invisible to the workspace build above, so a renamed `pub` item it
  # imports, or a broken mirror, would otherwise surface only in the pipeline.
  run benchmark/smoke.sh
  # Its unit tests, the mirror/driver differential among them, run nowhere
  # else (they write only the git-ignored benchmark/target).
  run cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
  ;;
*)
  echo "ci.sh: unknown stage '$1'; stages: $STAGES (no argument = the merge gate; ICASH_BLESS=1 ./ci.sh bless re-pins them)" >&2
  exit 2
  ;;
esac
echo "${1:-CI} OK" | tr '[:lower:]' '[:upper:]'
