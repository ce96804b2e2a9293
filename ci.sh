#!/usr/bin/env bash
# Repo CI gate. Runs fully offline: all third-party deps are vendored under
# crates/. `./ci.sh` is the merge gate (fmt, clippy, build, every test suite,
# repo benchmark smoke); `./ci.sh <stage>` runs one of the stages below, each
# of which announces what it checks as it goes. The gate is the only place a
# test suite runs at its own case counts: a stage holds what `cargo test` does
# not — golden diffs of the campaign bins and the ablation tables,
# trace_profile greps, the crash suites at 3 000 cases. Every stage is seeded
# and deterministic, hence blocking in .github/workflows/ci.yml.
# Host time is measured in one place only, the repo benchmark (BENCHMARK.json).
set -euo pipefail
cd "$(dirname "$0")"
STAGES="golden fingerprints scale queue chaos scenarios crash"

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
  diff "target/golden_$tag.sha256" "ci/golden/$pin.sha256"
}

# The only copy of the feature-off byte-identity check: under the given
# environment, run_faults' stdout and run_all's trace JSONL must equal the
# goldens pinned before any optional feature existed.
golden() {
  local tag=$1 && shift
  step "golden ($tag): run_faults stdout vs ci/golden/run_faults_depth1.txt"
  env "$@" ./target/release/run_faults > "target/golden_$tag.faults.txt"
  diff "target/golden_$tag.faults.txt" ci/golden/run_faults_depth1.txt
  trace_pin "$tag" run_all_trace_depth1 "$@"
}

case "${1:-gate}" in
golden)
  bins
  golden unset
  golden off ICASH_FULL=0 ICASH_GROUP_COMMIT=1 ICASH_SHARDS=1 \
    ICASH_HEALTH=0 ICASH_SCENARIO=0 ICASH_QUEUE_ASSERT=0
  # The one pin on a sharded harness cell: every architecture striped over
  # four shards sized by IcashConfig::shard_slice, at two worker counts.
  for threads in 1 2; do
    trace_pin "shards4_$threads" run_all_trace_shards4 ICASH_SHARDS=4 ICASH_THREADS=$threads
  done
  # The campaign at a depth the synchronous goldens above cannot reach: the
  # staging buffer, its group commits and the crash cells' barriers.
  step "golden (depth 4): run_faults stdout vs ci/golden/run_faults_depth4.txt"
  ICASH_GROUP_COMMIT=4 ./target/release/run_faults > target/golden_depth4.faults.txt
  diff target/golden_depth4.faults.txt ci/golden/run_faults_depth4.txt
  step "every ablation table (exhibit <name>, ICASH_OPS=8000) vs ci/golden/<name>.txt"
  for pin in ci/golden/ablation_*.txt; do
    name=$(basename "$pin" .txt)
    ICASH_OPS=8000 ./target/release/exhibit "$name" > "target/$name.txt"
    diff "target/$name.txt" "$pin"
  done
  ;;
fingerprints)
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
  diff target/bench_fingerprints.txt ci/golden/bench_fingerprints.txt
  ;;
scale)
  bins
  step "run_scale campaign document vs ci/golden/run_scale.txt, at ICASH_THREADS 1 and 2"
  for threads in 1 2; do
    ICASH_THREADS=$threads ./target/release/run_scale > "target/run_scale_$threads.txt"
    diff "target/run_scale_$threads.txt" ci/golden/run_scale.txt
  done
  if [[ "$(nproc)" -ge 8 ]]; then
    step "run_scale on all $(nproc) workers: the 8-vs-1-shard wall speedup must reach 4x"
    ICASH_SCALE_ASSERT=4x ./target/release/run_scale > target/run_scale_all.txt
    diff target/run_scale_all.txt ci/golden/run_scale.txt
  fi
  ;;
queue)
  bins
  step "run_scale: queue-on must beat queue-off at 16 shards; document vs ci/golden/run_scale_queue16.txt"
  ICASH_OPS=4000 ICASH_SCALE_SHARDS=1,8,16 ICASH_SCALE_CLIENTS=4 ICASH_QUEUE_DEPTH=16 \
    ICASH_QUEUE_ASSERT=1 ./target/release/run_scale > target/run_scale_queue16.txt
  diff target/run_scale_queue16.txt ci/golden/run_scale_queue16.txt
  ;;
chaos)
  bins
  step "chaos campaign (run_chaos) vs ci/golden/run_chaos.txt, at ICASH_THREADS 1 and 7"
  for threads in 1 7; do
    ICASH_THREADS=$threads ./target/release/run_chaos > "target/run_chaos_$threads.txt"
    diff "target/run_chaos_$threads.txt" ci/golden/run_chaos.txt
  done
  tail -3 target/run_chaos_1.txt
  ;;
scenarios)
  bins
  step "scenario campaign (run_scenarios), output identical across ICASH_THREADS"
  ./target/release/run_scenarios > target/run_scenarios_a.txt
  ICASH_THREADS=4 ./target/release/run_scenarios > target/run_scenarios_b.txt
  diff target/run_scenarios_a.txt target/run_scenarios_b.txt
  tail -2 target/run_scenarios_a.txt
  step "burst arrivals queue in trace_profile; the closed loop does not"
  for arm in closed burst; do
    knobs=()
    [[ $arm == burst ]] && knobs=(ICASH_SCENARIO=open-loop ICASH_ARRIVAL=burst)
    env ICASH_OPS=300 ICASH_THREADS=1 "${knobs[@]}" ./target/release/run_all \
      "target/run_all_$arm.md" --trace "target/run_all_trace_$arm.jsonl" > /dev/null
    ./target/release/trace_profile "target/run_all_trace_$arm.jsonl" > "target/trace_profile_$arm.txt"
  done
  grep -q "Open-loop queued" target/trace_profile_burst.txt
  if grep -q "Open-loop" target/trace_profile_closed.txt; then exit 1; fi
  ;;
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
  run cargo build --release
  run cargo test -q --workspace
  # The repo benchmark is a package of its own that path-depends on crates/*:
  # invisible to the workspace build above, so a renamed `pub` item it
  # imports, or a broken mirror, would otherwise surface only in the pipeline.
  run benchmark/smoke.sh
  ;;
*)
  echo "ci.sh: unknown stage '$1'; stages: $STAGES (no argument = the merge gate)" >&2
  exit 2
  ;;
esac
echo "${1:-CI} OK" | tr '[:lower:]' '[:upper:]'
