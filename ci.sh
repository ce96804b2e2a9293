#!/usr/bin/env bash
# Repo CI gate. Runs fully offline: all third-party deps are vendored under
# crates/. `./ci.sh` is the merge gate (fmt, clippy, build, every test suite,
# repo benchmark smoke, bench smoke); `./ci.sh <stage>` runs one of the
# stages below, each of which announces what it checks as it goes. The gate
# is the only place a test suite runs: a stage holds what `cargo test` does
# not — golden diffs, campaign bins, bench_diff, trace_profile greps. Every
# stage but `bench` is seeded and deterministic, hence blocking in
# .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")"
STAGES="golden fingerprints faults pipeline scale queue chaos scenarios bench"

step() { echo "==> $*"; }
run() { step "$*" && "$@"; }                     # announce a command, run it
bins() { cargo build -q --release -p icash-bench; }
bench_diff() { cargo run -q --release -p icash-bench --bin bench_diff -- "$@"; }
# Maps keyed by an address or an id take icash_storage::hash::{AddrMap,
# AddrSet}: a default-hasher one in product code (a file's `#[cfg(test)]`
# tail is exempt) pays SipHash on every block touched.
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
    echo "    use icash_storage::hash::{AddrMap, AddrSet} for these" >&2
    return 1
  fi
}
run_benches() {
  for bench in "$@"; do
    CRITERION_JSON="$PWD/target/bench_${bench}_current.json" \
      cargo bench -q -p icash-bench --bench "$bench"
  done
}

# The only copy of the feature-off byte-identity check: under the given
# environment, run_faults' stdout and run_all's trace JSONL (sha256 + line
# count) must equal the goldens pinned before any optional feature existed.
golden() {
  local tag=$1 && shift
  step "golden ($tag): run_faults stdout vs ci/golden/run_faults_depth1.txt"
  env "$@" ./target/release/run_faults > "target/golden_$tag.faults.txt"
  diff "target/golden_$tag.faults.txt" ci/golden/run_faults_depth1.txt
  step "golden ($tag): run_all trace JSONL vs ci/golden/run_all_trace_depth1.sha256"
  env ICASH_OPS=300 ICASH_THREADS=1 "$@" ./target/release/run_all \
    "target/golden_$tag.md" --trace "target/golden_$tag.jsonl" > /dev/null
  {
    sha256sum "target/golden_$tag.jsonl" | cut -d' ' -f1
    wc -l < "target/golden_$tag.jsonl"
  } > "target/golden_$tag.sha256"
  diff "target/golden_$tag.sha256" ci/golden/run_all_trace_depth1.sha256
}

case "${1:-gate}" in
golden)
  bins
  golden unset
  golden off ICASH_FULL=0 ICASH_GROUP_COMMIT=1 ICASH_SHARDS=1 \
    ICASH_HEALTH=0 ICASH_SCENARIO=0 ICASH_QUEUE_ASSERT=0 ICASH_QUEUE_TREND_ASSERT=0
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
faults)
  run cargo run -q --release -p icash-bench --bin run_faults # zero silent corruption, fixed seeds
  ;;
pipeline)
  step "pipeline bench: depth 1 vs 16 write cycle vs BENCH_pipeline.json"
  run_benches pipeline
  bench_diff BENCH_pipeline.json target/bench_pipeline_current.json
  ;;
scale)
  step "run_scale campaign vs BENCH_scale.json"
  scale_env=(CRITERION_JSON="$PWD/target/bench_scale_current.json")
  if [[ "$(nproc)" -ge 8 ]]; then
    echo "    (>= 8 workers: enforcing the 4x 8-vs-1-shard wall speedup)"
    scale_env+=(ICASH_SCALE_ASSERT=4x)
  fi
  env "${scale_env[@]}" cargo run -q --release -p icash-bench --bin run_scale > target/run_scale.txt
  bench_diff BENCH_scale.json target/bench_scale_current.json
  ;;
queue)
  bins
  step "ablation depth trajectory vs BENCH_queue.json (+ trend assert)"
  ICASH_OPS=8000 ICASH_QUEUE_TREND_ASSERT=1 CRITERION_JSON="$PWD/target/bench_queue_current.json" \
    ./target/release/ablation_queue_depth > target/ablation_queue_depth.txt
  bench_diff BENCH_queue.json target/bench_queue_current.json
  step "run_scale: queue-on must beat queue-off at 16 shards (virtual throughput)"
  ICASH_OPS=4000 ICASH_SCALE_SHARDS=1,8,16 ICASH_SCALE_CLIENTS=4 ICASH_QUEUE_DEPTH=16 \
    ICASH_QUEUE_ASSERT=1 ./target/release/run_scale > target/run_scale_queue.txt
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
bench)
  step "bench trajectory: codec + controller vs BENCH_codec.json (BENCH_TOLERANCE, default 4x)"
  run_benches codec controller
  bench_diff BENCH_codec.json target/bench_codec_current.json target/bench_controller_current.json
  ;;
gate)
  run cargo fmt --check
  run cargo clippy --workspace --all-targets -- -D warnings
  run cargo clippy -q -p icash-core -p icash-storage -p icash-delta -p icash-workloads --no-deps -- \
    -D warnings -D clippy::unwrap_used
  lint_hashers
  run cargo build --release
  run cargo test -q --workspace
  run cargo test -q -p icash-storage --features debug_validate
  # The repo benchmark is a package of its own that path-depends on crates/*:
  # invisible to the workspace build above, so a renamed `pub` item it
  # imports, or a broken mirror, would otherwise surface only in the pipeline.
  run benchmark/smoke.sh
  step "bench smoke (benches must run and emit CRITERION_JSON)"
  run_benches codec controller
  test -s target/bench_codec_current.json
  test -s target/bench_controller_current.json
  for name in encode_similar encode_unrelated encode_zero_reference_unique \
    encode_inplace_family_warm encode_roundtrip_batch64; do
    grep -q "\"delta_codec/$name\"" target/bench_codec_current.json
  done
  ;;
*)
  echo "ci.sh: unknown stage '$1'; stages: $STAGES (no argument = the merge gate)" >&2
  exit 2
  ;;
esac
echo "${1:-CI} OK" | tr '[:lower:]' '[:upper:]'
