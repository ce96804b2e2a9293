//! Determinism regression test: the parallel harness must produce
//! bit-identical results regardless of worker count.
//!
//! Every (system × workload) cell owns its entire simulated world — devices,
//! clocks, RNGs — so scheduling cells across threads must not change any
//! simulation-determined number. The canonical [`RunSummary::slice_to_json`]
//! rendering (which deliberately excludes host wall time) is compared
//! across one and four workers — the count `ICASH_THREADS` sets, passed
//! here in the configuration so the test never touches the environment.

use icash_bench::harness::{run_plan, PlannedWorkload};
use icash_bench::RunConfig;
use icash_metrics::summary::RunSummary;
use icash_workloads::sysbench;

fn small_plan() -> [PlannedWorkload; 2] {
    let mut a = sysbench::spec();
    a.data_bytes = 16 << 20;
    a.ssd_bytes = 2 << 20;
    a.ram_bytes = 1 << 20;
    a.default_ops = 1_000;
    let mut b = a.clone();
    b.name = "SysBench-b".into();
    b.table4_writes = b.table4_reads; // different read/write mix
    b.zipf_exponent = 0.6;
    [PlannedWorkload::Standard(a), PlannedWorkload::Standard(b)]
}

fn run_with_threads(threads: usize) -> String {
    let cfg = RunConfig {
        threads: Some(threads),
        ops: Some(1_000),
        ..RunConfig::default()
    };
    let results = run_plan(&cfg, &small_plan());
    let json: Vec<String> = results
        .iter()
        .map(|(spec, runs)| format!("{:?}:{}", spec.name, RunSummary::slice_to_json(runs)))
        .collect();
    json.join("\n")
}

#[test]
fn parallel_replay_is_bit_identical_to_sequential() {
    let sequential = run_with_threads(1);
    let parallel = run_with_threads(4);
    // Ten (system × workload) cells, every simulation-determined field
    // identical down to the bit.
    assert!(sequential.contains("I-CASH"), "plan actually ran");
    assert_eq!(
        sequential, parallel,
        "worker count changed simulated results"
    );
    // And a second parallel run is stable too (no hidden global state).
    let parallel_again = run_with_threads(4);
    assert_eq!(parallel, parallel_again);
}
