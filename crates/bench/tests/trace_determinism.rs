//! Trace determinism: the JSONL event stream of every (system × workload)
//! cell must be byte-identical regardless of worker-thread count, and a
//! traced run's summaries must equal an untraced run's. Together with the
//! zero-perturbation guard (`tests/inert_free.rs` at the workspace root)
//! this pins the whole observability layer: tracing changes nothing, and
//! what it records is a pure function of the cell's inputs.

use icash_bench::harness::{run_plan, run_plan_traced, PlannedWorkload};
use icash_bench::RunConfig;
use icash_metrics::summary::RunSummary;
use icash_metrics::trace::parse_jsonl;
use icash_workloads::sysbench;

fn small_plan() -> [PlannedWorkload; 1] {
    let mut spec = sysbench::spec();
    spec.data_bytes = 16 << 20;
    spec.ssd_bytes = 2 << 20;
    spec.ram_bytes = 1 << 20;
    spec.default_ops = 800;
    [PlannedWorkload::Standard(spec)]
}

/// The run configuration at `threads` workers: op count pinned, no trace
/// artifact, every feature off.
fn config(threads: usize) -> RunConfig {
    RunConfig {
        threads: Some(threads),
        ops: Some(800),
        ..RunConfig::default()
    }
}

/// Per-cell `(system name, event JSONL)` pairs plus the canonical summary
/// rendering, for one traced run at the given worker count.
fn traced_run(threads: usize) -> (Vec<(String, String)>, String) {
    let results = run_plan_traced(&config(threads), &small_plan());
    let mut cells = Vec::new();
    let mut summaries = Vec::new();
    for (_, runs) in results {
        for (summary, text) in runs {
            cells.push((summary.system.clone(), text));
            summaries.push(summary);
        }
    }
    (cells, RunSummary::slice_to_json(&summaries))
}

#[test]
fn traces_are_bit_identical_across_worker_counts() {
    let (sequential, seq_json) = traced_run(1);
    let (parallel, par_json) = traced_run(4);
    assert_eq!(sequential.len(), 5, "five cells per plan");
    assert_eq!(seq_json, par_json, "worker count changed summaries");
    for ((name_a, text_a), (name_b, text_b)) in sequential.iter().zip(parallel.iter()) {
        assert_eq!(name_a, name_b, "cell order must be deterministic");
        assert!(
            !text_a.is_empty(),
            "{name_a}: traced cell recorded no events"
        );
        assert_eq!(
            text_a, text_b,
            "{name_a}: worker count changed the event stream"
        );
        // The artifact must round-trip: every line parses back to an event.
        let events = parse_jsonl(text_a).expect("well-formed JSONL");
        assert!(!events.is_empty(), "{name_a}: no events parsed");
    }
}

#[test]
fn tracing_does_not_change_summaries() {
    let untraced = run_plan(&config(2), &small_plan());
    let untraced_json: Vec<String> = untraced
        .iter()
        .map(|(spec, runs)| format!("{:?}:{}", spec.name, RunSummary::slice_to_json(runs)))
        .collect();
    let traced = run_plan_traced(&config(2), &small_plan());
    let traced_json: Vec<String> = traced
        .iter()
        .map(|(spec, runs)| {
            let summaries: Vec<RunSummary> = runs.iter().map(|(s, _)| s.clone()).collect();
            format!("{:?}:{}", spec.name, RunSummary::slice_to_json(&summaries))
        })
        .collect();
    assert_eq!(
        untraced_json, traced_json,
        "recording traces changed simulated results"
    );
}
