//! The device-health policy is a value, and the inert one is the identity:
//! under [`HealthPolicy::inert`] (every controller's default) the report
//! grows no health section and a faulted run takes the fixed, unpaced
//! retry ladder, pinned event by event; under [`HealthPolicy::standard`] a
//! fault-free run is indistinguishable from an inert one — same
//! completions, same traced event stream, all counters zero, every device
//! `Healthy`. The chaos campaign (`run_chaos`) exercises the machinery
//! under injected deaths; this file pins down what it costs when nothing is
//! dying: nothing.

mod common;

use common::Stream;
use icash::core::{Icash, IcashConfig};
use icash::storage::cpu::CpuModel;
use icash::storage::fault::{FaultPlan, HealthPolicy, HealthState};
use icash::storage::shard::ShardRouter;
use icash::storage::{BlockBuf, IoCtx, Ns, StorageSystem, ZeroSource};
use std::collections::HashMap;

const SEED: u64 = 0x4EA1_7500;
const STREAM: Stream = Stream {
    seed: SEED,
    salt: 0x4EA1,
    fill: 0x5A,
    span_reads: false,
};

fn config(health: HealthPolicy) -> IcashConfig {
    let mut cfg = common::config();
    cfg.health = health;
    cfg
}

/// Runs the fixed workload and returns (per-op completions, traced JSONL).
fn run(sys: Icash) -> (Vec<(Ns, Vec<BlockBuf>)>, Vec<String>) {
    let mut completions = Vec::new();
    let (_, jsonl, _) = STREAM.run(sys, false, |_, done, data| completions.push((done, data)));
    (completions, jsonl)
}

#[test]
fn disabled_health_reports_no_health_section() {
    assert!(
        common::config().health == HealthPolicy::inert(),
        "a controller is inert unless told otherwise"
    );
    let (t, _, sys) = STREAM.run(
        Icash::new(config(HealthPolicy::inert())),
        false,
        |_, _, _| {},
    );
    assert!(
        sys.report(t).health.is_none(),
        "an inert policy must not grow a health section in the report"
    );
}

#[test]
fn enabled_health_is_inert_on_a_fault_free_run() {
    let (plain, plain_trace) = run(Icash::new(config(HealthPolicy::inert())));
    let sys = Icash::new(config(HealthPolicy::standard()));
    let (t, traced, sys) = STREAM.run(sys, false, |op, done, data| {
        let expected = &plain[op as usize];
        assert_eq!(
            (&done, &data),
            (&expected.0, &expected.1),
            "op {op}: the standard policy changed a fault-free completion"
        );
    });
    assert_eq!(
        plain_trace, traced,
        "the standard policy changed the fault-free traced event stream"
    );
    let health = sys.report(t).health.expect("a standard policy reports");
    assert_eq!(health.ssd, HealthState::Healthy);
    assert_eq!(health.hdd, HealthState::Healthy);
    assert_eq!(health.transitions, 0, "no transitions without faults");
    assert_eq!(health.degraded_reads + health.degraded_writes, 0);
    assert_eq!(health.busy_rejections, 0);
    assert_eq!(health.retry_backoffs, 0);
    assert_eq!(health.rebuild_chunks, 0);
}

/// The fault ladder without health monitoring, pinned event by event:
/// seeded HDD read and write errors over the shared stream, so a failed
/// read is retried once and a failed write up to three times, unpaced
/// (`fault_retry` lines, never `retry_backoff`). Regenerate intentionally
/// with `ICASH_BLESS=1 cargo test -p icash --test health_free`.
#[test]
fn unmonitored_fault_ladder_matches_the_pinned_trace() {
    const GOLDEN: &str = include_str!("golden/fault_ladder.jsonl");
    let plan = FaultPlan::seeded(SEED)
        .hdd_read_errors(0.2)
        .hdd_write_errors(0.5);
    let sys = Icash::new(common::config()).with_fault_plan(plan);
    let (t, jsonl, _) = STREAM.run(sys, true, |_, _, _| {});
    let mut text: String = jsonl.iter().map(|line| format!("{line}\n")).collect();
    text.push_str(&format!("{{\"final_ns\":{}}}\n", t.as_ns()));
    if std::env::var("ICASH_BLESS").as_deref() == Ok("1") {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/fault_ladder.jsonl"
        );
        std::fs::write(path, &text).expect("regenerate golden fixture");
        return;
    }
    // Unpaced, every retry of one ladder is the same line (same instant,
    // same address): the deepest read ladder is one rung, the deepest
    // write ladder three.
    let mut rungs: HashMap<&str, u32> = HashMap::new();
    for line in text.lines().filter(|l| l.contains("\"fault_retry\"")) {
        *rungs.entry(line).or_default() += 1;
    }
    let deepest = |write: bool| {
        let kind = format!("\"write\":{write}");
        rungs
            .iter()
            .filter(|(l, _)| l.contains(&kind))
            .map(|(_, &n)| n)
            .max()
    };
    assert_eq!((deepest(false), deepest(true)), (Some(1), Some(3)));
    assert!(
        !text.contains("retry_backoff"),
        "an unmonitored ladder is unpaced"
    );
    assert!(
        text == GOLDEN,
        "the unmonitored fault ladder drifted from its pin"
    );
}

#[test]
fn shard_health_is_isolated() {
    // Only shard 0's SSD is armed to die: its monitor must walk to
    // `Failed` while shard 1 stays `Healthy` with zero transitions, and
    // the merged array report surfaces the worst state.
    let shards: Vec<Icash> = (0..2u64)
        .map(|s| {
            let cfg = config(HealthPolicy::standard()).shard_slice(2);
            let plan = if s == 0 {
                FaultPlan::seeded(SEED + s).ssd_dies_at(40)
            } else {
                FaultPlan::seeded(SEED + s)
            };
            Icash::new(cfg).with_fault_plan(plan)
        })
        .collect();
    let mut sys = ShardRouter::new(shards);
    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
    let mut t = Ns::ZERO;
    for op in 0..4_000u64 {
        let (done, _) = STREAM.step(&mut sys, &mut ctx, op, t);
        t = done;
        let sick = sys.shards()[0].report(t).health.expect("shard 0 health");
        if sick.ssd == HealthState::Failed {
            break;
        }
    }
    let sick = sys.shards()[0].report(t).health.expect("shard 0 health");
    let well = sys.shards()[1].report(t).health.expect("shard 1 health");
    assert_eq!(
        sick.ssd,
        HealthState::Failed,
        "shard 0's armed SSD death must drive its monitor to Failed"
    );
    assert_eq!(well.ssd, HealthState::Healthy);
    assert_eq!(well.hdd, HealthState::Healthy);
    assert_eq!(
        well.transitions, 0,
        "a healthy shard must not inherit its neighbour's transitions"
    );
    let merged = sys.report(t).health.expect("merged health");
    assert_eq!(
        merged.ssd,
        HealthState::Failed,
        "the array-wide report surfaces the worst shard"
    );
}
