//! Differential guard for the device-health subsystem: disabled, it must
//! be invisible (the default build carries no health section and behaves
//! exactly as before); enabled on a fault-free run, it must be inert —
//! same completions, same traced event stream, all counters zero, every
//! device `Healthy`. The chaos campaign (`run_chaos`) exercises the
//! machinery under injected deaths; this file pins down what it costs
//! when nothing is dying: nothing.

mod common;

use common::Stream;
use icash::core::{Icash, IcashConfig};
use icash::storage::cpu::CpuModel;
use icash::storage::fault::{FaultPlan, HealthPolicy, HealthState};
use icash::storage::shard::ShardRouter;
use icash::storage::{BlockBuf, IoCtx, Ns, StorageSystem, ZeroSource};

const SEED: u64 = 0x4EA1_7500;
const STREAM: Stream = Stream {
    seed: SEED,
    salt: 0x4EA1,
    fill: 0x5A,
    span_reads: false,
};

fn config(health: Option<HealthPolicy>) -> IcashConfig {
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
    let (completions, _) = run(Icash::new(config(None)));
    let sys = Icash::new(config(None));
    assert!(
        sys.report(Ns::ZERO).health.is_none(),
        "a health-free build must not grow a health section in its report"
    );
    assert!(!completions.is_empty());
}

#[test]
fn enabled_health_is_inert_on_a_fault_free_run() {
    let (plain, plain_trace) = run(Icash::new(config(None)));
    let sys = Icash::new(config(Some(HealthPolicy::default())));
    let (t, traced, sys) = STREAM.run(sys, false, |op, done, data| {
        let expected = &plain[op as usize];
        assert_eq!(
            (&done, &data),
            (&expected.0, &expected.1),
            "op {op}: enabling health changed a fault-free completion"
        );
    });
    assert_eq!(
        plain_trace, traced,
        "enabling health changed the fault-free traced event stream"
    );
    let health = sys.report(t).health.expect("health section when enabled");
    assert_eq!(health.ssd, HealthState::Healthy);
    assert_eq!(health.hdd, HealthState::Healthy);
    assert_eq!(health.transitions, 0, "no transitions without faults");
    assert_eq!(health.degraded_reads + health.degraded_writes, 0);
    assert_eq!(health.busy_rejections, 0);
    assert_eq!(health.retry_backoffs, 0);
    assert_eq!(health.rebuild_chunks, 0);
}

#[test]
fn shard_health_is_isolated() {
    // Only shard 0's SSD is armed to die: its monitor must walk to
    // `Failed` while shard 1 stays `Healthy` with zero transitions, and
    // the merged array report surfaces the worst state.
    let policy = HealthPolicy::default();
    let shards: Vec<Icash> = (0..2u64)
        .map(|s| {
            let mut cfg = config(Some(policy)).shard_slice(2);
            cfg.health = Some(policy);
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
