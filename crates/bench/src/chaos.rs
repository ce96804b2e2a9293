//! The chaos campaign, row `campaign_chaos`: whole-device failures, degraded-mode service,
//! online rebuild and backpressure, exercised under live traffic with two
//! oracles held throughout:
//!
//! * **zero silent corruption** — every read returns a version of the
//!   block the history allows, or a typed error; never a splice;
//! * **availability** — service degrades instead of crashing: reads keep
//!   returning data-or-typed-error across a device death, writes after an
//!   HDD death fail fast with [`IoErrorKind::DeviceFailed`], and after
//!   `replace_ssd` the online rebuild returns the array to `Healthy`
//!   under traffic, after which fresh writes read back exactly.
//!
//! Grid (all cells deterministic in their seed; the campaign runs
//! sequentially, so output is independent of `ICASH_THREADS`):
//!
//! * fault storm: 5 systems x 2 seeds at a 1e-2 media-error rate
//! * SSD death → degraded service → replace → online rebuild:
//!   I-CASH x shard counts {1, 2} x 2 seeds
//! * HDD death → fail-fast writes: I-CASH x {1, 2} x 2 seeds
//! * second (HDD) death while the rebuild runs: I-CASH x {1, 2} x 2 seeds
//! * crash mid-rebuild → recovery: I-CASH x {1, 2} x 2 seeds
//! * backpressure: a tiny staging cap under a write burst, {1, 2} x 2 seeds
//!
//! Fails (after printing every violation) if any oracle fails, if a
//! scenario's machinery did not engage (no degraded reads, no rebuild
//! chunks, no busy rejections — a chaos campaign that never saw chaos
//! proves nothing), or on any panic.

use crate::campaign::{self, build_system, media_faults, verdict, Cell, Stamp, Tally};
use crate::harness::SystemKind;
use crate::RunConfig;
use icash_core::{Icash, IcashConfig, IcashStats};
use icash_storage::block::Lba;
use icash_storage::fault::{fault_roll, FaultPlan, HealthPolicy, HealthState};
use icash_storage::model::Allow;
use icash_storage::request::{Completion, IoErrorKind};
use icash_storage::shard::ShardRouter;
use icash_storage::system::StorageSystem;
use icash_storage::trace::{TraceStats, Tracer};
use std::sync::{Arc, Mutex};

/// Logical block space each cell works over.
const SPACE: u64 = 1024;
/// Mixed ops in the healthy warm-up phase of the death scenarios.
const WARM_OPS: u64 = 150;
/// Mixed ops driven while a device is failed (degraded service window).
const DEGRADED_OPS: u64 = 100;
/// Fresh write + readback pairs once an incident is over.
const FRESH_OPS: u64 = 50;
/// Upper bound on ops spent waiting for a deterministic state change
/// (monitor reaching `Failed`, rebuild draining). Hitting the bound is a
/// campaign failure, not a hang.
const WAIT_OPS: u64 = 20000;
/// Device-op index at which the armed device dies.
const DEATH_OP: u64 = 60;
/// Campaign seeds.
const SEEDS: [u64; 2] = [0xC4A0_0001, 0xC4A0_0002];
/// Shard-router widths the I-CASH scenarios run under.
const SHARDS: [u32; 2] = [1, 2];

/// This campaign's content stamp and op-roll salts; the pinned output
/// (`ci/golden/run_chaos.txt`) depends on every one of them.
const STAMP: Stamp = Stamp {
    fill: 0xC7,
    salt: 0xCA05,
};
const MIXED_SALT: u64 = 0xC405;
const FRESH_SALT: u64 = 0xF4E5;
const FAIL_FAST_SALT: u64 = 0xDEAD;
const OUTAGE_READ_SALT: u64 = 0x0D1E;
const BURST_SALT: u64 = 0xB0B0;

type Router = ShardRouter<Icash>;

/// A cell's counting sink: the one count of its health events.
type Events = Arc<Mutex<TraceStats>>;

/// What one I-CASH cell counted. `stats` holds each shard's controller
/// counters (degraded service); a crash resets them, so a crashing cell
/// keeps its pre-crash copies here too. `events` is the cell's counting
/// sink (transitions, busy rejections, backoffs, rebuild chunks): a crash
/// does not reset it, and the router tags every shard over it, so it
/// already holds the sum.
#[derive(Default)]
struct Seen {
    stats: Vec<IcashStats>,
    events: TraceStats,
}

impl Seen {
    /// `field` summed over every shard's controller counters.
    fn total(&self, field: impl Fn(&IcashStats) -> u64) -> u64 {
        self.stats.iter().map(field).sum()
    }
}

/// Attaches a fresh counting sink to `sys`.
fn counted<S: StorageSystem>(mut sys: S) -> (S, Events) {
    let (tracer, events) = Tracer::counting();
    sys.set_tracer(tracer);
    (sys, events)
}

fn icash_config(policy: HealthPolicy, depth: u64) -> IcashConfig {
    campaign::icash_config(depth).health(policy).build()
}

/// An I-CASH instance per shard behind a router (width 1 routes
/// identically), each [`IcashConfig::shard_slice`] of `cfg` — the slicing
/// rule of every sharded cell — and armed with its own seeded fault plan;
/// with the router's counting sink.
fn build_router(
    cfg: IcashConfig,
    shards: u32,
    plan_for_shard: impl Fn(u64) -> FaultPlan,
) -> (Router, Events) {
    let slice = cfg.shard_slice(shards);
    let systems: Vec<Icash> = (0..shards)
        .map(|s| Icash::new(slice.clone()).with_fault_plan(plan_for_shard(s as u64)))
        .collect();
    counted(ShardRouter::new(systems))
}

/// Mixed traffic (3:2 write:read), ops `ops` of the cell's seeded stream.
/// The oracle is the permissive one — any acknowledged version — because
/// these ops run across device deaths where reads may legally serve older
/// hardened copies.
fn drive<S: StorageSystem>(cell: &mut Cell<S>, seed: u64, ops: std::ops::Range<u64>) {
    for op in ops {
        cell.mixed(seed, MIXED_SALT, op, Allow::Held);
    }
}

/// A death-scenario cell over `sys`, through its healthy warm-up.
fn warmed(name: &str, sys: Router, seed: u64) -> Cell<Router> {
    let mut cell = Cell::new(name, sys, STAMP, SPACE);
    drive(&mut cell, seed, 0..WARM_OPS);
    cell
}

/// Drives mixed traffic from op `from` until `done` holds for **every
/// shard's** monitor states `(ssd, hdd)`, bounded by [`WAIT_OPS`]; records
/// a violation if the bound hits. Returns the next op of the stream.
fn drive_until(
    cell: &mut Cell<Router>,
    what: &str,
    seed: u64,
    from: u64,
    done: impl Fn((HealthState, HealthState)) -> bool,
) -> u64 {
    for op in from..from + WAIT_OPS {
        if cell.sys().shards().iter().all(|s| done(s.health_states())) {
            return op;
        }
        cell.mixed(seed, MIXED_SALT, op, Allow::Held);
    }
    cell.violation(format_args!("{what} not reached within {WAIT_OPS} ops"));
    from + WAIT_OPS
}

fn replace_ssds(cell: &mut Cell<Router>) {
    cell.io(|sys, _, now| {
        for shard in sys.shards_mut() {
            shard.replace_ssd(*now);
        }
    });
}

/// Whether the write of `lba` that completed as `done` was refused with
/// the typed error `kind`.
fn refused_with(done: &Completion, lba: u64, kind: IoErrorKind) -> bool {
    done.errors
        .iter()
        .any(|e| e.lba == Lba::new(lba) && e.kind == kind)
}

/// Final availability sweep: every block the history touched must read as
/// an acknowledged version or a typed error; at least one read must
/// actually return data (an all-errors sweep is no availability at all).
fn final_sweep<S: StorageSystem>(cell: &mut Cell<S>) {
    let (swept, errored) = cell.sweep(Allow::Held);
    if swept > 0 && errored == swept {
        cell.violation(format_args!(
            "availability sweep served zero of {swept} reads"
        ));
    }
}

/// Each shard's counters.
fn shard_stats(cell: &Cell<Router>) -> Vec<IcashStats> {
    cell.sys().shards().iter().map(Icash::stats).collect()
}

/// Every shard's internal structures cross-check; what the cell counted.
fn validated(cell: &Cell<Router>, events: &Events) -> Seen {
    cell.sys().shards().iter().for_each(Icash::debug_validate);
    Seen {
        stats: shard_stats(cell),
        events: events.lock().expect("counting sink").clone(),
    }
}

// ----------------------------------------------------------------------
// Scenarios
// ----------------------------------------------------------------------

/// SSD dies mid-run → degraded HDD-only service → `replace_ssd` → online
/// rebuild under traffic → healthy again, fresh writes exact.
fn cell_ssd_death(name: &str, seed: u64, shards: u32) -> (Seen, Tally) {
    let (sys, events) = build_router(icash_config(HealthPolicy::standard(), 1), shards, |s| {
        FaultPlan::seeded(seed + s).ssd_dies_at(DEATH_OP)
    });
    let mut cell = warmed(name, sys, seed);
    // The armed device op count passes during the warm-up; keep driving
    // until every shard's monitor has walked to `Failed`.
    let op = drive_until(&mut cell, "SSD Failed", seed, WARM_OPS, |(ssd, _)| {
        ssd == HealthState::Failed
    });
    // Degraded window: service continues HDD-only.
    drive(&mut cell, seed, op..op + DEGRADED_OPS);
    replace_ssds(&mut cell);
    // Rebuild rides the host I/O stream; drive until the array reports
    // Healthy again.
    drive_until(
        &mut cell,
        "rebuild completion",
        seed,
        op + DEGRADED_OPS,
        |(ssd, _)| ssd == HealthState::Healthy,
    );
    cell.fresh_service(seed, FRESH_SALT, FRESH_OPS);
    final_sweep(&mut cell);
    let seen = validated(&cell, &events);
    if seen.total(|s| s.degraded_reads + s.degraded_writes) == 0 {
        cell.violation("degraded service never engaged");
    }
    if seen.events.rebuild_chunks == 0 {
        cell.violation("rebuild never ran");
    }
    (seen, cell.finish())
}

/// HDD dies mid-run → writes fail fast with a typed `DeviceFailed` error
/// while reads keep serving RAM/SSD-resident state or typed errors.
fn cell_hdd_death(name: &str, seed: u64, shards: u32) -> (Seen, Tally) {
    let (sys, events) = build_router(icash_config(HealthPolicy::standard(), 1), shards, |s| {
        FaultPlan::seeded(seed + s).hdd_dies_at(DEATH_OP)
    });
    let mut cell = warmed(name, sys, seed);
    let op = drive_until(&mut cell, "HDD Failed", seed, WARM_OPS, |(_, hdd)| {
        hdd == HealthState::Failed
    });
    // Fail-fast contract: every write is refused with DeviceFailed (the
    // whole array is down once every shard's spindle is).
    for i in 0..20u64 {
        let lba = fault_roll(seed, FAIL_FAST_SALT, i, 0) % SPACE;
        let done = cell.write(lba);
        if !refused_with(&done, lba, IoErrorKind::DeviceFailed) {
            cell.violation(format_args!(
                "write to lba {lba} on a failed HDD was not refused with DeviceFailed"
            ));
        }
    }
    // Reads during the outage: valid-or-typed-error.
    for i in 0..DEGRADED_OPS {
        let lba = fault_roll(seed, OUTAGE_READ_SALT, op + i, 0) % SPACE;
        cell.read(lba, Allow::Held);
    }
    (validated(&cell, &events), cell.finish())
}

/// SSD death → replace → rebuild, with the HDD armed to die as the rebuild
/// traffic runs: the rebuild's home-copy reads start failing and service
/// must degrade further, never corrupt.
fn cell_death_during_rebuild(name: &str, seed: u64, shards: u32) -> (Seen, Tally) {
    // A slow rebuild stretches the window the second death lands in.
    let policy = HealthPolicy {
        rebuild_rate: 1,
        ..HealthPolicy::standard()
    };
    // Each shard sees ~1/width of the traffic, so its device-op clock runs
    // that much slower: scale the second death so it lands in the rebuild
    // window at every width.
    let hdd_death = (DEATH_OP * 16) / shards as u64;
    let (sys, events) = build_router(icash_config(policy, 1), shards, |s| {
        FaultPlan::seeded(seed + s)
            .ssd_dies_at(DEATH_OP)
            .hdd_dies_at(hdd_death)
    });
    let mut cell = warmed(name, sys, seed);
    let op = drive_until(&mut cell, "SSD Failed", seed, WARM_OPS, |(ssd, _)| {
        ssd == HealthState::Failed
    });
    replace_ssds(&mut cell);
    // Drive rebuild traffic until the armed HDD death lands on every
    // shard; the oracles hold across the compound failure.
    let op = drive_until(
        &mut cell,
        "HDD Failed during rebuild",
        seed,
        op,
        |(_, hdd)| hdd == HealthState::Failed,
    );
    drive(&mut cell, seed, op..op + DEGRADED_OPS);
    let seen = validated(&cell, &events);
    if seen.events.rebuild_chunks == 0 {
        cell.violation("rebuild never ran");
    }
    (seen, cell.finish())
}

/// SSD death → replace → crash mid-rebuild → recovery: every block reads
/// as an acknowledged version or a typed error, and post-recovery service
/// is exact.
fn cell_crash_during_rebuild(name: &str, seed: u64, shards: u32) -> (Seen, Tally) {
    let policy = HealthPolicy {
        rebuild_rate: 1, // crash lands with work still pending
        ..HealthPolicy::standard()
    };
    let (sys, events) = build_router(icash_config(policy, 1), shards, |s| {
        FaultPlan::seeded(seed + s).ssd_dies_at(DEATH_OP)
    });
    let mut cell = warmed(name, sys, seed);
    let op = drive_until(&mut cell, "SSD Failed", seed, WARM_OPS, |(ssd, _)| {
        ssd == HealthState::Failed
    });
    replace_ssds(&mut cell);
    // A little rebuild traffic, then the plug is pulled mid-task.
    drive(&mut cell, seed, op..op + 30);
    let before = shard_stats(&cell);
    let mut cell = cell.with_sys(|sys| {
        ShardRouter::new(
            sys.into_shards()
                .into_iter()
                .map(Icash::crash_and_recover)
                .collect(),
        )
    });
    // Everything the history acknowledged must still read valid-or-typed.
    final_sweep(&mut cell);
    cell.fresh_service(seed, FRESH_SALT, FRESH_OPS);
    let mut seen = validated(&cell, &events);
    seen.stats.extend(before);
    (seen, cell.finish())
}

/// A tiny staging cap under a pure write burst: admission control must
/// refuse with typed `Busy` errors (and never lose an acknowledged write).
fn cell_backpressure(name: &str, seed: u64, shards: u32) -> (Seen, Tally) {
    let policy = HealthPolicy {
        staging_cap: 2 * shards as u64, // the slice leaves 2 blocks per shard
        ..HealthPolicy::standard()
    };
    // A staging cap only bites when deltas actually sit in staging, which
    // needs the staged pipeline (depth > 1); at depth 1 every flush trigger
    // commits synchronously and the buffer is always empty.
    let (sys, events) = build_router(icash_config(policy, 8), shards, |s| {
        FaultPlan::seeded(seed + s)
    });
    let mut cell = Cell::new(name, sys, STAMP, SPACE);
    let mut busy = 0u64;
    for op in 0..400u64 {
        let lba = fault_roll(seed, BURST_SALT, op, 0) % SPACE;
        let done = cell.write(lba);
        if refused_with(&done, lba, IoErrorKind::Busy) {
            busy += 1;
        } else if done.failed(Lba::new(lba)) {
            cell.violation(format_args!(
                "fault-free write to lba {lba} failed with a non-Busy error"
            ));
        }
    }
    if busy == 0 {
        cell.violation("a 2-block staging cap never pushed back");
    }
    cell.io(|sys, ctx, now| *now = sys.flush(*now, ctx));
    // Every acknowledged write is readable; latest version exactly (no
    // faults were injected here).
    cell.sweep(Allow::Latest);
    (validated(&cell, &events), cell.finish())
}

/// A high-rate media-fault storm across all five architectures; I-CASH
/// runs with health armed so the backoff machinery absorbs the noise, and
/// is built concretely, with a counting sink, so its counters can be read.
fn cell_fault_storm(kind: SystemKind, seed: u64) -> (String, Seen, Tally) {
    let icash = icash_config(HealthPolicy::standard(), 1);
    let plan = media_faults(seed, 1e-2);
    if kind == SystemKind::Icash {
        let (sys, events) = counted(campaign::scrubbing_icash(icash, plan));
        return storm(sys, seed, |s| Seen {
            stats: vec![s.stats()],
            events: events.lock().expect("counting sink").clone(),
        });
    }
    storm(build_system(kind, &plan, icash), seed, |_| Seen::default())
}

/// One storm cell over `sys`, whose counters `seen` reads at the end.
fn storm<S: StorageSystem>(sys: S, seed: u64, seen: impl Fn(&S) -> Seen) -> (String, Seen, Tally) {
    let name = format!("storm/{}/{seed:#x}", sys.name());
    let mut cell = Cell::new(name.as_str(), sys, STAMP, SPACE);
    drive(&mut cell, seed, 0..300);
    cell.io(|sys, ctx, now| *now = sys.flush(*now, ctx));
    final_sweep(&mut cell);
    (name, seen(cell.sys()), cell.finish())
}

/// The I-CASH scenarios, each run per shard width and seed.
type Scenario = fn(&str, u64, u32) -> (Seen, Tally);
const SCENARIOS: [(&str, Scenario); 5] = [
    ("ssd-death", cell_ssd_death),
    ("hdd-death", cell_hdd_death),
    ("double-death", cell_death_during_rebuild),
    ("crash-rebuild", cell_crash_during_rebuild),
    ("backpressure", cell_backpressure),
];

/// Runs the campaign and renders its report.
pub fn render(_: &RunConfig) -> String {
    let mut doc = String::new();
    let mut cells = 0u64;
    let mut totals = Tally::default();
    let mut seen: Vec<Seen> = Vec::new();
    let mut fold = |name: String, s: Seen, r: Tally| {
        doc.push_str(&format!(
            "cell {name}: {} reads, {} typed errors, {} refused writes\n",
            r.reads, r.reported_errors, r.refused_writes
        ));
        cells += 1;
        totals.merge(r);
        seen.push(s);
    };

    for kind in SystemKind::ALL {
        for &seed in &SEEDS {
            let (name, s, r) = cell_fault_storm(kind, seed);
            fold(name, s, r);
        }
    }
    for &shards in &SHARDS {
        for &seed in &SEEDS {
            for (scenario, run) in SCENARIOS {
                let name = format!("{scenario}/s{shards}");
                let (s, r) = run(&name, seed, shards);
                fold(format!("{name}/{seed:#x}"), s, r);
            }
        }
    }

    doc.push_str(&format!(
        "chaos campaign: {cells} cells, {} verified reads, {} typed errors, {} refused writes\n",
        totals.reads, totals.reported_errors, totals.refused_writes
    ));
    // The I-CASH counts, summed over every cell and shard.
    let sum = |count: fn(&Seen) -> u64| seen.iter().map(count).sum::<u64>();
    let health = [
        (sum(|s| s.events.health_transitions), "transitions"),
        (sum(|s| s.total(|s| s.degraded_reads)), "degraded reads"),
        (sum(|s| s.total(|s| s.degraded_writes)), "degraded writes"),
        (sum(|s| s.events.backpressure_rejects), "busy rejections"),
        (sum(|s| s.events.retry_backoffs), "retry backoffs"),
        (sum(|s| s.events.rebuild_chunks), "rebuild chunks"),
    ];
    let printed = health.map(|(n, what)| format!("{n} {what}"));
    doc.push_str(&format!("health: {}\n", printed.join(", ")));
    // The campaign must have actually exercised every mechanism it exists
    // to test; a quiet pass would prove nothing.
    for (seen, what) in health {
        if seen == 0 {
            totals.violations.push(format!("no {what} observed"));
        }
    }
    verdict(
        doc,
        "CHAOS VIOLATION",
        &totals.violations,
        "CHAOS CAMPAIGN OK\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A crash mid-rebuild resets the controller's counters, not the
    /// cell's count: the transitions and rebuild chunks before the crash
    /// stay in it, and so do the degraded writes.
    #[test]
    fn a_crash_mid_rebuild_keeps_the_counts_from_before_it() {
        let (seen, tally) = cell_crash_during_rebuild("crash-rebuild/s1", SEEDS[0], 1);
        assert!(tally.violations.is_empty(), "{:?}", tally.violations);
        assert!(seen.events.health_transitions > 0, "no transition counted");
        assert!(seen.events.rebuild_chunks > 0, "no rebuild chunk counted");
        assert!(
            seen.total(|s| s.degraded_writes) > 0,
            "no degraded write counted"
        );
    }
}
