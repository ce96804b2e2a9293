//! Property-based fault and crash testing: under arbitrary write
//! histories, seeded media-fault injection, and a crash (with torn
//! writes) at an arbitrary point, every block reads back as a version it
//! legitimately held — or as a *reported* media error. Never a splice,
//! never garbage, never a panic.

#[path = "common/ops.rs"]
mod ops;

use icash::core::delta_log::KEEP_PAYLOADS;
use icash::core::{Icash, IcashConfig};
use icash::storage::cpu::CpuModel;
use icash::storage::fault::{fault_roll, FaultPlan, HealthPolicy, HealthState};
use icash::storage::model::{Allow, VersionModel};
use icash::storage::queue::QueueConfig;
use icash::storage::request::IoErrorKind;
use icash::storage::shard::ShardRouter;
use icash::storage::{BlockBuf, IoCtx, Lba, Ns, Request, StorageSystem, ZeroSource};
use ops::{block_for, cold_sweep, icash_ops_strategy, ops_strategy, Family, SysOp, SPAN};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Staging depths the crash properties sweep: the synchronous cycle, a
/// shallow pipeline, and a deep one that leaves many tickets in flight.
const DEPTHS: [u64; 3] = [1, 4, 16];

fn base_config(depth: u64) -> IcashConfig {
    IcashConfig::builder(1 << 20, 256 << 10, 4 << 20)
        .scan_interval(40)
        .scan_window(64)
        .flush_interval(25)
        .log_blocks(1 << 14)
        .group_commit_depth(depth)
        .build()
}

/// Delta-log sizes the crash properties draw, in blocks: small logs clean
/// often, so a crash lands after a clean as well as after an append, and
/// the smallest — `IcashConfig::shard_slice`'s floor — fills with live
/// entries, so commits it cannot take go home.
const LOG_BLOCKS: [u64; 4] = [64, 256, 1 << 10, 1 << 14];

fn faulty_icash(seed: u64, rate: f64, depth: u64, log_blocks: u64) -> Icash {
    let mut cfg = base_config(depth);
    cfg.log_blocks = log_blocks;
    Icash::new(cfg).with_fault_plan(
        FaultPlan::seeded(seed)
            .hdd_read_errors(rate)
            .hdd_write_errors(rate)
            .ssd_read_errors(rate)
            .torn_writes()
            .scrub_every(97),
    )
}

/// A width-`n` router of independently faulty I-CASH shards, each built
/// from the shard slice of the pinned config — the same construction the
/// sharded harness uses. Per-shard fault streams are seeded apart so a
/// crash tears each shard's log differently.
fn sharded_faulty(width: u32, seed: u64, rate: f64, depth: u64) -> ShardRouter<Icash> {
    let slice = base_config(depth).shard_slice(width);
    ShardRouter::new(
        (0..width)
            .map(|shard| {
                Icash::new(slice.clone()).with_fault_plan(
                    FaultPlan::seeded(seed ^ ((shard as u64 + 1) << 13))
                        .hdd_read_errors(rate)
                        .hdd_write_errors(rate)
                        .ssd_read_errors(rate)
                        .torn_writes()
                        .scrub_every(97),
                )
            })
            .collect(),
    )
}

/// Runs `run` twice — as the log runs, releasing the payloads no read and
/// no recovery can reach, and with `KEEP_PAYLOADS` keeping every one — and
/// requires both to read the same bytes, block for block.
fn both_ways(run: impl Fn() -> Vec<(bool, BlockBuf)>) {
    let released = run();
    KEEP_PAYLOADS.with(|k| k.set(true));
    let kept = run();
    KEEP_PAYLOADS.with(|k| k.set(false));
    assert_eq!(released.len(), kept.len());
    for (n, (released, kept)) in released.iter().zip(&kept).enumerate() {
        assert!(released == kept, "read {n}: releasing payloads changed it");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Live service under injected faults: a read either reports a media
    /// error or returns the block's latest content — nothing in between.
    #[test]
    fn faulty_reads_are_current_or_reported(
        ops in icash_ops_strategy(),
        seed in 0u64..1000,
        rate_pick in 0usize..3,
        depth_pick in 0usize..3,
    ) {
        let rate = [1e-4, 1e-3, 1e-2][rate_pick];
        let mut system = faulty_icash(seed, rate, DEPTHS[depth_pick], 1 << 14);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut model = VersionModel::new();
        let mut now = Ns::ZERO;
        for op in &ops {
            let mut ctx = IoCtx::verifying(&backing, &mut cpu);
            match op {
                SysOp::Write { .. } | SysOp::WriteSpan { .. } => {
                    op.issue_write(&mut system, &mut now, &mut ctx, &mut model);
                }
                SysOp::Read { lba } => {
                    let req = Request::read(Lba::new(*lba), now);
                    let completion = system.submit(&req, &mut ctx);
                    prop_assert!(completion.finished >= now, "time ran backwards");
                    now = completion.finished;
                    prop_assert!(
                        completion.failed(Lba::new(*lba))
                            || model.allows(*lba, &completion.data[0], Allow::Latest),
                        "lba {}: not the latest",
                        lba
                    );
                }
                SysOp::Flush => now = system.flush(now, &mut ctx),
                SysOp::Barrier => {
                    let ticket = system.write_ticket();
                    now = system.sync(now, &mut ctx);
                    prop_assert!(
                        system.flushed_ticket() >= ticket,
                        "sync returned with tickets still in flight"
                    );
                }
                SysOp::ColdSweep { lap } => cold_sweep(*lap, &mut system, &mut now, &mut ctx),
            }
            system.debug_validate();
        }
    }

    /// Crash anywhere — with torn writes, injected faults, any staging
    /// depth (so up to K tickets are in flight, staged or mid-commit, when
    /// the power dies) and any log size: recovery must bring every block
    /// back to *some* version it held (or report the read failed), and
    /// never to one older than the last `flush` / `sync` that returned — a
    /// torn log frame must never splice foreign bytes, whether it carried
    /// one entry or a whole group commit, and may tear only an append no
    /// barrier covered. Releasing superseded log payloads changes no
    /// recovered read ([`both_ways`]).
    #[test]
    fn crash_with_torn_writes_never_splices(
        ops in icash_ops_strategy(),
        crash_at in 0usize..200,
        seed in 0u64..1000,
        rate_pick in 0usize..4,
        depth_pick in 0usize..3,
        log_pick in 0usize..4,
    ) {
        let rate = [0.0, 1e-4, 1e-3, 1e-2][rate_pick];
        both_ways(|| {
            let mut system = faulty_icash(seed, rate, DEPTHS[depth_pick], LOG_BLOCKS[log_pick]);
            let mut cpu = CpuModel::xeon();
            let backing = ZeroSource;
            let mut model = VersionModel::new();
            let mut now = Ns::ZERO;
            for op in ops.iter().take(crash_at.min(ops.len())) {
                let mut ctx = IoCtx::new(&backing, &mut cpu);
                op.apply(&mut system, &mut now, &mut ctx, &mut model);
                if matches!(op, SysOp::Flush | SysOp::Barrier) {
                    model.barrier();
                }
                system.debug_validate();
            }
            let mut recovered = system.crash_and_recover();
            recovered.debug_validate();
            let mut reads = Vec::new();
            for lba in model.written() {
                let req = Request::read(Lba::new(lba), now);
                let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                let completion = recovered.submit(&req, &mut ctx);
                now = completion.finished;
                let failed = completion.failed(Lba::new(lba));
                prop_assert!(
                    failed || model.allows(lba, &completion.data[0], Allow::Held),
                    "lba {lba}: recovered to a value it never held, or behind its barrier"
                );
                reads.push((failed, completion.data[0].clone()));
            }
            reads
        });
    }

    /// The sharded engine under the same contract: crash with up to K
    /// tickets in flight spread across several shards (deep group commit
    /// plus torn writes on every shard), recover each shard independently
    /// with its own highest-generation-wins replay, and re-assemble the
    /// router. Every outer block must come back as a version *it* held (or
    /// a reported error), never older than the last router `flush` /
    /// `sync` that returned — content is stamped with the outer address,
    /// so a recovery that spliced state across shards (distinct outer
    /// blocks share inner slots on different shards) can never pass. (No
    /// cold sweeps drawn: split over the shards, one stays under each
    /// table bound. The log keeps its pinned size: sliced five ways, a
    /// smaller one reaches `shard_slice`'s 64-block floor — ROADMAP item
    /// 4(0).)
    #[test]
    fn cross_shard_crash_recovery_never_splices_across_shards(
        ops in ops_strategy(),
        crash_at in 0usize..200,
        seed in 0u64..1000,
        rate_pick in 0usize..3,
        depth_pick in 0usize..3,
        width_pick in 0usize..3,
    ) {
        let rate = [0.0, 1e-4, 1e-3][rate_pick];
        let width = [2u32, 3, 5][width_pick];
        let mut system = sharded_faulty(width, seed, rate, DEPTHS[depth_pick]);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut model = VersionModel::new();
        let mut now = Ns::ZERO;
        for op in ops.iter().take(crash_at.min(ops.len())) {
            let mut ctx = IoCtx::new(&backing, &mut cpu);
            let ticket = system.write_ticket();
            op.apply(&mut system, &mut now, &mut ctx, &mut model);
            if matches!(op, SysOp::Flush | SysOp::Barrier) {
                prop_assert!(
                    system.flushed_ticket() >= ticket,
                    "cross-shard barrier returned with tickets in flight"
                );
                model.barrier();
            }
        }
        // Power dies on every shard at once; each recovers alone, then the
        // router is rebuilt over the survivors.
        let mut recovered = ShardRouter::new(
            system
                .into_shards()
                .into_iter()
                .map(Icash::crash_and_recover)
                .collect(),
        );
        for lba in model.written() {
            let req = Request::read(Lba::new(lba), now);
            let mut ctx = IoCtx::verifying(&backing, &mut cpu);
            let completion = recovered.submit(&req, &mut ctx);
            now = completion.finished;
            prop_assert!(
                completion.failed(Lba::new(lba))
                    || model.allows(lba, &completion.data[0], Allow::Held),
                "outer lba {lba}: recovered to a value it never held, or behind \
                 its barrier (possible cross-shard splice)"
            );
        }
    }

    /// The barrier durability contract: any write covered by an
    /// `await_flush`/`sync` that returned before the crash survives it —
    /// recovery may only roll a block forward of its last barrier-covered
    /// version, never behind it. (No media faults, so every read returns
    /// data; half the cases arm torn writes, which may tear only an append
    /// no barrier covered.) Half the cases run with a RAM pool of a few
    /// blocks and the flush interval out of reach, so the log commits when
    /// a delta needs room — inside a write, not between two. Releasing
    /// superseded log payloads changes no recovered read ([`both_ways`]).
    #[test]
    fn awaited_writes_survive_any_crash(
        ops in icash_ops_strategy(),
        crash_at in 0usize..200,
        depth_pick in 0usize..3,
        tight_ram in any::<bool>(),
        torn in any::<bool>(),
        seed in 0u64..1000,
        log_pick in 0usize..4,
    ) {
        let mut cfg = base_config(DEPTHS[depth_pick]);
        cfg.log_blocks = LOG_BLOCKS[log_pick];
        if tight_ram {
            cfg.ram_bytes = 64 << 10;
            cfg.flush_interval = 1_000_000;
        }
        let plan = if torn { FaultPlan::seeded(seed).torn_writes() } else { FaultPlan::none() };
        both_ways(|| {
            let mut system = Icash::new(cfg.clone()).with_fault_plan(plan.clone());
            let mut cpu = CpuModel::xeon();
            let backing = ZeroSource;
            // The model drops what a completed barrier superseded; `covered`
            // only picks the message a failure prints.
            let mut model = VersionModel::new();
            let mut covered: BTreeSet<u64> = BTreeSet::new();
            let mut now = Ns::ZERO;
            for op in ops.iter().take(crash_at.min(ops.len())) {
                let mut ctx = IoCtx::new(&backing, &mut cpu);
                if let SysOp::Barrier = op {
                    let ticket = system.write_ticket();
                    now = system.await_flush(ticket, now, &mut ctx);
                    prop_assert!(system.flushed_ticket() >= ticket);
                    model.barrier();
                    covered.extend(model.written());
                } else {
                    op.apply(&mut system, &mut now, &mut ctx, &mut model);
                }
                system.debug_validate();
            }
            let mut recovered = system.crash_and_recover();
            recovered.debug_validate();
            let mut reads = Vec::new();
            for lba in model.written() {
                let req = Request::read(Lba::new(lba), now);
                let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                let completion = recovered.submit(&req, &mut ctx);
                now = completion.finished;
                // Barrier-covered: only the durable version or something
                // newer is acceptable — rolling back past the barrier breaks
                // the await_flush contract. Never barriered: any held
                // version (or pre-history zeroes) is a legitimate crash
                // outcome.
                let broke = if covered.contains(&lba) {
                    "rolled back behind its barrier"
                } else {
                    "recovered to a value it never held"
                };
                prop_assert!(
                    model.allows(lba, &completion.data[0], Allow::Held),
                    "lba {lba}: {broke}"
                );
                reads.push((false, completion.data[0].clone()));
            }
            reads
        });
    }

    /// Two crashes with service in between, at group-commit depths 1 and 4,
    /// torn writes armed: every read — live, after the first recovery, and
    /// after the second — is a version the block held, and the same whether
    /// the log releases superseded payloads or keeps them all. (The
    /// release bookkeeping is RAM state: one that outlived the first crash
    /// would release entries whose successors the crash tore.)
    #[test]
    fn released_payloads_change_no_read_across_two_crashes(
        ops in icash_ops_strategy(),
        crashes in (0usize..200, 0usize..200),
        depth_pick in 0usize..2,
        seed in 0u64..1000,
        log_pick in 0usize..4,
    ) {
        let (first, second) = (crashes.0.min(crashes.1), crashes.0.max(crashes.1));
        let mut cfg = base_config([1, 4][depth_pick]);
        cfg.log_blocks = LOG_BLOCKS[log_pick];
        both_ways(|| {
            let plan = FaultPlan::seeded(seed).torn_writes();
            let mut system = Icash::new(cfg.clone()).with_fault_plan(plan);
            let mut cpu = CpuModel::xeon();
            let backing = ZeroSource;
            let mut model = VersionModel::new();
            let mut now = Ns::ZERO;
            let mut reads = Vec::new();
            let mut op_cpu = CpuModel::xeon();
            let mut read_all = |system: &mut Icash, model: &VersionModel, now: &mut Ns| {
                for lba in model.written() {
                    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                    let completion = system.submit(&Request::read(Lba::new(lba), *now), &mut ctx);
                    *now = completion.finished;
                    let got = completion.data[0].clone();
                    prop_assert!(model.allows(lba, &got, Allow::Held), "lba {lba}: never held");
                    reads.push((false, got));
                }
            };
            for (n, op) in ops.iter().enumerate().take(second.min(ops.len())) {
                if n == first {
                    system = system.crash_and_recover();
                    system.debug_validate();
                    read_all(&mut system, &model, &mut now);
                }
                let mut ctx = IoCtx::new(&backing, &mut op_cpu);
                op.apply(&mut system, &mut now, &mut ctx, &mut model);
                // The model's floor stays where the first crash found it: a
                // later barrier covers what that crash left, which may be
                // older than the newest version the model holds.
                if n < first && matches!(op, SysOp::Flush | SysOp::Barrier) {
                    model.barrier();
                }
                system.debug_validate();
            }
            let mut recovered = system.crash_and_recover();
            recovered.debug_validate();
            read_all(&mut recovered, &model, &mut now);
            reads
        });
    }
}

/// Reads `blocks` blocks from `lba` at `*now`, advancing the clock; returns
/// the first address that came back holding bytes it never held (a typed
/// error is an acceptable answer).
fn foreign_read(
    system: &mut Icash,
    model: &VersionModel,
    cpu: &mut CpuModel,
    now: &mut Ns,
    lba: u64,
    blocks: u32,
) -> Option<u64> {
    let mut ctx = IoCtx::verifying(&ZeroSource, cpu);
    let completion = system.submit(&Request::read_span(Lba::new(lba), blocks, *now), &mut ctx);
    *now = completion.finished;
    (lba..)
        .zip(&completion.data)
        .find(|&(l, got)| !completion.failed(Lba::new(l)) && !model.allows(l, got, Allow::Held))
        .map(|(l, _)| l)
}

/// Address span for the death-driving traffic. Deliberately wider than the
/// RAM delta buffer (unlike the scripted history's `SPAN`, which fits):
/// cold misses must keep touching the home disk, or an armed HDD death at
/// a given *device*-op count would take thousands of host ops to land.
const DRIVE_SPAN: u64 = 512;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whole-device death at an arbitrary device-op in an arbitrary
    /// history — optionally followed by a crash mid-rebuild, with or
    /// without a device queue batching span reads — is survivable. Every read during degraded service is a version the
    /// block legitimately held or a typed error; an HDD death fails
    /// writes fast with [`IoErrorKind::DeviceFailed`]; a replaced SSD
    /// rebuilds back to `Healthy` under live traffic and then serves
    /// fresh writes exactly; and the surviving controller passes full
    /// internal validation.
    #[test]
    fn device_death_anywhere_is_survivable(
        ops in icash_ops_strategy(),
        death_at in 1u64..120,
        kill_hdd in any::<bool>(),
        crash_mid_rebuild in any::<bool>(),
        seed in 0u64..1000,
        depth_pick in 0usize..3,
        queued in any::<bool>(),
    ) {
        let mut cfg = base_config(DEPTHS[depth_pick]);
        cfg.health = HealthPolicy::standard();
        cfg.queue = queued.then(|| QueueConfig::depth(8));
        let plan = if kill_hdd {
            FaultPlan::seeded(seed).hdd_dies_at(death_at)
        } else {
            FaultPlan::seeded(seed).ssd_dies_at(death_at)
        };
        let mut system = Icash::new(cfg).with_fault_plan(plan);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut model = VersionModel::new();
        let mut now = Ns::ZERO;
        for op in &ops {
            let hdd_down = system
                .report(now)
                .health
                .is_some_and(|h| h.hdd == HealthState::Failed);
            let mut ctx = IoCtx::verifying(&backing, &mut cpu);
            match op {
                SysOp::Write { .. } | SysOp::WriteSpan { .. } => {
                    // Only acknowledged writes join the history: a typed
                    // refusal must leave the block on its old versions.
                    op.issue_write(&mut system, &mut now, &mut ctx, &mut model);
                }
                SysOp::Read { lba } => {
                    let req = Request::read(Lba::new(*lba), now);
                    let completion = system.submit(&req, &mut ctx);
                    now = completion.finished;
                    if !completion.failed(Lba::new(*lba)) {
                        prop_assert!(
                            model.allows(*lba, &completion.data[0], Allow::Held),
                            "lba {}: degraded read returned a value it never held",
                            lba
                        );
                    }
                }
                // A barrier against a failed home disk is a liveness
                // question, not this property's (safety) contract: skip.
                SysOp::Flush if !hdd_down => now = system.flush(now, &mut ctx),
                SysOp::Barrier if !hdd_down => now = system.sync(now, &mut ctx),
                SysOp::Flush | SysOp::Barrier => {}
                SysOp::ColdSweep { lap } => cold_sweep(*lap, &mut system, &mut now, &mut ctx),
            }
            system.debug_validate();
        }
        // Keep traffic flowing until the armed death lands and the monitor
        // walks its ladder to `Failed` (the device-op clock only advances
        // on actual device accesses, so the bound is generous).
        let mut reached = false;
        for extra in 0..2_500u64 {
            let lba = fault_roll(seed, 0xD1E5, extra, 0) % DRIVE_SPAN;
            if fault_roll(seed, 0xD1E6, extra, lba) % 5 < 3 {
                let content = block_for(lba, (extra ^ lba) as u8, Family::Similar);
                let req = Request::write(Lba::new(lba), now, content.clone());
                let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                let completion = system.submit(&req, &mut ctx);
                now = completion.finished;
                if !completion.failed(Lba::new(lba)) {
                    model.ack(lba, content);
                }
            } else {
                // Every other read a span, so a queue batches its misses.
                let blocks = if extra % 2 == 0 { 4 } else { 1 };
                let first = lba.min(DRIVE_SPAN - u64::from(blocks));
                let foreign = foreign_read(&mut system, &model, &mut cpu, &mut now, first, blocks);
                prop_assert!(
                    foreign.is_none(),
                    "lba {:?}: read under failing device returned foreign data",
                    foreign
                );
            }
            let health = system.report(now).health.expect("health enabled");
            let state = if kill_hdd { health.hdd } else { health.ssd };
            if state == HealthState::Failed {
                reached = true;
                break;
            }
        }
        prop_assert!(reached, "armed death at device-op {} never reached Failed", death_at);

        if kill_hdd {
            // Fail-fast contract: with the home disk gone, every probe
            // write must bounce with a typed DeviceFailed error.
            for probe in 0..10u64 {
                let lba = fault_roll(seed, 0xDEAD, probe, 1) % SPAN;
                let content = block_for(lba, probe as u8, Family::Similar);
                let req = Request::write(Lba::new(lba), now, content);
                let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                let completion = system.submit(&req, &mut ctx);
                now = completion.finished;
                prop_assert!(
                    completion
                        .errors
                        .iter()
                        .any(|e| e.lba == Lba::new(lba) && e.kind == IoErrorKind::DeviceFailed),
                    "lba {}: write against a failed HDD was not refused",
                    lba
                );
            }
        } else {
            system.replace_ssd(now);
            if crash_mid_rebuild {
                // A little rebuild traffic, then the plug is pulled with
                // repopulation still pending.
                for extra in 0..20u64 {
                    let lba = fault_roll(seed, 0xC0A5, extra, 0) % DRIVE_SPAN;
                    let req = Request::read(Lba::new(lba), now);
                    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                    now = system.submit(&req, &mut ctx).finished;
                }
                system = system.crash_and_recover();
            }
            // Rebuild rides host I/O: drive until the monitor reports the
            // replacement healthy again.
            let mut healthy = false;
            for extra in 0..2_500u64 {
                let lba = fault_roll(seed, 0x4EA1, extra, 0) % DRIVE_SPAN;
                let blocks = if extra % 2 == 0 { 4 } else { 1 };
                let first = lba.min(DRIVE_SPAN - u64::from(blocks));
                let foreign = foreign_read(&mut system, &model, &mut cpu, &mut now, first, blocks);
                prop_assert!(
                    foreign.is_none(),
                    "lba {:?}: read during rebuild returned foreign data",
                    foreign
                );
                let health = system.report(now).health.expect("health enabled");
                if health.ssd == HealthState::Healthy {
                    healthy = true;
                    break;
                }
            }
            prop_assert!(healthy, "replacement SSD never rebuilt to Healthy");
            // Fresh service on the rebuilt array is exact, not merely
            // valid: the death must leave no lasting wound.
            for probe in 0..8u64 {
                let lba = fault_roll(seed, 0xF4E5, probe, 2) % SPAN;
                let content = block_for(lba, probe.wrapping_mul(37) as u8, Family::Similar);
                let w = Request::write(Lba::new(lba), now, content.clone());
                let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                let completion = system.submit(&w, &mut ctx);
                now = completion.finished;
                prop_assert!(!completion.failed(Lba::new(lba)), "healthy write refused");
                model.ack(lba, content.clone());
                let r = Request::read(Lba::new(lba), now);
                let completion = system.submit(&r, &mut ctx);
                now = completion.finished;
                prop_assert!(!completion.failed(Lba::new(lba)), "healthy read failed");
                prop_assert_eq!(
                    &completion.data[0],
                    &content,
                    "post-rebuild readback was stale"
                );
            }
        }
        // Final sweep over everything ever acknowledged: valid-or-typed,
        // and the controller's internal structures still cross-check.
        for lba in model.written() {
            let req = Request::read(Lba::new(lba), now);
            let mut ctx = IoCtx::verifying(&backing, &mut cpu);
            let completion = system.submit(&req, &mut ctx);
            now = completion.finished;
            if !completion.failed(Lba::new(lba)) {
                prop_assert!(
                    model.allows(lba, &completion.data[0], Allow::Held),
                    "lba {}: final sweep read a value never held",
                    lba
                );
            }
        }
        system.debug_validate();
    }
}
