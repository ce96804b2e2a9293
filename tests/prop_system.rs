//! Property-based whole-system tests: under arbitrary op sequences, every
//! storage architecture behaves as a correct block device (read-your-
//! writes against a model map), and I-CASH additionally survives a crash
//! at an arbitrary point with all flushed data intact.

#[path = "common/ops.rs"]
mod ops;

use icash::baselines::{DedupCache, LruCache, PureSsd, Raid0};
use icash::core::{Icash, IcashConfig};
use icash::storage::cpu::CpuModel;
use icash::storage::model::{Allow, VersionModel};
use icash::storage::{IoCtx, Lba, Ns, Request, StorageSystem, ZeroSource};
use ops::{cold_sweep, icash_ops_strategy, ops_strategy, SysOp};
use proptest::prelude::*;
use std::any::Any;

/// Drives `system` through `ops` against the version model; an I-CASH controller
/// also checks its own invariants after every op.
fn check_system<S: StorageSystem + 'static>(mut system: S, ops: &[SysOp]) {
    let mut cpu = CpuModel::xeon();
    let backing = ZeroSource;
    let mut model = VersionModel::new();
    let mut now = Ns::ZERO;
    for op in ops {
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        match op {
            SysOp::Write { .. } | SysOp::WriteSpan { .. } => {
                let before = system.write_ticket();
                op.issue_write(&mut system, &mut now, &mut ctx, &mut model);
                // Ticket parity across every architecture: accepting a
                // write advances the acceptance watermark, and durability
                // never runs ahead of acceptance.
                assert!(
                    system.write_ticket() > before,
                    "{}: write did not draw a ticket",
                    system.name()
                );
                assert!(
                    system.flushed_ticket() <= system.write_ticket(),
                    "{}: durability watermark ahead of acceptance",
                    system.name()
                );
            }
            SysOp::Read { lba } => {
                let req = Request::read(Lba::new(*lba), now);
                let completion = system.submit(&req, &mut ctx);
                assert!(completion.finished >= now, "time ran backwards");
                now = completion.finished;
                assert!(
                    model.allows(*lba, &completion.data[0], Allow::Latest),
                    "{}: lba {lba} read back a version that is not the latest",
                    system.name()
                );
            }
            SysOp::Flush => now = system.flush(now, &mut ctx),
            SysOp::Barrier => now = system.sync(now, &mut ctx),
            SysOp::ColdSweep { lap } => cold_sweep(*lap, &mut system, &mut now, &mut ctx),
        }
        if let Some(icash) = (&system as &dyn Any).downcast_ref::<Icash>() {
            icash.debug_validate();
        }
    }
    // A full barrier drains every pipeline: afterwards the durability
    // watermark has caught the acceptance watermark on any architecture.
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
    let _ = system.sync(now, &mut ctx);
    assert_eq!(
        system.flushed_ticket(),
        system.write_ticket(),
        "{}: sync left tickets in flight",
        system.name()
    );
}

/// The small controller both I-CASH properties run, synchronous or with a
/// depth-4 group commit; `tight_ram` is the geometry where the log commits
/// when a delta needs room — inside a write, not between two: a RAM pool of
/// a few blocks and the flush interval out of reach.
fn tiny_icash(pipelined: bool, tight_ram: bool) -> Icash {
    let mut cfg = IcashConfig::builder(1 << 20, 256 << 10, 4 << 20)
        .scan_interval(40)
        .scan_window(64)
        .flush_interval(25)
        .log_blocks(1 << 14)
        .group_commit_depth(if pipelined { 4 } else { 1 })
        .build();
    if tight_ram {
        cfg.ram_bytes = 64 << 10;
        cfg.flush_interval = 1_000_000;
    }
    Icash::new(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn icash_is_a_correct_block_device(
        ops in icash_ops_strategy(),
        pipelined in any::<bool>(),
        tight_ram in any::<bool>(),
    ) {
        check_system(tiny_icash(pipelined, tight_ram), &ops);
    }

    /// Crash anywhere: after recovery, every block reads back as a version
    /// it legitimately held and no older than the last `flush` / `sync` that
    /// returned — its latest value as of the crash, or, for unflushed
    /// tails, the version that barrier made durable; never garbage, and
    /// never a roll-back past a barrier (the model drops what a barrier
    /// superseded, the pre-history zeroes included).
    #[test]
    fn icash_crash_anywhere_never_corrupts(
        ops in icash_ops_strategy(),
        crash_at in 0usize..200,
        pipelined in any::<bool>(),
        tight_ram in any::<bool>(),
    ) {
        let mut system = tiny_icash(pipelined, tight_ram);
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
        for lba in model.written() {
            let req = Request::read(Lba::new(lba), now);
            let mut ctx = IoCtx::verifying(&backing, &mut cpu);
            let completion = recovered.submit(&req, &mut ctx);
            now = completion.finished;
            prop_assert!(
                model.allows(lba, &completion.data[0], Allow::Held),
                "lba {lba}: recovered to a value it never held"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pure_ssd_is_a_correct_block_device(ops in ops_strategy()) {
        check_system(PureSsd::new(4 << 20), &ops);
    }

    #[test]
    fn raid0_is_a_correct_block_device(ops in ops_strategy()) {
        check_system(Raid0::new(4 << 20, 4), &ops);
    }

    #[test]
    fn lru_cache_is_a_correct_block_device(ops in ops_strategy()) {
        // A cache far smaller than the working set: eviction all the time.
        check_system(LruCache::new(64 << 10, 4 << 20), &ops);
    }

    #[test]
    fn dedup_cache_is_a_correct_block_device(ops in ops_strategy()) {
        check_system(DedupCache::new(64 << 10, 4 << 20), &ops);
    }
}
