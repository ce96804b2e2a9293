//! Regression tests for the placement transitions that used to forget the
//! slot-release step: a block that holds an SSD slot and then moves to
//! delta or log placement — by a streaming span write, or by the scanner
//! re-binding it — must stop being served from the slot, must free it, and
//! must not let recovery rank the old pin above its newer log entries.

#[path = "common/content.rs"]
mod content;

use content::{block_for, Family};
use icash::core::{Icash, IcashConfig};
use icash::storage::cpu::CpuModel;
use icash::storage::fault::{FaultPlan, HealthPolicy, HealthState};
use icash::storage::{BlockBuf, IoCtx, Lba, Ns, Request, StorageSystem, ZeroSource};

fn config() -> IcashConfig {
    IcashConfig::builder(1 << 20, 256 << 10, 4 << 20)
        .scan_interval(40)
        .scan_window(64)
        .flush_interval(25)
        .log_blocks(1 << 14)
        .build()
}

/// A health-monitored controller whose SSD dies at device op `dies_at`.
fn dying_ssd(dies_at: u64) -> Icash {
    let mut cfg = config();
    cfg.health = HealthPolicy::standard();
    Icash::new(cfg).with_fault_plan(FaultPlan::seeded(7).ssd_dies_at(dies_at))
}

/// A controller plus the clock and CPU model every step threads through.
struct Rig {
    sys: Icash,
    cpu: CpuModel,
    now: Ns,
}

impl Rig {
    /// A controller warmed with three rounds of similar writes over blocks
    /// `0..64`, so references exist and most blocks are bound associates.
    fn warmed(sys: Icash) -> Rig {
        let mut rig = Rig {
            sys,
            cpu: CpuModel::xeon(),
            now: Ns::ZERO,
        };
        for round in 0..3u8 {
            for lba in 0..64 {
                rig.write(lba, block_for(lba, round, Family::Similar));
            }
        }
        assert!(rig.sys.stats().binds > 0, "warm-up must bind associates");
        rig
    }

    fn submit(&mut self, req: &Request) -> Vec<BlockBuf> {
        let backing = ZeroSource;
        let mut ctx = IoCtx::verifying(&backing, &mut self.cpu);
        let done = self.sys.submit(req, &mut ctx);
        assert!(
            done.errors.is_empty(),
            "unexpected errors: {:?}",
            done.errors
        );
        self.now = done.finished;
        done.data
    }

    fn write(&mut self, lba: u64, content: BlockBuf) {
        self.submit(&Request::write(Lba::new(lba), self.now, content));
    }

    fn write_span(&mut self, lba: u64, payload: Vec<BlockBuf>) {
        self.submit(&Request::write_span(Lba::new(lba), self.now, payload));
    }

    fn read(&mut self, lba: u64) -> BlockBuf {
        self.submit(&Request::read(Lba::new(lba), self.now))
            .remove(0)
    }

    /// Overwrites blocks `0..n` one by one with incompressible content,
    /// which sends each diverged associate to an SSD slot; returns how many
    /// direct SSD writes that took.
    fn scatter_noise(&mut self, n: u64, tag: u8) -> u64 {
        let before = self.sys.stats().ssd_direct_writes;
        for lba in 0..n {
            self.write(lba, block_for(lba, tag, Family::Noise));
        }
        self.sys.stats().ssd_direct_writes - before
    }

    fn ssd_failed(&self) -> bool {
        self.sys
            .report(self.now)
            .health
            .is_some_and(|h| h.ssd == HealthState::Failed)
    }

    /// Keeps the flash busy until the health monitor declares it dead.
    fn drive_until_ssd_failed(&mut self) {
        for i in 0..4_000u64 {
            if self.ssd_failed() {
                return;
            }
            let lba = i % 64;
            self.write(lba, block_for(lba, (i / 64) as u8, Family::Noise));
            // (reads of a dying device may report typed errors)
            let backing = ZeroSource;
            let mut ctx = IoCtx::verifying(&backing, &mut self.cpu);
            let read = Request::read(Lba::new(lba), self.now);
            self.now = self.sys.submit(&read, &mut ctx).finished;
        }
        panic!("the armed SSD death never reached Failed");
    }

    fn sync(&mut self) {
        let backing = ZeroSource;
        let mut ctx = IoCtx::verifying(&backing, &mut self.cpu);
        self.now = self.sys.sync(self.now, &mut ctx);
        self.now = self.sys.flush(self.now, &mut ctx);
    }

    fn crash(self) -> Rig {
        Rig {
            sys: self.sys.crash_and_recover(),
            ..self
        }
    }
}

/// `blocks` consecutive blocks from `lba`, version `tag` of `family`.
fn span_of(lba: u64, blocks: u64, tag: u8, family: Family) -> Vec<BlockBuf> {
    (lba..lba + blocks)
        .map(|l| block_for(l, tag, family))
        .collect()
}

/// `width` bytes of noise in an otherwise zero block: it resembles nothing,
/// so it is logged as a zero-based delta of about `width` bytes.
fn sparse(lba: u64, tag: u8, width: usize) -> BlockBuf {
    let mut bytes = block_for(lba, tag, Family::Noise).as_slice().to_vec();
    bytes[width..].fill(0);
    BlockBuf::from_vec(bytes)
}

#[test]
fn span_write_over_slot_resident_blocks_reads_back_the_new_version() {
    let mut rig = Rig::warmed(Icash::new(config()));
    assert!(
        rig.scatter_noise(16, 100) >= 8,
        "noise must move blocks to slots"
    );
    let fresh: Vec<BlockBuf> = (0..16)
        .map(|lba| block_for(lba, 101, Family::Noise))
        .collect();
    rig.write_span(0, fresh.clone());
    for (lba, want) in fresh.iter().enumerate() {
        assert!(
            rig.read(lba as u64) == *want,
            "lba {lba}: span write lost to the old slot"
        );
    }
    rig.sys.debug_validate();
}

#[test]
fn scan_rebind_of_slot_resident_blocks_frees_the_slot_and_survives_recovery() {
    let mut rig = Rig::warmed(Icash::new(config()));
    assert!(
        rig.scatter_noise(8, 100) >= 4,
        "noise must move blocks to slots"
    );
    // Similar again, still slot-resident (rewritten in place) ...
    for lba in 0..8 {
        rig.write(lba, block_for(lba, 102, Family::Similar));
    }
    // ... until two scans have had the chance to re-bind them ...
    let binds = rig.sys.stats().binds;
    for lba in (8..64).chain(8..40) {
        rig.read(lba);
    }
    assert!(
        rig.sys.stats().binds > binds,
        "the scanner must re-bind the blocks"
    );
    rig.sys.debug_validate();
    // ... after which newer versions are logged as deltas.
    for lba in 0..8 {
        rig.write(lba, block_for(lba, 103, Family::Similar));
    }
    rig.sync();
    let mut rig = rig.crash();
    assert_eq!(
        rig.sys.stats().stale_frames_dropped,
        0,
        "no durable delta may lose to a leaked slot pin"
    );
    for lba in 0..8 {
        assert!(
            rig.read(lba) == block_for(lba, 103, Family::Similar),
            "lba {lba}: stale after recovery"
        );
    }
    rig.sys.debug_validate();
}

#[test]
fn span_writes_take_the_degraded_path_while_the_ssd_is_failed() {
    for dies_at in [5, 20, 60] {
        let mut rig = Rig::warmed(dying_ssd(dies_at));
        rig.drive_until_ssd_failed();
        // Park right behind a scan (one runs every 40 block I/Os), so the
        // only binds the span could cause are its own.
        while !(rig.sys.stats().reads + rig.sys.stats().writes).is_multiple_of(40) {
            rig.write(63, block_for(63, 9, Family::Similar));
        }

        let before = rig.sys.stats();
        let payload: Vec<BlockBuf> = (16..32)
            .map(|lba| block_for(lba, 200, Family::Similar))
            .collect();
        rig.write_span(16, payload.clone());
        let after = rig.sys.stats();
        assert_eq!(
            after.binds, before.binds,
            "dies_at {dies_at}: span bound blocks to references on the dead SSD"
        );
        assert!(
            after.degraded_writes - before.degraded_writes >= 12,
            "dies_at {dies_at}: span blocks must write home like single blocks do \
             (references that still have associates excepted): {} of 16",
            after.degraded_writes - before.degraded_writes
        );
        for (lba, want) in (16..32).zip(&payload) {
            assert!(rig.read(lba) == *want, "dies_at {dies_at}: lba {lba}");
        }
        rig.sys.debug_validate();
    }
}

/// The transitions above give up a slot whose content may be the block's
/// only durable copy. A crash before the superseding delta reaches the log
/// must still find that copy: a version a barrier covered never rolls back.
#[test]
fn barrier_covered_slot_content_survives_a_crash_mid_transition() {
    let mut rig = Rig::warmed(Icash::new(config()));
    assert!(rig.scatter_noise(16, 100) >= 8);
    rig.sync();
    let fresh: Vec<BlockBuf> = (0..16)
        .map(|lba| block_for(lba, 101, Family::Noise))
        .collect();
    rig.write_span(0, fresh.clone());
    let mut rig = rig.crash();
    for (lba, new) in fresh.iter().enumerate() {
        let got = rig.read(lba as u64);
        assert!(
            got == *new || got == block_for(lba as u64, 100, Family::Noise),
            "lba {lba}: rolled back behind its barrier"
        );
    }
    rig.sys.debug_validate();
}

/// The same, with the commit running *inside* the transition: the RAM pool
/// is a few blocks and the flush interval out of reach, so the flush that
/// commits the log is the one `store_delta` runs to make room for the very
/// delta that replaces the slot. That commit cannot contain the delta, so it
/// must not reclaim the slot either. A noise span takes the blocks through
/// `write_as_independent`, a similar span through `bind`; the filler spans
/// park dirty deltas in the pool, a few more bytes at each level, so the
/// flush lands on every block of the span in turn.
#[test]
fn a_flush_inside_the_transition_does_not_reclaim_the_slot_it_is_replacing() {
    for family in [Family::Noise, Family::Similar] {
        let mut flushed_inside = 0;
        for filler in (0..=48).filter(|&n| n == 0 || n >= 8) {
            let cfg = IcashConfig::builder(1 << 20, 64 << 10, 4 << 20)
                .scan_interval(40)
                .scan_window(64)
                .flush_interval(1_000_000)
                .log_blocks(1 << 14)
                .build();
            let mut rig = Rig::warmed(Icash::new(cfg));
            assert!(rig.scatter_noise(24, 100) >= 12);
            rig.sync();
            if filler > 0 {
                rig.write_span(100, span_of(100, 15, 50, Family::Noise));
                rig.write_span(200, span_of(200, filler, 51, Family::Similar));
            }
            // (Blocks 0 and 1 are the references the warm-up promoted; a
            // reference keeps its slot.)
            let before = rig.sys.stats();
            let fresh = span_of(2, 22, 101, family);
            rig.write_span(2, fresh.clone());
            let after = rig.sys.stats();
            if family == Family::Similar {
                assert!(after.binds - before.binds >= 12, "similar spans bind");
            }
            flushed_inside += after.flushes - before.flushes;
            rig.sys.debug_validate();
            let mut rig = rig.crash();
            for (lba, new) in (2..).zip(&fresh) {
                let got = rig.read(lba);
                assert!(
                    got == *new || got == block_for(lba, 100, Family::Noise),
                    "{family:?}, filler {filler}: lba {lba} rolled back behind its barrier"
                );
            }
        }
        assert!(
            flushed_inside > 0,
            "{family:?}: no span flushed under pool pressure"
        );
    }
}

/// The same transition with a clean in its commit: a 16-block log holds 14
/// one-entry blocks, so the commit a span's `store_delta` runs to make room
/// cleans the log. The block being written names its dirty home by then,
/// and its delta is in no batch: the clean must keep the entry behind it,
/// or a crash before the next commit finds no version of it at all. The
/// filler span parks dirty deltas in the pool, a few more at each level, so
/// that for some levels the flush lands inside the span.
#[test]
fn a_clean_inside_the_transition_keeps_the_version_behind_the_barrier() {
    let mut cleaned_inside = 0;
    for filler in (8..=160).step_by(4) {
        let cfg = IcashConfig::builder(1 << 20, 64 << 10, 4 << 20)
            .scan_interval(1_000_000)
            .flush_interval(1_000_000)
            .log_blocks(16)
            .build();
        let mut rig = Rig {
            sys: Icash::new(cfg),
            cpu: CpuModel::xeon(),
            now: Ns::ZERO,
        };
        for lba in 0..14 {
            rig.write(lba, sparse(lba, 100, 400));
            rig.sync();
        }
        rig.write_span(
            1_000,
            (1_000..1_000 + filler)
                .map(|l| sparse(l, 50, 400))
                .collect(),
        );
        let before = rig.sys.stats();
        let fresh: Vec<BlockBuf> = (0..8).map(|l| sparse(l, 101, 400)).collect();
        rig.write_span(0, fresh.clone());
        let after = rig.sys.stats();
        cleaned_inside += u32::from(after.log_cleans > before.log_cleans);
        let mut rig = rig.crash();
        for (lba, new) in (0..).zip(&fresh) {
            let got = rig.read(lba);
            assert!(
                got == *new || got == sparse(lba, 100, 400),
                "filler {filler}: block {lba} rolled back behind its barrier"
            );
        }
    }
    assert!(cleaned_inside > 0, "no clean ran inside the span");
}

/// A released slot stays pinned until the next commit, and until then the
/// pin *and the entries logged on top of it* are the block's last durable
/// version. Here a reference with a barrier-covered self-delta is rewritten
/// with dissimilar content on an SSD that has just died (the inert health
/// policy, so nothing declares it failed): the in-place rewrite is refused, the
/// write falls back to the log and releases the slot, and the crash comes
/// before that delta commits. Recovery must find slot + self-delta, not the
/// bare slot.
#[test]
fn a_released_reference_keeps_its_logged_self_delta_until_the_commit() {
    let run = |dies_at: u64| -> Option<(BlockBuf, BlockBuf)> {
        let mut rig = Rig {
            sys: Icash::new(config()).with_fault_plan(FaultPlan::seeded(7).ssd_dies_at(dies_at)),
            cpu: CpuModel::xeon(),
            now: Ns::ZERO,
        };
        let submit = |rig: &mut Rig, req: Request| {
            let backing = ZeroSource;
            let mut ctx = IoCtx::verifying(&backing, &mut rig.cpu);
            let done = rig.sys.submit(&req, &mut ctx);
            rig.now = done.finished;
            done.errors.is_empty()
        };
        let mut clean = true;
        for round in 0..3u8 {
            for lba in 0..64 {
                let w = Request::write(
                    Lba::new(lba),
                    rig.now,
                    block_for(lba, round, Family::Similar),
                );
                clean &= submit(&mut rig, w);
            }
        }
        // Block 60: noise goes to a slot, reads make it popular, a scan
        // promotes it — a reference nobody binds to.
        let slot_version = block_for(60, 9, Family::Noise);
        let w = Request::write(Lba::new(60), rig.now, slot_version.clone());
        clean &= submit(&mut rig, w);
        for _ in 0..80 {
            let r = Request::read(Lba::new(60), rig.now);
            clean &= submit(&mut rig, r);
        }
        // A small change: the reference's own delta, then a barrier.
        let mut bytes = slot_version.as_slice().to_vec();
        bytes[100] ^= 0x5A;
        let covered = BlockBuf::from_vec(bytes);
        let w = Request::write(Lba::new(60), rig.now, covered.clone());
        clean &= submit(&mut rig, w);
        rig.sync();
        if !clean {
            return None; // died too early: the history above must be whole
        }
        let before = rig.sys.stats();
        let w = Request::write(Lba::new(60), rig.now, block_for(60, 10, Family::Noise));
        submit(&mut rig, w);
        let after = rig.sys.stats();
        if after.degraded_writes == before.degraded_writes
            || after.independent_writes == before.independent_writes
        {
            return None; // still alive: the rewrite went in place
        }
        let mut rig = rig.crash();
        rig.sys.replace_ssd(rig.now);
        Some((rig.read(60), covered))
    };
    let (got, covered) = (1..400)
        .find_map(run)
        .expect("no death point refused the in-place rewrite");
    assert!(got == covered, "rolled back behind its barrier");
}

/// A degraded write is a synchronous home write: durable when it returns.
/// The block's older log entries are still on the platter, and recovery
/// must not replay them over it.
#[test]
fn degraded_writes_survive_a_crash() {
    let mut rig = Rig::warmed(dying_ssd(200));
    rig.drive_until_ssd_failed();
    let before = rig.sys.stats().degraded_writes;
    for lba in 0..8 {
        rig.write(lba, block_for(lba, 77, Family::Similar));
    }
    assert!(rig.sys.stats().degraded_writes > before);
    rig.sync();
    let mut rig = rig.crash();
    // A fresh SSD, so blocks that recover into reference + delta are
    // readable again (through the rebuild's home copies at first).
    rig.sys.replace_ssd(rig.now);
    let mut exact = 0;
    for lba in 0..8 {
        let backing = ZeroSource;
        let mut ctx = IoCtx::verifying(&backing, &mut rig.cpu);
        let done = rig
            .sys
            .submit(&Request::read(Lba::new(lba), rig.now), &mut ctx);
        rig.now = done.finished;
        if !done.failed(Lba::new(lba)) {
            assert!(
                done.data[0] == block_for(lba, 77, Family::Similar),
                "lba {lba}: an older log entry was replayed over the home write"
            );
            exact += 1;
        }
    }
    assert!(exact > 0, "no block came back readable");
}

/// A log fetch snapshots the packed blocks it read, then installs each
/// delta whose block still points at the log block it came from. Here the
/// first install finds the pool dirty deltas to the brim, so making room
/// flushes, the flush fills the log, and the log is cleaned *inside the
/// fetch* — which renumbers block 8's live entry (the last of 50 rewrites)
/// into the very log block whose snapshot holds its first version. The
/// prefetch must not install that one as current.
#[test]
fn a_log_clean_inside_a_fetch_does_not_install_superseded_deltas() {
    let mut cleaned_inside = 0;
    // (Exactly one filler count leaves the pool less than one delta short
    // of full; the sweep finds it whatever the codec's exact sizes are.)
    for fillers in 196..=210 {
        let cfg = IcashConfig::builder(1 << 20, 64 << 10, 4 << 20)
            .scan_interval(1_000_000)
            .flush_interval(1_000_000)
            .log_blocks(72)
            .build();
        let mut rig = Rig {
            sys: Icash::new(cfg),
            cpu: CpuModel::xeon(),
            now: Ns::ZERO,
        };
        // Blocks 0..9 share log block 0 ...
        rig.write_span(0, (0..9).map(|lba| sparse(lba, 0, 400)).collect());
        rig.sync();
        // ... and block 8 moves on, one log block per version.
        for tag in 1..=50 {
            rig.write(8, sparse(8, tag, 400));
            rig.sync();
        }
        // A streamed span bypasses the data cache, so it is dirty deltas
        // only; they push every clean delta out of the pool.
        let filler = (100..100 + fillers).map(|lba| sparse(lba, 0, 300));
        rig.write_span(100, filler.collect());

        let before = rig.sys.stats();
        assert!(rig.read(0) == sparse(0, 0, 400));
        let after = rig.sys.stats();
        if after.log_cleans > before.log_cleans
            && after.log_prefetched_deltas == before.log_prefetched_deltas
        {
            cleaned_inside += 1;
        }
        assert!(
            rig.read(8) == sparse(8, 50, 400),
            "{fillers} fillers: the fetch installed a superseded delta"
        );
        rig.sys.debug_validate();
    }
    assert!(cleaned_inside > 0, "no fetch cleaned the log mid-way");
}
