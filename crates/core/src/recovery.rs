//! Crash simulation and log-based recovery (paper §3.3).
//!
//! "For data recovery after a failure, I-CASH can recover data by combining
//! reference blocks with deltas unrolled from the delta logs in the HDD."
//!
//! [`Icash::crash_and_recover`] models a power failure: everything volatile
//! (the RAM cache, unflushed deltas, dirty independent data) is lost, while
//! the persistent structures survive — the SSD's pinned blocks, the HDD
//! home area, the delta log, and the slot directory metadata. Recovery
//! first drops the unverifiable tail of the log (a crash can tear the
//! in-flight append mid-frame; the CRC framing detects it), then replays
//! surviving entries with the *highest generation* per LBA winning, the
//! block's slot-directory record (a pin or a tombstone) included — plain
//! append order is not enough once SSD slots are rewritten in place, because
//! a stale self-delta must never resurrect old data over newer slot content.

use crate::controller::{Icash, Volatile};
use crate::stats::IcashStats;
use crate::virtual_block::{DeltaHome, Placement, VirtualBlock};
use icash_delta::signature::BlockSignature;
use icash_storage::block::Lba;
use icash_storage::fault::fault_roll;
use icash_storage::hash::AddrMap;
use icash_storage::time::Ns;
use icash_storage::trace::{TraceEvent, TraceKind};

/// Salt for the deterministic choice of where a torn write lands inside
/// the crash-interrupted append span.
const TORN_SALT: u64 = 0xC4A5;

/// Salt for the deterministic choice of how many entries of the torn
/// multi-entry frame reached the platter intact (group-commit pipeline).
const TORN_ENTRY_SALT: u64 = 0x7EA6;

impl Icash {
    /// Simulates a power failure followed by log recovery.
    ///
    /// Consumes the controller (the crash destroys its runtime state) and
    /// returns a recovered controller over the same persistent devices.
    /// Data relationships that had reached the HDD log or the SSD are fully
    /// restored; writes that were still buffered in RAM are lost, exactly
    /// as the paper's flush-interval reliability tradeoff implies. With
    /// [`crate::Icash::with_fault_plan`] arming torn writes, the most recent
    /// log append is additionally torn at a seeded point and recovery must
    /// truncate at the damage instead of replaying garbage.
    pub fn crash_and_recover(mut self) -> Icash {
        // Everything in controller RAM is gone: the table, the caches,
        // dirty and staged-but-uncommitted deltas (with the ticket
        // watermarks), the health monitors' error budgets. Whatever sat in
        // the drive's volatile write-behind cache is not modelled apart
        // from that — the log tear below stands for the in-flight append.
        self.volatile = Volatile::cold(&self.cfg);
        self.stats = IcashStats::default();
        let cfg = &self.cfg;
        let stats = &mut self.stats;
        let log = &mut self.durable.log;
        let slots = &self.durable.slots;
        let table = &mut self.volatile.table;

        // Phase 0: crash damage. A torn write lands somewhere in the span
        // of the append that was in flight — none once a returned barrier
        // or a clean sealed the last one; the seeded draw keeps every
        // campaign cell replayable. (Which stale entries wait for a sealed
        // successor was RAM state too.)
        log.restart();
        let fault_plan = &self.durable.fault_plan;
        if fault_plan.torn_writes {
            let (first, count) = log.last_append_span();
            if count > 0 {
                let pick = fault_roll(fault_plan.seed, TORN_SALT, first as u64, count as u64);
                let torn_loc = first + (pick % count as u64) as u32;
                if cfg.group_commit_depth > 1 {
                    // Group commits pack many entries per frame; the crash
                    // contract is entry-granular: the torn frame replays up
                    // to its last complete entry instead of being dropped
                    // whole. A second seeded roll picks how many entries of
                    // the frame reached the platter intact.
                    let entries = log.fetch(torn_loc).entries.len() as u64;
                    let roll =
                        fault_roll(fault_plan.seed, TORN_ENTRY_SALT, torn_loc as u64, entries);
                    let keep = (roll % (entries + 1)) as usize;
                    let (frames, torn_entries) = log.tear_within(torn_loc, keep);
                    stats.torn_frames_dropped += frames;
                    stats.torn_entries_dropped += torn_entries;
                } else {
                    log.tear_from(torn_loc);
                }
            }
        }
        // Truncate at the first frame that fails verification — torn above,
        // or corrupted any other way. Everything after it is untrustworthy
        // (the log is strictly append-ordered).
        if let Some(bad) = log.first_invalid_frame() {
            let frames = log.len_blocks() - bad as u64;
            stats.torn_frames_dropped += frames;
            log.truncate_from(bad);
            self.durable.array.tracer().emit(|| TraceEvent {
                at: Ns::ZERO,
                kind: TraceKind::RecoveryTruncate { frames },
            });
        }

        // Phase 1: the slot directory names every SSD-pinned block. They
        // come back as independents; log replay upgrades references.
        // (Sorted so table ids and LRU order never depend on hash order.)
        for (lba, slot) in slots.pinned_sorted() {
            let sig = BlockSignature::of(slots.content(slot).as_slice());
            table.insert(VirtualBlock {
                placement: Placement::Slot { slot },
                ..VirtualBlock::independent(lba, sig)
            });
        }

        // Phase 2: scan the surviving log; the highest-generation entry per
        // LBA wins (append order breaks ties, though stamps are unique).
        let mut latest: AddrMap<Lba, (u32, Lba, u64)> = AddrMap::default();
        for loc in 0..log.len_blocks() as u32 {
            for entry in &log.fetch(loc).entries {
                let slot_entry =
                    latest
                        .entry(entry.lba)
                        .or_insert((loc, entry.reference, entry.generation));
                if entry.generation >= slot_entry.2 {
                    *slot_entry = (loc, entry.reference, entry.generation);
                }
            }
        }

        // Phase 3: per address, the highest stamp wins — the block's
        // directory record or its latest entry. A record stamped at or after
        // the entry outranks it: the slot was pinned with *newer* content,
        // or (a tombstone) the block has since left the placement the entry
        // belongs to. A newer entry builds on what the record says: on the
        // pin if it is the block's own delta, on nothing otherwise.
        // (`latest` empties in hash order; replay runs in address order.)
        let mut items: Vec<(Lba, (u32, Lba, u64))> = latest.into_iter().collect();
        items.sort_by_key(|&(l, _)| l.raw());
        let replay_entries = items.len() as u64;
        let mut dependants: AddrMap<Lba, u32> = AddrMap::default();
        for (lba, (loc, reference, generation)) in items {
            let record = slots.record(lba);
            let pin = record.and_then(|r| r.slot);
            let delta = DeltaHome::Log(loc);
            let placement = if record.is_some_and(|r| r.generation >= generation) {
                None
            } else if reference == lba {
                // The block's own delta: a written reference's if it is
                // pinned, else a log-resident independent's (zero-based).
                Some(match pin {
                    Some(slot) => Placement::Reference {
                        slot,
                        own: Some(delta),
                    },
                    None => Placement::Logged { delta },
                })
            } else {
                // An associate — unless the block is pinned (a direct SSD
                // write superseded the delta: a slot is no associate), or
                // its reference's slot was lost or (re)installed *after* the
                // delta was encoded: decoding against reused slot content
                // would splice unrelated data, so it degrades to home.
                let encoded_against = slots
                    .record(reference)
                    .is_some_and(|r| r.slot.is_some() && r.generation < generation);
                (pin.is_none() && encoded_against)
                    .then_some(Placement::Associate { reference, delta })
            };
            let Some(placement) = placement else {
                stats.stale_frames_dropped += 1;
                continue;
            };
            if let Some(reference) = placement.reference() {
                *dependants.entry(reference).or_insert(0) += 1;
            }
            match table.lookup(lba) {
                Some(id) => {
                    table.set_placement(id, placement);
                }
                None => {
                    table.insert(VirtualBlock {
                        placement,
                        ..VirtualBlock::independent(lba, BlockSignature::default())
                    });
                }
            }
        }

        let stale = stats.stale_frames_dropped;
        self.durable.array.tracer().emit(|| TraceEvent {
            at: Ns::ZERO,
            kind: TraceKind::RecoveryReplay {
                entries: replay_entries,
                stale,
            },
        });

        // (Likewise: `ref_index` insertion order is address order.)
        let mut refs: Vec<(Lba, u32)> = dependants.into_iter().collect();
        refs.sort_by_key(|&(l, _)| l.raw());
        for (ref_lba, count) in refs {
            if let Some(id) = table.lookup(ref_lba) {
                let sig = table.get(id).sig;
                if let Placement::Slot { slot } = table.get(id).placement {
                    table.set_placement(id, Placement::Reference { slot, own: None });
                }
                table.set_dependants(id, count);
                self.volatile.ref_index.insert(ref_lba, &sig);
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IcashConfig;
    use icash_storage::block::BlockBuf;
    use icash_storage::cpu::CpuModel;
    use icash_storage::request::Request;
    use icash_storage::system::{IoCtx, StorageSystem, ZeroSource};
    use icash_storage::time::Ns;

    fn small_cfg() -> IcashConfig {
        IcashConfig::builder(1 << 20, 256 << 10, 8 << 20)
            .scan_interval(50)
            .scan_window(64)
            .flush_interval(20)
            .log_blocks(4096)
            .build()
    }

    fn content(tag: u8) -> BlockBuf {
        // Blocks that are similar to each other (shared base, small tweak),
        // so references and deltas actually form.
        let mut v = vec![0xA5u8; 4096];
        v[17] = tag;
        v[1000] = tag.wrapping_mul(3);
        BlockBuf::from_vec(v)
    }

    #[test]
    fn flushed_writes_survive_a_crash() {
        let mut sys = Icash::new(small_cfg());
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);

        let mut t = Ns::ZERO;
        for i in 0..200u64 {
            let w = Request::write(Lba::new(i % 40), t, content((i % 251) as u8));
            t = sys.submit(&w, &mut ctx).finished;
        }
        // Clean shutdown: every write must be recoverable.
        t = sys.flush(t, &mut ctx);

        let expected: Vec<(u64, BlockBuf)> = (0..40u64)
            .map(|lba| {
                let r = Request::read(Lba::new(lba), t);
                (lba, sys.submit(&r, &mut ctx).data[0].clone())
            })
            .collect();

        let mut recovered = sys.crash_and_recover();
        for (lba, want) in expected {
            let r = Request::read(Lba::new(lba), t);
            let got = recovered.submit(&r, &mut ctx).data[0].clone();
            assert_eq!(got, want, "lba {lba} corrupted by crash/recovery");
        }
    }

    #[test]
    fn unflushed_writes_degrade_to_prior_content_not_garbage() {
        let mut sys = Icash::new(small_cfg());
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);

        // One write, never flushed (flush_interval is 20).
        let w = Request::write(Lba::new(7), Ns::ZERO, content(1));
        let t = sys.submit(&w, &mut ctx).finished;

        let mut recovered = sys.crash_and_recover();
        let r = Request::read(Lba::new(7), t);
        let got = recovered.submit(&r, &mut ctx).data[0].clone();
        // The write is lost; the block reads back as its pre-crash
        // persistent state (the zero backing image), not as garbage.
        assert_eq!(got, BlockBuf::zeroed());
    }

    #[test]
    fn torn_group_commit_replays_to_the_last_complete_entry() {
        use icash_storage::fault::FaultPlan;
        let cfg = IcashConfig::builder(1 << 20, 256 << 10, 8 << 20)
            .scan_interval(50)
            .scan_window(64)
            .flush_interval(20)
            .log_blocks(4096)
            .group_commit_depth(8)
            .build();
        let mut sys = Icash::new(cfg).with_fault_plan(FaultPlan::seeded(11).torn_writes());
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);

        // Enough similar traffic that deltas form, until the eighth flush
        // trigger lands the staged buffer as ONE multi-entry group-commit
        // append. No barrier covers that append, so it is what the armed
        // torn-write fault tears at crash time.
        let mut t = Ns::ZERO;
        let mut versions: std::collections::HashMap<u64, Vec<BlockBuf>> =
            std::collections::HashMap::new();
        let mut i = 0u64;
        while sys.stats().group_commits == 0 {
            // (Bounded: a pipeline that never commits would otherwise loop,
            // keeping every version, until the host runs out of memory.)
            assert!(i < 10_000, "no group commit after {i} writes");
            let lba = i % 40;
            let data = content((i % 251) as u8);
            versions.entry(lba).or_default().push(data.clone());
            let w = Request::write(Lba::new(lba), t, data);
            t = sys.submit(&w, &mut ctx).finished;
            i += 1;
        }

        let mut recovered = sys.crash_and_recover();
        let post = recovered.stats();
        // Entry-granular tearing: the torn frame loses only its unverified
        // tail, not the whole multi-entry batch (seeded draw; seed 11 tears
        // mid-frame).
        assert!(
            post.torn_entries_dropped > 0,
            "the torn frame must lose its tail entries: {post:?}"
        );

        // Never a splice: every block reads back as SOME version it actually
        // held — one of its written contents or the zero backing image —
        // never decoded garbage.
        for lba in 0..40u64 {
            let r = Request::read(Lba::new(lba), t);
            let got = recovered.submit(&r, &mut ctx).data[0].clone();
            let valid = versions[&lba].contains(&got) || got == BlockBuf::zeroed();
            assert!(valid, "lba {lba}: recovered to a spliced/garbage version");
        }
    }

    #[test]
    fn recovery_restores_reference_associate_pairings() {
        let mut sys = Icash::new(small_cfg());
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);

        let mut t = Ns::ZERO;
        // Enough similar traffic to trigger scans, promotion and binding.
        for round in 0..10u64 {
            for lba in 0..30u64 {
                let w = Request::write(Lba::new(lba), t, content((lba + round) as u8));
                t = sys.submit(&w, &mut ctx).finished;
            }
        }
        t = sys.flush(t, &mut ctx);
        let pre = sys.stats();
        let recovered = sys.crash_and_recover();
        let post = recovered.stats();
        if pre.role_counts.0 > 0 {
            assert!(
                post.role_counts.0 > 0,
                "references must survive recovery: {pre:?} -> {post:?}"
            );
        }
        let _ = t;
    }
}
