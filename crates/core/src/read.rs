//! The read path: resolving a block's current content from wherever its
//! placement says it lives — RAM, an SSD slot, reference + delta, the HDD
//! delta log, or the HDD home area — with retry and repair on media errors.

use crate::controller::Icash;
use crate::delta_log::LogEntry;
use crate::placement::zero_block;
use crate::table::VbId;
use crate::virtual_block::{CachedData, DeltaHome, Placement};
use icash_delta::codec::Delta;
use icash_storage::block::{BlockBuf, Lba};
use icash_storage::cpu::CpuOp;
use icash_storage::fault::crc32;
use icash_storage::request::{IoErrorKind, Op, Request};
use icash_storage::system::IoCtx;
use icash_storage::time::Ns;
use icash_storage::trace::{TraceEvent, TraceKind};

/// The outcome of reading one block's bytes: the completion instant plus
/// either the bytes or the error class reported to the host.
pub(crate) type BlockRead = (Ns, Result<BlockBuf, IoErrorKind>);

/// [`BlockRead`] for a block's content, which a delta-placed block gives
/// as a recipe ([`CachedData`]).
pub(crate) type ContentRead = (Ns, Result<CachedData, IoErrorKind>);

/// The most packed blocks one log fetch reads: one seek already paid, so
/// reading a short run amortises it over the deltas packed next to the one
/// wanted. Those are address neighbours by rule: `preload_image` and every
/// flush (`drain_dirty`) pack in address order, and a clean keeps log order
/// (DESIGN.md §7, "Batched log fetches").
const READAHEAD: u32 = 16;

/// Packed blocks a log fetch reads per block the host request still wants
/// (up to [`READAHEAD`]): a fetch sized to the read that needs it, so the
/// RAM delta buffer is not flooded with deltas nobody asked for.
const SPAN_PER_WANTED: u32 = 2;

impl Icash {
    /// Reads `lba`, caching what the resolution produced. `wanted` counts
    /// the blocks the host request still wants, this one included: it
    /// sizes a log fetch. The bytes come back only under
    /// [`IoCtx::collect_data`]: a read nobody collects takes no handle on
    /// them, and decodes nothing.
    pub(crate) fn read_block(
        &mut self,
        lba: Lba,
        at: Ns,
        wanted: u32,
        ctx: &mut IoCtx<'_>,
    ) -> (Ns, Result<Option<BlockBuf>, IoErrorKind>) {
        self.stats.reads += 1;
        let id = self.materialize_vb(lba, at, ctx);
        let sig = self.volatile.table.get(id).sig;
        self.volatile.heatmap.record(&sig);

        let (t, res) = match &self.volatile.table.get(id).data {
            Some(data) => {
                let bytes = ctx.collect_data.then(|| data.block().clone());
                self.stats.ram_hits += 1;
                self.durable.array.tracer().emit(|| TraceEvent {
                    at,
                    kind: TraceKind::RamHit { lba: lba.raw() },
                });
                (at, Ok(bytes))
            }
            None => {
                let (t, res) = self.content_of(id, at, wanted, ctx);
                let res = res.map(|content| {
                    let bytes = ctx.collect_data.then(|| content.block().clone());
                    self.cache_data(id, content, at);
                    bytes
                });
                (t, res)
            }
        };
        let t = if res.is_ok() {
            t + ctx.cpu.charge(CpuOp::Memcpy)
        } else {
            t
        };
        self.volatile.table.touch(id);
        self.after_io(at, ctx);
        (t, res)
    }

    /// Whether resolving `id` right now would take the mechanical home-area
    /// read of [`content_of`](Icash::content_of).
    fn needs_home_read(&self, id: VbId) -> bool {
        let vb = self.volatile.table.get(id);
        vb.placement == Placement::Home && vb.data.is_none()
    }

    /// Queue-on fast path for multi-block reads: the span's home-area
    /// misses are submitted to the HDD as one NCQ batch — adjacent home
    /// positions coalesce into a single transfer, the rest dispatch in
    /// positioning order — and the fetched content is parked in the data
    /// cache so the per-block resolution that follows finds it resident.
    /// Returns the batch completion instant (`req.at` when nothing ran).
    ///
    /// Without queued batching (see [`Icash::batches_through_queue`]), or
    /// against a drive declared dead, this is a no-op: the per-block path
    /// runs, bit-identical to the pre-queue controller.
    pub(crate) fn prefetch_span_homes(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Ns {
        if !self.batches_through_queue() || req.blocks < 2 || self.hdd_is_failed() {
            return req.at;
        }
        let mut pending: Vec<(VbId, Lba)> = Vec::new();
        for lba in req.lbas() {
            let id = self.materialize_vb(lba, req.at, ctx);
            if self.needs_home_read(id) {
                pending.push((id, lba));
            }
        }
        // Materializing a later block can evict an earlier one under an
        // undersized table; drop any entry whose id no longer maps.
        pending.retain(|&(id, lba)| self.volatile.table.lookup(lba) == Some(id));
        if pending.len() < 2 {
            return req.at;
        }
        let reqs: Vec<(u64, u32)> = pending
            .iter()
            .map(|&(_, lba)| (self.home_pos(lba), 1))
            .collect();
        let batch = self.durable.array.hdd_mut().read_batch(req.at, &reqs);
        self.note_device(req.at, crate::health::DEV_HDD, batch.is_ok());
        let t = match batch {
            Ok(t) => t,
            // A media error inside the batch: fall back to the per-block
            // path, which owns retry, backoff and repair for each read.
            Err(_) => return req.at,
        };
        for (_, lba) in pending {
            let content = self.home_content(lba, ctx);
            self.stats.home_reads += 1;
            // Parked in a side channel rather than the data cache: under a
            // tight RAM budget caching block N could evict block N+1's
            // prefetched copy before its turn, forcing a second (now
            // single-block) mechanical read of what the batch already
            // fetched.
            self.volatile.span_prefetch.insert(lba, content);
        }
        t
    }

    /// Resolves the current content of a tracked block that holds no data
    /// in RAM, charging the device and CPU operations the resolution
    /// requires. Returns the completion instant and the content — or the
    /// error class reported to the host when retry and repair could not
    /// produce the correct bytes. `wanted` is [`read_block`]'s.
    ///
    /// [`read_block`]: Icash::read_block
    fn content_of(&mut self, id: VbId, at: Ns, wanted: u32, ctx: &mut IoCtx<'_>) -> ContentRead {
        let vb = self.volatile.table.get(id);
        let (placement, lba) = (vb.placement, vb.lba);
        match placement {
            Placement::Reference { slot, own } => {
                let (t, base) = match self.read_slot(lba, slot, at, ctx) {
                    (t, Ok(base)) => (t, base),
                    (t, Err(e)) => return (t, Err(e)),
                };
                // A written reference needs its own delta applied.
                let Some(own) = own else {
                    self.note_delta_hit(t, lba);
                    return (t, Ok(CachedData::Ready(base)));
                };
                let t = match self.fetch_delta(id, own, t, wanted) {
                    (t, Ok(())) => t + ctx.cpu.charge(CpuOp::DeltaDecode),
                    (t, Err(e)) => return (t, Err(e)),
                };
                self.decode_resident(id, base, t)
            }
            Placement::Associate { reference, delta } => {
                let t = match self.fetch_delta(id, delta, at, wanted) {
                    (t, Ok(())) => t,
                    (t, Err(e)) => return (t, Err(e)),
                };
                let (t2, base) = match self.reference_content(reference, t, ctx) {
                    (t2, Ok(base)) => (t2, base),
                    (t2, Err(e)) => return (t2, Err(e)),
                };
                let t3 = t2 + ctx.cpu.charge(CpuOp::DeltaDecode);
                self.decode_resident(id, base, t3)
            }
            Placement::Slot { slot } => {
                let (t, res) = self.read_slot(lba, slot, at, ctx);
                if res.is_ok() {
                    self.note_delta_hit(t, lba);
                }
                (t, res.map(CachedData::Ready))
            }
            // Log-resident independent: decode against zero.
            Placement::Logged { delta } => {
                let t = match self.fetch_delta(id, delta, at, wanted) {
                    (t, Ok(())) => t + ctx.cpu.charge(CpuOp::DeltaDecode),
                    (t, Err(e)) => return (t, Err(e)),
                };
                self.decode_resident(id, zero_block().clone(), t)
            }
            Placement::Home => {
                // A span prefetch may have already paid this block's
                // mechanical read as part of one batched NCQ submission.
                if let Some(content) = self.volatile.span_prefetch.remove(&lba) {
                    return (at, Ok(CachedData::Ready(content)));
                }
                // A latent sector error here is unrecoverable: the home
                // copy is the only copy, so the failure is reported rather
                // than papered over.
                let pos = self.home_pos(lba);
                let t = match self.hdd_retry(Op::Read, at, pos, 1) {
                    Ok(t) => t,
                    Err(_) => {
                        self.stats.unrecoverable_reads += 1;
                        return (at, Err(IoErrorKind::HddMedia));
                    }
                };
                self.stats.home_reads += 1;
                // A first touch generated the image this request already.
                let content = match self.volatile.home_stash.take() {
                    Some((stashed, content)) if stashed == lba => content,
                    _ => self.home_content(lba, ctx),
                };
                (t, Ok(CachedData::Ready(content)))
            }
        }
    }

    /// `id`'s content as the recipe `decode(base, resident delta)`,
    /// reporting a contained metadata error (instead of panicking) if the
    /// delta is missing — an invariant violation, so debug builds assert.
    /// The recipe holds handles, not locations: a later log clean or slot
    /// reprogram leaves what it decodes to alone.
    fn decode_resident(&mut self, id: VbId, base: BlockBuf, t: Ns) -> ContentRead {
        let lba = self.volatile.table.get(id).lba;
        let Some(delta) = self.resident_delta(id).cloned() else {
            return self.metadata_error("resident delta missing after fetch", t);
        };
        self.note_delta_hit(t, lba);
        (t, Ok(CachedData::recipe(base, delta)))
    }

    /// Counts one SSD-fast-path read (the paper's "delta hit") and mirrors
    /// it into the trace as a [`TraceKind::DeltaDecode`] event.
    fn note_delta_hit(&mut self, at: Ns, lba: Lba) {
        self.stats.delta_hits += 1;
        self.durable.array.tracer().emit(|| TraceEvent {
            at,
            kind: TraceKind::DeltaDecode { lba: lba.raw() },
        });
    }

    /// A contained metadata-invariant failure: asserts in debug builds,
    /// reports a [`IoErrorKind::Metadata`] block error in release builds.
    fn metadata_error<T>(&mut self, what: &str, t: Ns) -> (Ns, Result<T, IoErrorKind>) {
        debug_assert!(false, "metadata invariant violated: {what}");
        let _ = what;
        self.stats.unrecoverable_reads += 1;
        (t, Err(IoErrorKind::Metadata))
    }

    /// The content of a reference block's immutable SSD copy, served from
    /// its cached data when resident (free) or from flash otherwise (with
    /// retry and repair-from-home on an uncorrectable page).
    pub(crate) fn reference_content(
        &mut self,
        ref_lba: Lba,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> BlockRead {
        let Some((rid, slot)) = self.pinned(ref_lba) else {
            return self.metadata_error("an associate's reference must be tracked and pinned", at);
        };
        self.volatile.table.touch(rid);
        // A clean cached copy of an unwritten reference equals the SSD copy.
        let vb = self.volatile.table.get(rid);
        if vb.data.is_some() && vb.placement.delta_home().is_none() {
            (at, Ok(self.durable.slots.content(slot).clone()))
        } else {
            self.read_slot(ref_lba, slot, at, ctx)
        }
    }

    /// Reads the content pinned for `lba` in SSD slot `slot`, retrying and
    /// then repairing from the HDD home copy on an uncorrectable error.
    pub(crate) fn read_slot(
        &mut self,
        lba: Lba,
        slot: u64,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> BlockRead {
        if self.slot_unavailable(slot) {
            // Failed (or not-yet-rebuilt) flash: serve the hardened HDD
            // home copy instead of touching the device.
            return self.degraded_slot_read(lba, slot, at, ctx);
        }
        match self.ssd_read_op(at, slot) {
            Ok(t) => (t, Ok(self.durable.slots.content(slot).clone())),
            Err(_) => {
                self.note_retry(at, slot, false);
                let (t, res) = self.repair_slot(lba, slot, at, ctx);
                if res.is_err() {
                    self.stats.unrecoverable_reads += 1;
                }
                (t, res)
            }
        }
    }

    /// Rebuilds SSD slot `slot` from `lba`'s HDD home copy: read the home
    /// position, check the bytes against the slot checksum, reprogram the
    /// slot. Refuses to "repair" with bytes that do not match the sum —
    /// serving wrong data silently is the one forbidden outcome.
    pub(crate) fn repair_slot(
        &mut self,
        lba: Lba,
        slot: u64,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> BlockRead {
        let pos = self.home_pos(lba);
        let t = match self.hdd_retry(Op::Read, at, pos, 1) {
            Ok(t) => t,
            Err(_) => return (at, Err(IoErrorKind::SsdMedia)),
        };
        let content = self.home_content(lba, ctx);
        if self.durable.slots.sum(slot) != Some(crc32(content.as_slice())) {
            return (t, Err(IoErrorKind::SsdMedia));
        }
        let t = match self.ssd_write_op(t, slot) {
            Ok(t) => t,
            Err(_) => return (t, Err(IoErrorKind::SsdMedia)),
        };
        self.durable.array.tracer().emit(|| TraceEvent {
            at: t,
            kind: TraceKind::SlotRepair { slot, ok: true },
        });
        (t, Ok(content))
    }

    /// Makes `id`'s delta, which lives at `home`, resident if it is not
    /// already: from the staging buffer when the block is staged
    /// (read-your-writes, no device operation), from the HDD log otherwise,
    /// in a fetch sized to the `wanted` blocks of the host request.
    fn fetch_delta(
        &mut self,
        id: VbId,
        home: DeltaHome,
        at: Ns,
        wanted: u32,
    ) -> (Ns, Result<(), IoErrorKind>) {
        if self.volatile.table.get(id).delta.is_some() {
            return (at, Ok(()));
        }
        match home {
            DeltaHome::Dirty => self.metadata_error("a dirty delta lives in RAM", at),
            DeltaHome::Staged => self.fetch_staged_delta(id, at),
            DeltaHome::Log(loc) => self.fetch_log_block(id, loc, at, wanted),
        }
    }

    /// Serves read-your-writes from the write pipeline: reinstalls `id`'s
    /// encoded-but-uncommitted delta from the staging buffer. Pure RAM —
    /// no device operation is charged and no trace event is emitted, so the
    /// read looks exactly like any other resident-delta decode.
    fn fetch_staged_delta(&mut self, id: VbId, at: Ns) -> (Ns, Result<(), IoErrorKind>) {
        let lba = self.volatile.table.get(id).lba;
        let Some(len) = self.volatile.staging.get(lba).map(Delta::len) else {
            return self.metadata_error("staged delta missing", at);
        };
        // `install_clean_delta` may flush under memory pressure, which can
        // commit the staging buffer: the block's home moves to the log
        // with its entry, and the resident delta claims it there.
        self.install_clean_delta(id, len, at);
        debug_assert!(self.volatile.table.get(id).delta.is_some());
        (at, Ok(()))
    }

    /// Installs what a fetch of log blocks `loc..loc + span` brought in:
    /// every entry that is its block's *current* delta and not resident
    /// yet. Walks the log in place — an install takes the entry's length;
    /// its bytes stay in the log — but over no more than the read returned:
    /// each block's entry count is taken first, because an install can
    /// flush, and a flush appends. (`DeltaLog::append` only adds blocks
    /// past the end today; the bound should not rest on how it packs.)
    fn install_fetched(&mut self, lba: Lba, loc: u32, span: u32, at: Ns) {
        #[cfg(test)]
        if tests::SNAPSHOT_WALK.with(std::cell::Cell::get) {
            return self.install_fetched_snapshot(lba, loc, span, at);
        }
        let mut fetched = [0usize; READAHEAD as usize];
        for (n, l) in fetched.iter_mut().zip(loc..loc + span) {
            *n = self.durable.log.fetch(l).entries.len();
        }
        let cleans = self.durable.log.cleans();
        for (l, &entries) in (loc..loc + span).zip(&fetched) {
            for i in 0..entries {
                // Installing can flush, and flushing can clean the log,
                // which renumbers every location: from then on the counts
                // taken above no longer describe the log (block `l` may be
                // shorter, or gone), so the walk would index past it. Only
                // the optional prefetches are lost by stopping.
                if self.durable.log.cleans() != cleans {
                    return;
                }
                let entry_lba = self.durable.log.fetch(l).entries[i].lba;
                // Materialise evicted siblings whose current delta lives in
                // this very block — the whole point of packing: one
                // mechanical read must service every I/O it covers (paper
                // §3.1).
                let target = match self.volatile.table.lookup(entry_lba) {
                    Some(tid) => tid,
                    None => match self.volatile.evicted.get(entry_lba) {
                        Some(&placement) if placement.delta_home() == Some(DeltaHome::Log(l)) => {
                            self.volatile.evicted.remove(entry_lba);
                            // No reserve_table_slot here: it could evict
                            // the very block this fetch is serving (callers
                            // hold its VbId). The table may briefly
                            // overshoot its bound; the next materialisation
                            // trims it.
                            let vb = self.rebuild_evicted(entry_lba, placement);
                            self.volatile.table.insert(vb)
                        }
                        _ => continue,
                    },
                };
                let vb = self.volatile.table.get(target);
                // Only install when this log block holds the *current* delta.
                if vb.placement.delta_home() != Some(DeltaHome::Log(l)) || vb.delta.is_some() {
                    continue;
                }
                let len = self.durable.log.fetch(l).entries[i].payload_len();
                self.install_clean_delta(target, len, at);
                if entry_lba != lba {
                    self.stats.log_prefetched_deltas += 1;
                }
            }
        }
    }

    /// Fetches the packed log block `loc` holding `id`'s delta from the HDD and
    /// unpacks *every* delta in it into RAM (the paper's one-HDD-op-many-IOs
    /// effect), with the blocks after it: [`SPAN_PER_WANTED`] per block
    /// the host request still wants (`wanted`), within `1..=READAHEAD` and
    /// the log's end. Returns the fetch completion instant; on a latent
    /// sector error the span narrows to just the mandatory block before
    /// the failure is reported.
    fn fetch_log_block(
        &mut self,
        id: VbId,
        loc: u32,
        at: Ns,
        wanted: u32,
    ) -> (Ns, Result<(), IoErrorKind>) {
        let lba = self.volatile.table.get(id).lba;
        let span = SPAN_PER_WANTED.saturating_mul(wanted).clamp(1, READAHEAD);
        let to_end = self.durable.log.len_blocks() - loc as u64;
        let mut span = (span as u64).min(to_end).max(1) as u32;
        let log_pos = self.cfg.log_start() + loc as u64;
        let first = self.durable.array.hdd_mut().read(at, log_pos, span);
        self.note_device(at, crate::health::DEV_HDD, first.is_ok());
        let t = match first {
            Ok(t) => t,
            Err(_) => {
                // Some block of the fetched span is unreadable; retry
                // with just the block the host actually needs.
                self.note_retry(at, log_pos, false);
                span = 1;
                let narrow = self.durable.array.hdd_mut().read(at, log_pos, 1);
                self.note_device(at, crate::health::DEV_HDD, narrow.is_ok());
                match narrow {
                    Ok(t) => t,
                    Err(_) => {
                        self.stats.unrecoverable_reads += 1;
                        return (at, Err(IoErrorKind::HddMedia));
                    }
                }
            }
        };
        self.stats.log_fetches += 1;
        self.install_fetched(lba, loc, span, at);
        // The block we came for is mandatory: if a mid-loop log clean moved
        // it, reinstall from its current location (the payload is
        // unchanged by cleaning).
        if self.volatile.table.get(id).delta.is_none() {
            let loc2 = match self.volatile.table.get(id).placement.delta_home() {
                Some(DeltaHome::Log(l)) => l,
                _ => return self.metadata_error("delta must be logged", t),
            };
            match self.durable.log.entry(loc2, lba).map(LogEntry::payload_len) {
                Some(len) => self.install_clean_delta(id, len, at),
                None => return self.metadata_error("log must hold the pointed-at delta", t),
            }
        }
        debug_assert!(self.volatile.table.get(id).delta.is_some());
        (t, Ok(()))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::IcashConfig;
    use icash_storage::block::BLOCK_SIZE;
    use icash_storage::cpu::CpuModel;
    use icash_storage::fault::{FaultPlan, FaultTrigger};
    use icash_storage::system::{ContentSource, StorageSystem, ZeroSource};
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::BTreeSet;
    use std::thread::LocalKey;

    thread_local! {
        /// Routes [`Icash::install_fetched`] through the snapshot oracle
        /// (this thread's controllers only).
        pub(super) static SNAPSHOT_WALK: Cell<bool> = const { Cell::new(false) };
        /// Leaves [`Volatile::home_stash`] empty, so every home read
        /// generates its image (this thread's controllers only).
        ///
        /// [`Volatile::home_stash`]: crate::controller::Volatile::home_stash
        pub(crate) static NO_HOME_STASH: Cell<bool> = const { Cell::new(false) };
    }

    impl Icash {
        /// [`Icash::install_fetched`] as it was: snapshot every entry of the
        /// fetched span up front, then decide which few to install. Kept
        /// as the oracle.
        pub(super) fn install_fetched_snapshot(&mut self, lba: Lba, loc: u32, span: u32, at: Ns) {
            let entries: Vec<(u32, Lba, usize)> = (loc..loc + span)
                .flat_map(|l| {
                    self.durable
                        .log
                        .fetch(l)
                        .entries
                        .iter()
                        .map(move |e| (l, e.lba, e.payload_len()))
                })
                .collect();
            let cleans = self.durable.log.cleans();
            for (loc, entry_lba, len) in entries {
                if self.durable.log.cleans() != cleans {
                    break;
                }
                let target = match self.volatile.table.lookup(entry_lba) {
                    Some(tid) => tid,
                    None => match self.volatile.evicted.get(entry_lba) {
                        Some(&placement) if placement.delta_home() == Some(DeltaHome::Log(loc)) => {
                            self.volatile.evicted.remove(entry_lba);
                            let vb = self.rebuild_evicted(entry_lba, placement);
                            self.volatile.table.insert(vb)
                        }
                        _ => continue,
                    },
                };
                let vb = self.volatile.table.get(target);
                if vb.placement.delta_home() != Some(DeltaHome::Log(loc)) || vb.delta.is_some() {
                    continue;
                }
                self.install_clean_delta(target, len, at);
                if entry_lba != lba {
                    self.stats.log_prefetched_deltas += 1;
                }
            }
        }
    }

    /// Block address space of the generated histories (`tests/common`'s).
    const SPACE: u64 = 64;

    /// What a written block holds: `tests/common`'s two families, plus the
    /// one that makes a log block worth fetching.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) enum Family {
        /// One shared base with a per-tag tweak: binds to a reference.
        Similar,
        /// Incompressible: overflows the delta threshold, takes a slot.
        Noise,
        /// A few hundred noisy bytes in a zero block: a zero-based delta
        /// small enough that nine share a log block.
        Sparse,
    }

    fn block_for(lba: u64, tag: u8, family: Family) -> BlockBuf {
        let mut v = vec![if family == Family::Sparse { 0 } else { 0xA7u8 }; 4096];
        let noisy = match family {
            Family::Similar => 0,
            Family::Noise => 4096,
            Family::Sparse => 300 + (lba as usize % 5) * 40,
        };
        let mut state = (lba << 16 | u64::from(tag) << 1 | 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for byte in &mut v[16..16 + noisy.min(4080)] {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = state as u8;
        }
        v[3] = tag;
        v[8..16].copy_from_slice(&lba.to_le_bytes());
        BlockBuf::from_vec(v)
    }

    /// `tests/common::SysOp`, with the barrier traded for a crash (a torn
    /// tail is the log shape this walk has to survive).
    #[derive(Debug, Clone)]
    pub(crate) enum SysOp {
        Write {
            lba: u64,
            tag: u8,
            family: Family,
        },
        WriteSpan {
            lba: u64,
            blocks: u32,
            tag: u8,
            family: Family,
        },
        Read {
            lba: u64,
        },
        ReadSpan {
            lba: u64,
            blocks: u32,
        },
        Flush,
        Crash,
    }

    fn family() -> impl Strategy<Value = Family> {
        prop_oneof![
            Just(Family::Similar),
            Just(Family::Sparse),
            Just(Family::Sparse),
            Just(Family::Noise)
        ]
    }

    /// 1–199 ops in `tests/common::ops_strategy`'s mix: single writes and
    /// reads dominate, with streamed spans, multi-block reads (a first
    /// fetch of 4 to 16 log blocks), flushes and a rare crash.
    pub(crate) fn ops_strategy() -> impl Strategy<Value = Vec<SysOp>> {
        let write = || {
            (0..SPACE, any::<u8>(), family()).prop_map(|(lba, tag, family)| SysOp::Write {
                lba,
                tag,
                family,
            })
        };
        let read = || (0..SPACE).prop_map(|lba| SysOp::Read { lba });
        let read_span =
            || (0..SPACE, 2u32..9).prop_map(|(lba, blocks)| SysOp::ReadSpan { lba, blocks });
        let span = || {
            (0..SPACE - 24, 8u32..25, any::<u8>(), family()).prop_map(
                |(lba, blocks, tag, family)| SysOp::WriteSpan {
                    lba,
                    blocks,
                    tag,
                    family,
                },
            )
        };
        prop::collection::vec(
            prop_oneof![
                write(),
                write(),
                write(),
                read(),
                read(),
                read(),
                read(),
                read_span(),
                span(),
                span(),
                Just(SysOp::Flush),
                (0u8..8).prop_map(|roll| if roll == 0 {
                    SysOp::Crash
                } else {
                    SysOp::Flush
                }),
            ],
            1..200,
        )
    }

    /// Everything the walk can reach, in a comparable form: the table (slab
    /// index included — the walk inserts), the eviction records, the pool.
    fn state_of(sys: &Icash) -> Vec<String> {
        let delta_sum = |d: &Delta| (d.encoding(), crc32(d.payload()));
        let mut rows: Vec<String> = (0..SPACE + 256)
            .filter_map(|l| {
                let id = sys.volatile.table.lookup(Lba::new(l))?;
                let vb = sys.volatile.table.get(id);
                Some(format!(
                    "{l}@{}: {:?} delta {:?} bytes {:?} data {:?}",
                    id.index(),
                    vb.placement,
                    vb.delta
                        .as_ref()
                        .map(|c| (c.payload.as_ref().map(delta_sum), c.len, c.charge)),
                    sys.resident_delta(id).map(delta_sum),
                    vb.data.as_ref().map(|d| crc32(d.block().as_slice())),
                ))
            })
            .collect();
        let mut evicted: Vec<String> = sys
            .volatile
            .evicted
            .iter()
            .map(|(lba, state)| format!("evicted {lba}: {state:?}"))
            .collect();
        evicted.sort();
        rows.extend(evicted);
        rows.push(format!(
            "pool {} log {} blocks",
            sys.volatile.pool.used(),
            sys.durable.log.len_blocks(),
        ));
        let order: Vec<usize> = sys
            .volatile
            .table
            .head_ids(usize::MAX)
            .iter()
            .map(|id| id.index())
            .collect();
        rows.push(format!("lru {order:?}"));
        rows
    }

    /// Runs `ops` through two controllers in lockstep — one with `oracle`
    /// set, routing its controllers through an oracle (this module's
    /// snapshot walk, `maintenance`'s rank-all scan), the other without —
    /// comparing each completion, the statistics, the blocks promoted (in
    /// order) and [`state_of`] after every op. Returns the final statistics,
    /// how many reads cleaned the log inside their fetch, and the spans (in
    /// blocks) of the fetches that were a read's only HDD operation.
    pub(crate) fn lockstep(
        cfg: &IcashConfig,
        ops: &[SysOp],
        oracle: &'static LocalKey<Cell<bool>>,
    ) -> Lockstep {
        lockstep_bounded(cfg, ops, oracle, None)
    }

    /// [`lockstep`] with the table bounded at `table_bound` blocks (set
    /// again after every crash), far below any geometry's own bound.
    pub(crate) fn lockstep_bounded(
        cfg: &IcashConfig,
        ops: &[SysOp],
        oracle: &'static LocalKey<Cell<bool>>,
        table_bound: Option<usize>,
    ) -> Lockstep {
        lockstep_on(&ZeroSource, cfg, ops, oracle, table_bound)
    }

    /// What [`lockstep`] returns.
    pub(crate) type Lockstep = (crate::stats::IcashStats, u32, BTreeSet<u32>);

    /// [`lockstep_bounded`] over the home image `backing`.
    fn lockstep_on(
        backing: &dyn ContentSource,
        cfg: &IcashConfig,
        ops: &[SysOp],
        oracle: &'static LocalKey<Cell<bool>>,
        table_bound: Option<usize>,
    ) -> Lockstep {
        let plan = || FaultPlan {
            torn_writes: true,
            ..FaultPlan::none()
        };
        let bound = |mut sys: Icash| {
            if let Some(bound) = table_bound {
                sys.volatile.max_virtual_blocks = bound;
            }
            sys
        };
        let mut pair = [true, false].map(|oracle| {
            (
                oracle,
                bound(Icash::new(cfg.clone()).with_fault_plan(plan())),
                CpuModel::xeon(),
            )
        });
        let mut now = Ns::ZERO;
        let mut cleaned_inside = 0;
        let mut spans = BTreeSet::new();
        let promoted = &crate::maintenance::tests::PROMOTED;
        for (n, op) in ops.iter().enumerate() {
            let mut outcomes = Vec::new();
            for (routed, sys, cpu) in &mut pair {
                promoted.take();
                oracle.with(|w| w.set(*routed));
                let mut ctx = IoCtx::verifying(backing, cpu);
                let before = sys.stats();
                let cleans = sys.durable.log.cleans();
                let hdd_before = sys.durable.array.hdd().stats().clone();
                let done = match *op {
                    SysOp::Write { lba, tag, family } => {
                        let req = Request::write(Lba::new(lba), now, block_for(lba, tag, family));
                        sys.submit(&req, &mut ctx)
                    }
                    SysOp::WriteSpan {
                        lba,
                        blocks,
                        tag,
                        family,
                    } => {
                        let payload =
                            (lba..lba + u64::from(blocks)).map(|l| block_for(l, tag, family));
                        let req = Request::write_span(Lba::new(lba), now, payload.collect());
                        sys.submit(&req, &mut ctx)
                    }
                    SysOp::Read { lba } => sys.submit(&Request::read(Lba::new(lba), now), &mut ctx),
                    SysOp::ReadSpan { lba, blocks } => {
                        sys.submit(&Request::read_span(Lba::new(lba), blocks, now), &mut ctx)
                    }
                    SysOp::Flush => icash_storage::request::Completion::at(StorageSystem::flush(
                        sys, now, &mut ctx,
                    )),
                    SysOp::Crash => {
                        let cold = std::mem::replace(sys, Icash::new(cfg.clone()));
                        *sys = bound(cold.crash_and_recover());
                        icash_storage::request::Completion::at(now)
                    }
                };
                oracle.with(|w| w.set(false));
                sys.debug_validate();
                let after = sys.stats();
                let reading = matches!(op, SysOp::Read { .. } | SysOp::ReadSpan { .. });
                if !*routed
                    && reading
                    && after.log_fetches > before.log_fetches
                    && sys.durable.log.cleans() > cleans
                {
                    cleaned_inside += 1;
                }
                let hdd = sys.durable.array.hdd().stats();
                if !*routed
                    && reading
                    && after.log_fetches == before.log_fetches + 1
                    && hdd.reads == hdd_before.reads + 1
                {
                    spans.insert(
                        ((hdd.read_bytes - hdd_before.read_bytes) / BLOCK_SIZE as u64) as u32,
                    );
                }
                let promotions = promoted.take();
                outcomes.push((
                    done.finished,
                    done.data,
                    done.errors,
                    after,
                    promotions,
                    state_of(sys),
                ));
            }
            let walk = outcomes.pop().expect("two controllers");
            let oracle = outcomes.pop().expect("two controllers");
            assert_eq!(walk.0, oracle.0, "op {n} {op:?}: completion instant");
            assert!(walk.1 == oracle.1, "op {n} {op:?}: bytes read");
            assert_eq!(walk.2, oracle.2, "op {n} {op:?}: errors");
            assert_eq!(walk.3, oracle.3, "op {n} {op:?}: statistics");
            assert_eq!(walk.4, oracle.4, "op {n} {op:?}: promotions");
            assert_eq!(walk.5, oracle.5, "op {n} {op:?}: controller state");
            now = walk.0.max(now);
        }
        let stats = pair[1].1.stats();
        (stats, cleaned_inside, spans)
    }

    /// The 64 KiB pool holds sixteen blocks: installs evict, and with the
    /// flush interval out of reach the log commits when an install needs
    /// room — inside the walk, not between two ops. `log_blocks` small
    /// enough that such a commit also cleans.
    fn tight(log_blocks: u64) -> IcashConfig {
        IcashConfig::builder(1 << 20, 64 << 10, 4 << 20)
            .scan_interval(40)
            .scan_window(64)
            .flush_interval(1_000_000)
            .log_blocks(log_blocks)
            .build()
    }

    /// A home image whose blocks all differ, so an image served for the
    /// wrong address, or a stale one, shows in the bytes a read returns.
    /// Counts the images it generates.
    #[derive(Default)]
    struct Addressed(Cell<u64>);

    impl ContentSource for Addressed {
        fn initial_content(&self, lba: Lba) -> BlockBuf {
            self.0.set(self.0.get() + 1);
            let mut bytes = vec![0u8; BLOCK_SIZE];
            for (i, word) in bytes.chunks_exact_mut(8).take(64).enumerate() {
                word.copy_from_slice(&(lba.raw() << 8 | i as u64).to_le_bytes());
            }
            BlockBuf::from_vec(bytes)
        }
    }

    /// A first-touch read generates its home image once, for the signature
    /// and the bytes both; with the stash off it generates it twice. The
    /// stash does not outlive the request.
    #[test]
    fn a_first_touch_read_generates_its_home_image_once() {
        for (off, images) in [(false, 1), (true, 2)] {
            NO_HOME_STASH.with(|c| c.set(off));
            let backing = Addressed::default();
            let mut sys = Icash::new(tight(1 << 14));
            let mut cpu = CpuModel::xeon();
            let mut ctx = IoCtx::verifying(&backing, &mut cpu);
            let done = sys.submit(&Request::read(Lba::new(7), Ns::ZERO), &mut ctx);
            NO_HOME_STASH.with(|c| c.set(false));
            assert_eq!(backing.0.get(), images, "stash off: {off}");
            assert!(done.data == [backing.initial_content(Lba::new(7))]);
            assert_eq!(sys.stats().home_reads, 1);
            assert!(sys.volatile.home_stash.is_none());
        }
    }

    /// The stash serves only its own address, only inside the request that
    /// filled it, and only until a home write of that address.
    #[test]
    fn the_home_stash_serves_only_its_address_and_request() {
        let backing = Addressed::default();
        let mut sys = Icash::new(tight(1 << 14));
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        let (a, b) = (Lba::new(3), Lba::new(9));
        // A write's first touch stashes an image no read takes.
        sys.submit(&Request::write(a, Ns::ZERO, BlockBuf::zeroed()), &mut ctx);
        assert!(sys.volatile.home_stash.is_none());
        // `b` tracked at home without its data, another address stashed.
        sys.submit(&Request::read(b, Ns::ZERO), &mut ctx);
        let id = sys.volatile.table.lookup(b).expect("tracked");
        sys.drop_data(id);
        sys.stash_home(a, backing.initial_content(a));
        let done = sys.submit(&Request::read(b, Ns::ZERO), &mut ctx);
        assert!(done.data == [backing.initial_content(b)]);
        sys.stash_home(b, backing.initial_content(b));
        sys.write_home_copy(b, &BlockBuf::zeroed(), Ns::ZERO);
        assert!(sys.volatile.home_stash.is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_in_place_walk_matches_the_snapshot_oracle(
            ops in ops_strategy(),
            log_pick in 0usize..5,
            eager_flush in any::<bool>(),
        ) {
            let (log_blocks, depth) =
                [(160, 1), (160, 4), (256, 1), (1 << 14, 1), (1 << 14, 4)][log_pick];
            let mut cfg = tight(log_blocks);
            if eager_flush {
                cfg.flush_interval = 20;
            }
            cfg.group_commit_depth = depth;
            lockstep(&cfg, &ops, &SNAPSHOT_WALK);
        }

        /// Generating a first touch's home image once moves nothing the
        /// controller does — completions, bytes read, statistics, table —
        /// against one with the stash off, over a home image whose blocks
        /// differ (torn writes armed: slots also write home copies).
        #[test]
        fn the_home_stash_matches_generating_every_image(
            ops in ops_strategy(),
            depth in prop_oneof![Just(1), Just(4)],
        ) {
            let mut cfg = tight(1 << 14);
            cfg.group_commit_depth = depth;
            lockstep_on(&Addressed::default(), &cfg, &ops, &NO_HOME_STASH, None);
        }

        /// Releasing superseded log payloads moves nothing the controller
        /// does — completions, bytes read, statistics, table — against one
        /// that keeps every payload, crashes (torn) included.
        #[test]
        fn releasing_log_payloads_matches_keeping_them(
            ops in ops_strategy(),
            log_pick in 0usize..4,
            eager_flush in any::<bool>(),
        ) {
            let (log_blocks, depth) = [(64, 1), (160, 4), (1 << 14, 1), (1 << 14, 4)][log_pick];
            let mut cfg = tight(log_blocks);
            if eager_flush {
                cfg.flush_interval = 20;
            }
            cfg.group_commit_depth = depth;
            lockstep(&cfg, &ops, &crate::delta_log::KEEP_PAYLOADS);
        }
    }

    /// A controller that neither scans nor flushes on its own, and the
    /// bytes taken from cached blocks so far on this thread.
    fn quiet() -> Icash {
        let cfg = IcashConfig::builder(1 << 20, 256 << 10, 4 << 20)
            .scan_interval(1_000_000)
            .flush_interval(1_000_000)
            .build();
        Icash::new(cfg)
    }

    fn bytes_read() -> u64 {
        crate::virtual_block::tests::BYTES_READ.with(Cell::get)
    }

    /// A RAM hit nobody collects touches neither the cached block's bytes
    /// nor a handle on them; a collected one takes the bytes once.
    #[test]
    fn an_uncollected_ram_hit_takes_no_handle() {
        let mut sys = quiet();
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let written = block_for(5, 1, Family::Noise);
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        sys.submit(
            &Request::write(Lba::new(5), Ns::ZERO, written.clone()),
            &mut ctx,
        );
        let (hits, taken) = (sys.stats().ram_hits, bytes_read());
        for _ in 0..3 {
            let done = sys.submit(&Request::read(Lba::new(5), Ns::ZERO), &mut ctx);
            assert!(done.data.is_empty() && done.errors.is_empty());
        }
        assert_eq!(sys.stats().ram_hits - hits, 3);
        assert_eq!(bytes_read(), taken, "an uncollected hit read the bytes");
        ctx.collect_data = true;
        let done = sys.submit(&Request::read(Lba::new(5), Ns::ZERO), &mut ctx);
        assert!(done.data == [written]);
        assert_eq!(bytes_read(), taken + 1);
    }

    /// Reading an associate caches its recipe and counts the simulated
    /// decode, but builds no bytes until a collected read asks for them.
    #[test]
    fn an_associate_read_decodes_only_when_its_bytes_are_read() {
        let mut sys = quiet();
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        let reference = block_for(0, 0, Family::Similar);
        sys.submit(&Request::write(Lba::new(0), Ns::ZERO, reference), &mut ctx);
        let rid = sys.volatile.table.lookup(Lba::new(0)).expect("tracked");
        sys.promote(rid, Ns::ZERO).expect("a free slot");
        let associate = block_for(1, 9, Family::Similar);
        let write = Request::write(Lba::new(1), Ns::ZERO, associate.clone());
        sys.submit(&write, &mut ctx);
        let id = sys.volatile.table.lookup(Lba::new(1)).expect("tracked");
        assert_eq!(
            sys.volatile.table.get(id).placement.reference(),
            Some(Lba::new(0))
        );
        sys.drop_data(id);

        let decodes = sys.stats().delta_hits;
        let done = sys.submit(&Request::read(Lba::new(1), Ns::ZERO), &mut ctx);
        assert!(done.errors.is_empty());
        assert_eq!(
            sys.stats().delta_hits - decodes,
            1,
            "the decode is simulated"
        );
        let cached = |sys: &Icash| {
            let data = sys.volatile.table.get(id).data.as_ref().expect("cached");
            (matches!(data, CachedData::Recipe(_)), data.is_built())
        };
        assert_eq!(cached(&sys), (true, false), "decoded for nobody");
        ctx.collect_data = true;
        let done = sys.submit(&Request::read(Lba::new(1), Ns::ZERO), &mut ctx);
        assert!(done.data == [associate]);
        assert_eq!(cached(&sys), (true, true));
        sys.debug_validate();
    }

    /// A recipe holds handles, not locations: an associate read back from
    /// the log and cached undecoded still reads the version it was read
    /// as after its reference's slot is reprogrammed and the log cleaned
    /// (its entry moved). No controller path rewrites a slot under a live
    /// associate; the slot store is set directly to stand for one.
    #[test]
    fn a_recipe_survives_a_slot_reprogram_and_a_clean() {
        let mut sys = quiet();
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        let reference = block_for(0, 0, Family::Similar);
        sys.submit(&Request::write(Lba::new(0), Ns::ZERO, reference), &mut ctx);
        let rid = sys.volatile.table.lookup(Lba::new(0)).expect("tracked");
        let slot = sys.promote(rid, Ns::ZERO).expect("a free slot");
        // Versions of a logged neighbour ahead of the associate's entry,
        // for the clean to drop.
        for tag in 0..4 {
            let req = Request::write(Lba::new(2), Ns::ZERO, block_for(2, tag, Family::Sparse));
            sys.submit(&req, &mut ctx);
            sys.flush_all(Ns::ZERO);
        }
        let associate = block_for(1, 9, Family::Similar);
        let write = Request::write(Lba::new(1), Ns::ZERO, associate.clone());
        sys.submit(&write, &mut ctx);
        sys.flush_all(Ns::ZERO);
        let id = sys.volatile.table.lookup(Lba::new(1)).expect("tracked");
        let logged = sys.volatile.table.get(id).placement.delta_home();
        assert!(matches!(logged, Some(DeltaHome::Log(_))), "{logged:?}");
        sys.drop_data(id);
        sys.drop_delta(id);

        let fetches = sys.stats().log_fetches;
        sys.submit(&Request::read(Lba::new(1), Ns::ZERO), &mut ctx);
        assert_eq!(sys.stats().log_fetches - fetches, 1);
        let data = sys.volatile.table.get(id).data.as_ref().expect("cached");
        assert!(!data.is_built());

        sys.durable
            .slots
            .install(Lba::new(0), slot, BlockBuf::filled(0x5A));
        let cleans = sys.durable.log.cleans();
        sys.clean_log(Ns::ZERO);
        assert_eq!(sys.durable.log.cleans() - cleans, 1);
        assert_ne!(sys.volatile.table.get(id).placement.delta_home(), logged);

        ctx.collect_data = true;
        let done = sys.submit(&Request::read(Lba::new(1), Ns::ZERO), &mut ctx);
        assert!(
            done.data == [associate],
            "the recipe decoded something else"
        );
    }

    /// Clean resident deltas claim their bytes at home through a group
    /// commit (depth 4) and a log clean: half the blocks are staged when
    /// their deltas are installed, half logged; the commit moves the staged
    /// entries to the log and the clean moves every entry. Each resident
    /// delta, decoded, still reads back its block's last write.
    #[test]
    fn claims_follow_their_entries_through_a_group_commit_and_a_clean() {
        const N: u64 = 24;
        let cfg = IcashConfig::builder(1 << 20, 256 << 10, 4 << 20)
            .scan_interval(1_000_000)
            .flush_interval(1_000_000)
            .group_commit_depth(4)
            .build();
        let mut sys = Icash::new(cfg);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        let mut last: Vec<BlockBuf> = (0..N).map(|l| block_for(l, 0, Family::Sparse)).collect();
        let span = Request::write_span(Lba::new(0), Ns::ZERO, last.clone());
        sys.submit(&span, &mut ctx);
        sys.flush_all(Ns::ZERO);
        for lba in 0..N / 2 {
            last[lba as usize] = block_for(lba, 1, Family::Sparse);
            let req = Request::write(Lba::new(lba), Ns::ZERO, last[lba as usize].clone());
            sys.submit(&req, &mut ctx);
        }
        sys.flush_dirty(Ns::ZERO); // staged: one trigger of four
        sys.debug_validate();

        let ids: Vec<VbId> = (0..N)
            .map(|l| sys.volatile.table.lookup(Lba::new(l)).expect("tracked"))
            .collect();
        let homes = |sys: &Icash| -> Vec<Option<DeltaHome>> {
            let vb = |&id| sys.volatile.table.get(id);
            ids.iter()
                .map(|id| vb(id).delta.as_ref().and(vb(id).placement.delta_home()))
                .collect()
        };
        let decode_all = |sys: &mut Icash, ctx: &mut IoCtx<'_>| {
            for (lba, &id) in (0..N).zip(&ids) {
                sys.drop_data(id);
                let done = sys.submit(&Request::read(Lba::new(lba), Ns::ZERO), ctx);
                assert!(done.errors.is_empty(), "block {lba}: {:?}", done.errors);
                assert!(
                    done.data[0] == last[lba as usize],
                    "block {lba} read back wrong"
                );
                sys.debug_validate();
            }
        };
        // The ladder's rungs: clean deltas and data go, then reads bring
        // the deltas back as claims on the staged and the logged entries.
        for &id in &ids {
            sys.drop_delta(id);
            sys.drop_data(id);
        }
        decode_all(&mut sys, &mut ctx);
        let staged = homes(&sys);
        assert!(staged[..N as usize / 2]
            .iter()
            .all(|h| *h == Some(DeltaHome::Staged)));
        assert!(staged[N as usize / 2..]
            .iter()
            .all(|h| matches!(h, Some(DeltaHome::Log(_)))));

        sys.flush_all(Ns::ZERO);
        let committed = homes(&sys);
        assert!(committed
            .iter()
            .all(|h| matches!(h, Some(DeltaHome::Log(_)))));
        sys.clean_log(Ns::ZERO);
        sys.debug_validate();
        let cleaned = homes(&sys);
        assert!(cleaned.iter().all(|h| matches!(h, Some(DeltaHome::Log(_)))));
        assert_ne!(cleaned, committed, "the clean moved no entry");
        let decodes = sys.stats().delta_hits;
        decode_all(&mut sys, &mut ctx);
        assert_eq!(sys.stats().delta_hits - decodes, N, "one decode a block");
        assert_eq!(homes(&sys), cleaned, "decoding fetched nothing");
    }

    /// Blocks evicted from the table with a logged delta come back through
    /// a fetch of their log block: the walk rebuilds each from its eviction
    /// record, takes the record out and installs the delta, and
    /// `debug_validate` finds no address both tracked and evicted.
    #[test]
    fn a_fetch_brings_evicted_siblings_back_into_the_table() {
        let cfg = IcashConfig::builder(1 << 20, 256 << 10, 4 << 20)
            .scan_interval(1_000_000)
            .flush_interval(1_000_000)
            .build();
        let mut sys = Icash::new(cfg);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        let written: Vec<BlockBuf> = (0..9).map(|l| block_for(l, 0, Family::Sparse)).collect();
        let span = Request::write_span(Lba::new(0), Ns::ZERO, written.clone());
        sys.submit(&span, &mut ctx);
        sys.flush_all(Ns::ZERO);
        // Bounded at what it holds, the table trims its tail — blocks 0..9
        // — on the first cold read.
        sys.volatile.max_virtual_blocks = sys.volatile.table.len();
        sys.submit(&Request::read(Lba::new(100), Ns::ZERO), &mut ctx);
        sys.debug_validate();
        let tracked = |sys: &Icash, l| sys.volatile.table.lookup(Lba::new(l));
        assert!((0..9).all(|l| tracked(&sys, l).is_none()));
        assert_eq!(sys.volatile.evicted.len(), 9);

        let prefetched = sys.stats().log_prefetched_deltas;
        let done = sys.submit(&Request::read(Lba::new(0), Ns::ZERO), &mut ctx);
        assert!(done.data[0] == written[0], "block 0 read back wrong");
        sys.debug_validate();
        assert_eq!(sys.stats().log_prefetched_deltas - prefetched, 8);
        assert!(
            sys.volatile.evicted.is_empty(),
            "a record outlived its block"
        );
        for l in 1..9 {
            let id = tracked(&sys, l).expect("rebuilt by the fetch");
            assert!(sys.volatile.table.get(id).delta.is_some(), "block {l}");
        }
    }

    /// `tests/placement.rs`'s clean-inside-a-fetch history, through both
    /// walks: blocks 0..9 share log block 0, block 8 moves on one log block
    /// a version, a streamed span fills the pool with dirty deltas, and the
    /// read of block 0 has to flush — and clean — to install its first
    /// delta. Neither walk may go on to install block 8's first version.
    #[test]
    fn a_clean_in_mid_walk_stops_both_walks_at_the_same_entry() {
        let mut cleaned_inside = 0;
        // (A band of filler counts leaves the pool less than one delta short
        // of full; the sweep finds it whatever the codec's exact sizes are.)
        for fillers in 135..=165 {
            let mut ops = vec![
                SysOp::WriteSpan {
                    lba: 0,
                    blocks: 9,
                    tag: 0,
                    family: Family::Sparse,
                },
                SysOp::Flush,
            ];
            for tag in 1..=50 {
                ops.push(SysOp::Write {
                    lba: 8,
                    tag,
                    family: Family::Sparse,
                });
                ops.push(SysOp::Flush);
            }
            ops.push(SysOp::WriteSpan {
                lba: 100,
                blocks: fillers,
                tag: 0,
                family: Family::Sparse,
            });
            ops.push(SysOp::Read { lba: 0 });
            ops.push(SysOp::Read { lba: 8 });
            let mut cfg = tight(72);
            cfg.scan_interval = 1_000_000;
            cleaned_inside += lockstep(&cfg, &ops, &SNAPSHOT_WALK).1;
        }
        assert!(cleaned_inside > 0, "no fetch cleaned the log mid-walk");
    }

    /// One fetch, many installs, a pool too small for them: the walk's own
    /// installs flush (appending behind the fetched span) and evict what it
    /// installed a moment ago; a crash then tears the tail it appended and
    /// the recovered controllers fetch over the shortened log.
    #[test]
    fn installs_that_flush_behind_the_span_and_a_torn_tail() {
        let mut ops = Vec::new();
        for round in 0..4u8 {
            ops.push(SysOp::WriteSpan {
                lba: 0,
                blocks: 24,
                tag: round,
                family: Family::Sparse,
            });
            ops.push(SysOp::WriteSpan {
                lba: 24,
                blocks: 24,
                tag: round,
                family: Family::Sparse,
            });
            ops.push(SysOp::Flush);
            ops.push(SysOp::WriteSpan {
                lba: 200,
                blocks: 20,
                tag: round,
                family: Family::Sparse,
            });
            ops.extend((0..48).step_by(5).map(|lba| SysOp::Read { lba }));
            ops.push(SysOp::WriteSpan {
                lba: 230,
                blocks: 12,
                tag: round,
                family: Family::Sparse,
            });
            ops.push(SysOp::Crash);
            ops.extend((0..48).step_by(7).map(|lba| SysOp::Read { lba }));
        }
        let (stats, ..) = lockstep(&tight(1 << 14), &ops, &SNAPSHOT_WALK);
        assert!(
            stats.log_fetches > 0 && stats.log_prefetched_deltas > 0,
            "{stats:?}"
        );
    }

    /// HDD reads issued and blocks they read, so far.
    fn hdd_reads(sys: &Icash) -> (u64, u64) {
        let stats = sys.durable.array.hdd().stats();
        (stats.reads, stats.read_bytes / BLOCK_SIZE as u64)
    }

    /// A quiet controller under `plan` holding blocks `0..n` as sparse
    /// deltas (nine to a packed log block) in a flushed log, with no block
    /// data or delta resident: every read of them fetches from the log.
    fn logged(n: u64, plan: FaultPlan) -> (Icash, Vec<BlockBuf>) {
        let mut sys = quiet().with_fault_plan(plan);
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::new(&ZeroSource, &mut cpu);
        let written: Vec<BlockBuf> = (0..n).map(|l| block_for(l, 0, Family::Sparse)).collect();
        sys.submit(
            &Request::write_span(Lba::new(0), Ns::ZERO, written.clone()),
            &mut ctx,
        );
        sys.flush_all(Ns::ZERO);
        for l in 0..n {
            let id = sys.volatile.table.lookup(Lba::new(l)).expect("tracked");
            sys.drop_delta(id);
            sys.drop_data(id);
        }
        (sys, written)
    }

    /// The log block holding `lba`'s delta.
    fn log_block_of(sys: &Icash, lba: u64) -> u32 {
        let id = sys.volatile.table.lookup(Lba::new(lba)).expect("tracked");
        match sys.volatile.table.get(id).placement.delta_home() {
            Some(DeltaHome::Log(loc)) => loc,
            home => panic!("block {lba} is not logged: {home:?}"),
        }
    }

    /// A 1-block read of an associate whose delta sits in log block `loc`,
    /// on a log of more blocks than the fetch reads, issues one HDD read
    /// of two blocks: `loc` and the one after it.
    #[test]
    fn a_one_block_read_fetches_two_log_blocks() {
        let mut sys = quiet();
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::verifying(&ZeroSource, &mut cpu);
        let reference = block_for(0, 0, Family::Similar);
        sys.submit(&Request::write(Lba::new(0), Ns::ZERO, reference), &mut ctx);
        let rid = sys.volatile.table.lookup(Lba::new(0)).expect("tracked");
        sys.promote(rid, Ns::ZERO).expect("a free slot");
        let associate = block_for(1, 9, Family::Similar);
        sys.submit(
            &Request::write(Lba::new(1), Ns::ZERO, associate.clone()),
            &mut ctx,
        );
        sys.flush_all(Ns::ZERO);
        let after: Vec<BlockBuf> = (100..127)
            .map(|l| block_for(l, 0, Family::Sparse))
            .collect();
        sys.submit(
            &Request::write_span(Lba::new(100), Ns::ZERO, after),
            &mut ctx,
        );
        sys.flush_all(Ns::ZERO);
        let id = sys.volatile.table.lookup(Lba::new(1)).expect("tracked");
        assert_eq!(
            sys.volatile.table.get(id).placement.reference(),
            Some(Lba::new(0))
        );
        let loc = log_block_of(&sys, 1);
        assert!(
            sys.durable.log.len_blocks() >= 3 && u64::from(loc) + 2 < sys.durable.log.len_blocks()
        );
        sys.drop_delta(id);
        sys.drop_data(id);

        let (reads, blocks) = hdd_reads(&sys);
        let done = sys.submit(&Request::read(Lba::new(1), Ns::ZERO), &mut ctx);
        assert!(done.errors.is_empty() && done.data == [associate]);
        assert_eq!(
            hdd_reads(&sys),
            (reads + 1, blocks + 2),
            "one read of two blocks"
        );
        assert_eq!(sys.stats().log_fetches, 1);
    }

    /// A 6-block read's first fetch spans twelve log blocks and serves the
    /// next four blocks with it. Its last block, rewritten since to a log
    /// block further on, is wanted alone: its fetch spans two.
    #[test]
    fn a_six_block_read_fetches_twelve_log_blocks() {
        let (mut sys, mut written) = logged(200, FaultPlan::none());
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::verifying(&ZeroSource, &mut cpu);
        written[5] = block_for(5, 1, Family::Sparse);
        sys.submit(
            &Request::write(Lba::new(5), Ns::ZERO, written[5].clone()),
            &mut ctx,
        );
        sys.flush_all(Ns::ZERO);
        let after: Vec<BlockBuf> = (300..330)
            .map(|l| block_for(l, 0, Family::Sparse))
            .collect();
        sys.submit(
            &Request::write_span(Lba::new(300), Ns::ZERO, after),
            &mut ctx,
        );
        sys.flush_all(Ns::ZERO);
        let id = sys.volatile.table.lookup(Lba::new(5)).expect("tracked");
        sys.drop_delta(id);
        sys.drop_data(id);
        let moved = u64::from(log_block_of(&sys, 5));
        assert!(moved > 12 && moved + 2 < sys.durable.log.len_blocks());

        let (reads, blocks) = hdd_reads(&sys);
        let done = sys.submit(&Request::read_span(Lba::new(0), 6, Ns::ZERO), &mut ctx);
        assert!(done.errors.is_empty() && done.data == written[..6]);
        assert_eq!(hdd_reads(&sys), (reads + 2, blocks + 12 + 2));
    }

    /// A fetch does not read past the log's end: a 1-block read of a delta
    /// in the last log block reads that block alone, and a 6-block read two
    /// blocks from the end reads the two.
    #[test]
    fn the_fetch_span_is_clipped_at_the_logs_end() {
        let (mut sys, written) = logged(200, FaultPlan::none());
        let len = sys.durable.log.len_blocks();
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::verifying(&ZeroSource, &mut cpu);
        let last = (0..200)
            .rev()
            .find(|&l| u64::from(log_block_of(&sys, l)) + 1 == len);
        let last = last.expect("a block in the last log block");
        let (reads, blocks) = hdd_reads(&sys);
        let done = sys.submit(&Request::read(Lba::new(last), Ns::ZERO), &mut ctx);
        assert!(done.data == [written[last as usize].clone()]);
        assert_eq!(hdd_reads(&sys), (reads + 1, blocks + 1));

        let near = (0..200).find(|&l| u64::from(log_block_of(&sys, l)) + 2 == len);
        let near = near.expect("a block two log blocks from the end");
        let (reads, blocks) = hdd_reads(&sys);
        let done = sys.submit(&Request::read_span(Lba::new(near), 6, Ns::ZERO), &mut ctx);
        let near = near as usize;
        assert!(done.errors.is_empty() && done.data == written[near..near + 6]);
        assert_eq!(hdd_reads(&sys), (reads + 1, blocks + 2));
    }

    /// A latent sector error inside a fetch's span narrows the fetch to
    /// the wanted block: a read whose own log block is readable returns
    /// the right bytes, one whose block is bad reports a typed error.
    #[test]
    fn a_latent_error_inside_the_span_narrows_to_the_wanted_block() {
        // The first HDD read after set-up (the fetch for a block in log
        // block 1) is failed by a trigger, which leaves log block 1
        // unreadable.
        let (sys, _) = logged(27, FaultPlan::none());
        let bad = (0..27).find(|&l| log_block_of(&sys, l) == 1);
        let bad = bad.expect("a block in log block 1");
        assert_eq!(log_block_of(&sys, 0), 0);
        let op = hdd_reads(&sys).0;
        let plan = FaultPlan::seeded(1).trigger(FaultTrigger::HddRead { op });
        let (mut sys, written) = logged(27, plan);
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::verifying(&ZeroSource, &mut cpu);

        let (reads, blocks) = hdd_reads(&sys);
        let done = sys.submit(&Request::read(Lba::new(bad), Ns::ZERO), &mut ctx);
        assert_eq!(done.errors.len(), 1);
        assert_eq!(done.errors[0].kind, IoErrorKind::HddMedia);
        assert_eq!(
            hdd_reads(&sys),
            (reads + 2, blocks + 3),
            "two blocks, then one"
        );

        // Block 0's fetch of log blocks 0..2 hits the bad block 1 and
        // narrows to block 0, which it reads back whole.
        let (reads, blocks) = hdd_reads(&sys);
        let done = sys.submit(&Request::read(Lba::new(0), Ns::ZERO), &mut ctx);
        assert!(done.errors.is_empty() && done.data == [written[0].clone()]);
        assert_eq!(
            hdd_reads(&sys),
            (reads + 2, blocks + 3),
            "two blocks, then one"
        );
        let id = sys.volatile.table.lookup(Lba::new(1)).expect("tracked");
        assert!(
            sys.volatile.table.get(id).delta.is_some(),
            "block 0's log neighbour"
        );
        let id = sys.volatile.table.lookup(Lba::new(bad)).expect("tracked");
        assert!(
            sys.volatile.table.get(id).delta.is_none(),
            "nothing of the bad block"
        );
    }

    /// The in-place walk against the snapshot oracle over fetches of one,
    /// two and sixteen log blocks: a crash empties RAM over a log of more
    /// than 16 blocks, then a 1-block read fetches two blocks, an 8-block
    /// read sixteen, and a read of the last log block that block alone.
    /// (A pool that takes a whole 16-block fetch, so each read is one
    /// fetch and its span shows.)
    #[test]
    fn the_in_place_walk_matches_the_oracle_at_spans_1_2_and_16() {
        let mut ops: Vec<SysOp> = (0..10)
            .map(|i| SysOp::WriteSpan {
                lba: 24 * i,
                blocks: 24,
                tag: i as u8,
                family: Family::Sparse,
            })
            .collect();
        ops.extend([
            SysOp::Flush,
            SysOp::Crash,
            SysOp::Read { lba: 0 },
            SysOp::ReadSpan { lba: 60, blocks: 8 },
            SysOp::Read { lba: 239 },
        ]);
        let mut cfg = tight(1 << 14);
        cfg.ram_bytes = 256 << 10;
        let (stats, _, spans) = lockstep(&cfg, &ops, &SNAPSHOT_WALK);
        assert_eq!(spans, BTreeSet::from([1, 2, 16]), "{stats:?}");
    }
}
