//! The I-CASH controller (paper §3–§4).
//!
//! [`Icash`] couples one SSD (reference blocks) and one HDD (home area +
//! packed delta log) through the similarity/delta machinery of
//! `icash-delta`:
//!
//! * **Writes** are absorbed as deltas against SSD-resident reference
//!   blocks, buffered in RAM segments, and flushed to the HDD log in big
//!   sequential batches. Deltas above the 2 KB threshold are written to the
//!   SSD directly instead.
//! * **Reads** combine the SSD reference block with the cached delta —
//!   microseconds of flash read plus decode instead of a mechanical seek.
//!   When a delta must come from the HDD log, the *whole* packed block is
//!   unpacked, so one mechanical read services many future requests.
//! * A periodic **scanner** (every `scan_interval` I/Os, over the
//!   `scan_window` most recent blocks) uses the Heatmap to pick popular
//!   content as new reference blocks and re-binds similar blocks to them.

use crate::config::IcashConfig;
use crate::delta_log::DeltaLog;
use crate::index_cache::RefIndexCache;
use crate::ref_index::RefIndex;
use crate::segment::SegmentPool;
use crate::stats::IcashStats;
use crate::table::{BlockTable, VbId};
use crate::virtual_block::{CachedDelta, Role, VirtualBlock};
use icash_delta::codec::DeltaCodec;
use icash_delta::heatmap::Heatmap;
use icash_delta::signature::BlockSignature;
use icash_delta::similarity::SimilarityFilter;
use icash_storage::array::DeviceArray;
use icash_storage::block::{BlockBuf, Lba};
use icash_storage::cpu::CpuOp;
use icash_storage::fault::{crc32, FaultPlan};
use icash_storage::hdd::{Hdd, HddError};
use icash_storage::pipeline::Ticket;
use icash_storage::request::{BlockError, Completion, IoErrorKind, Op, Request};
use icash_storage::ssd::Ssd;
use icash_storage::system::{GroupCommitReport, IoCtx, StorageSystem, SystemReport};
use icash_storage::time::Ns;
use icash_storage::trace::{TraceEvent, TraceKind, Tracer};
use std::collections::{HashMap, HashSet};

/// The pseudo-reference for log-resident independent blocks: their log
/// entries decode against an all-zero block, so any zero-heavy content
/// compresses and the rest is stored raw — either way the write rides the
/// sequential delta log instead of a random home write.
const ZERO_REF: [u8; icash_storage::block::BLOCK_SIZE] = [0; icash_storage::block::BLOCK_SIZE];

/// A slot-directory record: which SSD slot a block owns and the controller
/// generation at which the slot's content was installed. Log entries carry
/// the same monotonic stamps, so recovery can order a logged delta against
/// the pinned copy — a reused or rewritten slot must never resurrect stale
/// log data ("latest per LBA" alone is not enough once slots are reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotRecord {
    /// The SSD slot (logical page) holding the content.
    pub slot: u64,
    /// Generation stamp of the install that wrote the current content.
    pub generation: u64,
}

/// The outcome of resolving one block's content: the completion instant
/// plus either the bytes or the error class reported to the host.
pub(crate) type BlockRead = (Ns, Result<BlockBuf, IoErrorKind>);

/// Where an evicted virtual block's content lives, so the controller can
/// rebuild it on the next access.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EvictedState {
    /// Full content pinned in an SSD slot.
    InSsd(u64),
    /// Associate: decode the reference against the delta in this log block.
    InLog {
        /// The reference block it is encoded against.
        reference: Lba,
        /// Packed log block holding the delta.
        loc: u32,
    },
}

/// The I-CASH storage element: one SSD and one HDD coupled by the
/// similarity/delta algorithm.
///
/// # Examples
///
/// ```
/// use icash_core::{Icash, IcashConfig};
/// use icash_storage::{BlockBuf, IoCtx, Lba, Ns, Request, StorageSystem, ZeroSource};
/// use icash_storage::cpu::CpuModel;
///
/// let mut icash = Icash::new(IcashConfig::builder(1 << 20, 1 << 20, 8 << 20).build());
/// let mut cpu = CpuModel::xeon();
/// let backing = ZeroSource;
/// let mut ctx = IoCtx::verifying(&backing, &mut cpu);
///
/// let w = Request::write(Lba::new(3), Ns::ZERO, BlockBuf::filled(0xAA));
/// let done = icash.submit(&w, &mut ctx).finished;
/// let r = Request::read(Lba::new(3), done);
/// assert_eq!(icash.submit(&r, &mut ctx).data[0], BlockBuf::filled(0xAA));
/// ```
#[derive(Debug)]
pub struct Icash {
    pub(crate) cfg: IcashConfig,
    /// The coupled SSD + HDD pair plus the RAM-buffer budget; owns all
    /// device accounting (stats, wear, energy, report assembly).
    pub(crate) array: DeviceArray,
    pub(crate) codec: DeltaCodec,
    pub(crate) filter: SimilarityFilter,
    pub(crate) heatmap: Heatmap,
    pub(crate) table: BlockTable,
    pub(crate) pool: SegmentPool,
    pub(crate) log: DeltaLog,
    pub(crate) ref_index: RefIndex,
    /// Cached chunk indexes over reference content (keyed by SSD slot,
    /// plus the permanent zero-reference index).
    pub(crate) ref_cache: RefIndexCache,
    /// SSD slot → pinned content (reference blocks and direct writes).
    pub(crate) ssd_store: HashMap<u64, BlockBuf>,
    /// Persistent metadata: which LBA owns which SSD slot and at which
    /// generation its content was installed (flushed with the paper's
    /// periodic metadata writes; recovery reads it back).
    pub(crate) slot_dir: HashMap<Lba, SlotRecord>,
    /// CRC32 of each pinned slot's content, maintained exclusively by
    /// [`Icash::ssd_install`]/[`Icash::ssd_discard`]. Repair-from-home
    /// refuses to "heal" a slot with bytes that do not match this sum.
    pub(crate) slot_sums: HashMap<u64, u32>,
    /// Monotonic stamp source for slot installs and log entries.
    pub(crate) next_generation: u64,
    /// The armed fault campaign (disabled by default; see
    /// [`Icash::with_fault_plan`]).
    pub(crate) fault_plan: FaultPlan,
    pub(crate) next_slot: u64,
    pub(crate) free_slots: Vec<u64>,
    /// Independent content written back to the HDD home area.
    pub(crate) home_overlay: HashMap<Lba, BlockBuf>,
    /// Content fetched by a span's batched home-read prefetch, consumed by
    /// the per-block resolution that immediately follows and cleared at the
    /// end of the request. Never populated without a device queue.
    pub(crate) span_prefetch: HashMap<Lba, BlockBuf>,
    /// Evicted virtual blocks whose content is *not* in the home area.
    pub(crate) evicted: HashMap<Lba, EvictedState>,
    /// Virtual blocks with unflushed deltas.
    pub(crate) dirty: HashSet<usize>,
    pub(crate) dirty_bytes: usize,
    /// The group-commit staging buffer: encoded-but-uncommitted deltas
    /// keyed by monotonic flush tickets. Always empty at
    /// `group_commit_depth = 1` (the synchronous cycle never stages).
    pub(crate) staging: crate::staging::Staging,
    pub(crate) ios_since_scan: u64,
    pub(crate) ios_since_flush: u64,
    pub(crate) ios_since_scrub: u64,
    pub(crate) max_virtual_blocks: usize,
    /// Device-health machinery (monitors, degraded mode, rebuild, backoff,
    /// backpressure). `None` unless [`IcashConfig::health`] is set; every
    /// hook is then a single `Option` check and the controller behaves
    /// byte-identically to one built without the subsystem.
    pub(crate) health: Option<crate::health::HealthCore>,
    pub(crate) stats: IcashStats,
}

impl Icash {
    /// Creates a controller with fresh devices.
    pub fn new(cfg: IcashConfig) -> Self {
        cfg.validate();
        let ssd = Ssd::new(cfg.ssd_config());
        let hdd = Hdd::new(cfg.hdd_config());
        let array = DeviceArray::coupled(ssd, hdd).with_ram_buffer(cfg.ram_budget() as u64);
        let pool = SegmentPool::new(cfg.ram_budget(), cfg.segment_bytes);
        let log = DeltaLog::new(cfg.log_blocks);
        // Metadata is ~100 B/block; allow 16 tracked blocks per RAM-resident
        // block, bounded to keep the table itself small.
        let max_virtual_blocks = ((cfg.ram_budget() / 4096) * 16).clamp(4_096, 4 << 20);
        let health = cfg.health.map(crate::health::HealthCore::new);
        Icash {
            array,
            codec: DeltaCodec::default(),
            filter: SimilarityFilter::default(),
            heatmap: Heatmap::standard(),
            table: BlockTable::new(),
            pool,
            log,
            ref_index: RefIndex::new(),
            ref_cache: RefIndexCache::new(),
            ssd_store: HashMap::new(),
            slot_dir: HashMap::new(),
            slot_sums: HashMap::new(),
            next_generation: 1,
            fault_plan: FaultPlan::none(),
            next_slot: 0,
            free_slots: Vec::new(),
            home_overlay: HashMap::new(),
            span_prefetch: HashMap::new(),
            evicted: HashMap::new(),
            dirty: HashSet::new(),
            dirty_bytes: 0,
            staging: crate::staging::Staging::new(),
            ios_since_scan: 0,
            ios_since_flush: 0,
            ios_since_scrub: 0,
            max_virtual_blocks,
            health,
            stats: IcashStats::default(),
            cfg,
        }
    }

    /// Arms a deterministic fault campaign: the plan is installed into every
    /// device and the controller switches on its resilience machinery
    /// (slot hardening, retries, repair-from-home, scrubbing, torn-write
    /// recovery). A disabled plan installs nothing, keeping fault-free runs
    /// bit-identical to a controller built without one.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.array.install_fault_plan(&plan);
        self.fault_plan = plan;
        self
    }

    /// The armed fault plan (disabled unless [`Icash::with_fault_plan`] ran).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Draws the next generation stamp.
    pub(crate) fn next_gen(&mut self) -> u64 {
        let g = self.next_generation;
        self.next_generation += 1;
        g
    }

    /// The active configuration.
    pub fn config(&self) -> &IcashConfig {
        &self.cfg
    }

    /// Controller-level statistics (role mix, hit classes, log traffic).
    ///
    /// O(1): the role census is maintained incrementally by the table at
    /// every insert/remove/role transition rather than recounted here with
    /// a full LRU walk (workload drivers poll stats every reporting tick).
    pub fn stats(&self) -> IcashStats {
        let mut s = self.stats.clone();
        s.role_counts = self.table.role_counts();
        s
    }

    /// Asserts internal invariants (tests/debugging).
    ///
    /// # Panics
    ///
    /// Panics if the virtual-block table is corrupted.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        self.table.validate();
        if self.cfg.group_commit_depth <= 1 {
            assert!(
                self.staging.is_empty(),
                "the synchronous cycle must never stage"
            );
        }
        assert!(
            self.staging.live() as u64 <= self.stats.staged_entries,
            "live staged entries cannot exceed the stage count"
        );
    }

    /// The device array (SSD + HDD + RAM budget) backing the controller.
    pub fn devices(&self) -> &DeviceArray {
        &self.array
    }

    /// The SSD device (wear, GC, op counts — Table 6 reads its writes).
    pub fn ssd(&self) -> &Ssd {
        self.array.ssd()
    }

    /// The HDD device.
    pub fn hdd(&self) -> &Hdd {
        self.array.hdd()
    }

    /// The HDD home-area position backing `lba`.
    pub(crate) fn home_pos(&self, lba: Lba) -> u64 {
        lba.raw() % self.cfg.data_blocks()
    }

    /// Allocates an SSD slot if one is free.
    pub(crate) fn alloc_slot(&mut self) -> Option<u64> {
        if let Some(s) = self.free_slots.pop() {
            return Some(s);
        }
        if self.next_slot < self.cfg.ssd_slots() {
            let s = self.next_slot;
            self.next_slot += 1;
            Some(s)
        } else {
            None
        }
    }

    /// Pins `content` in SSD slot `slot`. The **only** way slot content may
    /// be installed or overwritten: it invalidates any chunk index cached
    /// over the slot's previous content first (see [`crate::index_cache`]).
    pub(crate) fn ssd_install(&mut self, slot: u64, content: BlockBuf) {
        self.ref_cache.invalidate_slot(slot);
        self.slot_sums.insert(slot, crc32(content.as_slice()));
        self.ssd_store.insert(slot, content);
    }

    /// Unpins SSD slot `slot`, dropping its cached chunk index with it so
    /// slot reuse always starts cold. The **only** way slot content may be
    /// removed.
    pub(crate) fn ssd_discard(&mut self, slot: u64) -> Option<BlockBuf> {
        self.ref_cache.invalidate_slot(slot);
        self.slot_sums.remove(&slot);
        self.ssd_store.remove(&slot)
    }

    // ------------------------------------------------------------------
    // Fault handling: retries, repair, hardening
    // ------------------------------------------------------------------

    /// HDD read with one bounded retry (latent sector errors persist, so a
    /// second failure means the sector is genuinely gone until rewritten).
    pub(crate) fn hdd_read_retry(&mut self, at: Ns, pos: u64, blocks: u32) -> Result<Ns, HddError> {
        if self.health.is_some() {
            return self.hdd_read_backoff(at, pos, blocks);
        }
        match self.array.hdd_mut().read(at, pos, blocks) {
            Ok(t) => Ok(t),
            Err(_) => {
                self.note_retry(at, pos, false);
                self.array.hdd_mut().read(at, pos, blocks)
            }
        }
    }

    /// Counts one controller-level retry of a faulted device op and mirrors
    /// it into the trace (the oracle diffs the two).
    pub(crate) fn note_retry(&mut self, at: Ns, addr: u64, write: bool) {
        self.stats.fault_retries += 1;
        self.array.tracer().emit(|| TraceEvent {
            at,
            kind: TraceKind::FaultRetry { lba: addr, write },
        });
    }

    /// HDD write with bounded retries. Write faults are transient (the
    /// drive remaps on rewrite), so retrying almost always clears them; the
    /// residual failure case is left to the caller's degraded path.
    pub(crate) fn hdd_write_retry(
        &mut self,
        at: Ns,
        pos: u64,
        blocks: u32,
    ) -> Result<Ns, HddError> {
        if self.health.is_some() {
            return self.hdd_write_backoff(at, pos, blocks);
        }
        let mut last = self.array.hdd_mut().write(at, pos, blocks);
        for _ in 0..3 {
            if last.is_ok() {
                return last;
            }
            self.note_retry(at, pos, true);
            last = self.array.hdd_mut().write(at, pos, blocks);
        }
        last
    }

    /// Batched HDD writes through the device command queue. A media fault
    /// aborts the batch, so on error this falls back to the sequential
    /// per-request retry path — one bad sector cannot wedge a whole spill.
    pub(crate) fn hdd_write_batch_retry(&mut self, at: Ns, reqs: &[(u64, u32)]) -> Ns {
        if reqs.is_empty() {
            return at;
        }
        match self.array.hdd_mut().write_batch(at, reqs) {
            Ok(t) => t,
            Err(_) => {
                self.note_retry(at, reqs[0].0, true);
                let mut t = at;
                for &(pos, blocks) in reqs {
                    t = self.hdd_write_retry(t, pos, blocks).unwrap_or(t);
                }
                t
            }
        }
    }

    /// A delta-log append. With a device queue configured (and the health
    /// machinery off, whose backoff owns per-op pacing) the append parks in
    /// the drive's write-behind cache and the host continues immediately —
    /// the cached appends later drain as one seek-saving burst instead of
    /// paying a full home→log head trip per group commit. Otherwise (no
    /// queue, faults armed, or health on) this is the classic synchronous
    /// retried write.
    pub(crate) fn hdd_log_append(&mut self, at: Ns, pos: u64, blocks: u32) -> Ns {
        if self.health.is_none() && self.array.hdd().write_cache_enabled() {
            // The cache is fault-free by construction, so the park (or the
            // depth-triggered drain it runs) cannot fail.
            return self
                .array
                .hdd_mut()
                .write_behind(at, pos, blocks)
                .unwrap_or(at);
        }
        self.hdd_write_retry(at, pos, blocks).unwrap_or(at)
    }

    /// Whether resolving `id` right now would fall through to a mechanical
    /// home-area read — the final arm of
    /// [`content_of`](Icash::content_of): an independent block with no
    /// resident data, no SSD slot, and no delta in RAM, log, or staging.
    /// Keep in sync with that arm.
    fn needs_home_read(&self, id: VbId) -> bool {
        let vb = self.table.get(id);
        vb.role == Role::Independent
            && vb.data.is_none()
            && vb.ssd_slot.is_none()
            && vb.delta.is_none()
            && vb.log_loc.is_none()
            && !vb.staged
    }

    /// Queue-on fast path for multi-block reads: the span's home-area
    /// misses are submitted to the HDD as one NCQ batch — adjacent home
    /// positions coalesce into a single transfer, the rest dispatch in
    /// positioning order — and the fetched content is parked in the data
    /// cache so the per-block resolution that follows finds it resident.
    /// Returns the batch completion instant (`req.at` when nothing ran).
    ///
    /// Without a configured queue — or with the health machinery on, whose
    /// backoff owns per-op pacing — this is a no-op and the per-block path
    /// stays bit-identical to the pre-queue controller.
    fn prefetch_span_homes(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Ns {
        if self.cfg.queue.is_none() || self.health.is_some() || req.blocks < 2 {
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
        pending.retain(|&(id, lba)| self.table.lookup(lba) == Some(id));
        if pending.len() < 2 {
            return req.at;
        }
        let reqs: Vec<(u64, u32)> = pending
            .iter()
            .map(|&(_, lba)| (self.home_pos(lba), 1))
            .collect();
        let t = match self.array.hdd_mut().read_batch(req.at, &reqs) {
            Ok(t) => t,
            // A media error inside the batch: fall back to the per-block
            // path, which owns retry and repair for each individual read.
            Err(_) => return req.at,
        };
        for (_, lba) in pending {
            let content = self
                .home_overlay
                .get(&lba)
                .cloned()
                .unwrap_or_else(|| ctx.backing.initial_content(lba));
            self.stats.home_reads += 1;
            // Parked in a side channel rather than the data cache: under a
            // tight RAM budget caching block N could evict block N+1's
            // prefetched copy before its turn, forcing a second (now
            // single-block) mechanical read of what the batch already
            // fetched.
            self.span_prefetch.insert(lba, content);
        }
        t
    }

    /// With faults armed, a freshly installed slot's content is also written
    /// to its HDD home position so a later uncorrectable flash read can be
    /// repaired from the redundant copy. A no-op when the plan is disabled,
    /// keeping fault-free runs bit-identical to the unhardened controller.
    pub(crate) fn harden_slot(&mut self, lba: Lba, content: &BlockBuf, at: Ns) -> Ns {
        if !self.fault_plan.is_enabled() {
            return at;
        }
        let pos = self.home_pos(lba);
        let t = self.hdd_write_retry(at, pos, 1).unwrap_or(at);
        // Even if every retry failed the drive remaps the sector on the
        // next rewrite; model the overlay as holding the intended bytes so
        // the redundant copy stays usable rather than silently stale.
        self.home_overlay.insert(lba, content.clone());
        t
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
        let t = match self.hdd_read_retry(at, pos, 1) {
            Ok(t) => t,
            Err(_) => return (at, Err(IoErrorKind::SsdMedia)),
        };
        let content = self
            .home_overlay
            .get(&lba)
            .cloned()
            .unwrap_or_else(|| ctx.backing.initial_content(lba));
        let sum = crc32(content.as_slice());
        if self.slot_sums.get(&slot) != Some(&sum) {
            return (t, Err(IoErrorKind::SsdMedia));
        }
        let t = match self.ssd_write_op(t, slot) {
            Ok(t) => t,
            Err(_) => return (t, Err(IoErrorKind::SsdMedia)),
        };
        self.stats.slot_repairs += 1;
        self.array.tracer().emit(|| TraceEvent {
            at: t,
            kind: TraceKind::SlotRepair { slot, ok: true },
        });
        (t, Ok(content))
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
            Ok(t) => (t, Ok(self.ssd_store[&slot].clone())),
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

    /// One background scrub pass (triggered every
    /// [`FaultPlan::scrub_interval`] I/Os): probe every pinned slot and
    /// repair unreadable ones from their HDD home copies before the host
    /// trips over them.
    pub fn scrub(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        self.stats.scrubs += 1;
        let mut slots: Vec<(Lba, u64)> = self.slot_dir.iter().map(|(&l, r)| (l, r.slot)).collect();
        slots.sort_by_key(|&(l, _)| l.raw());
        let scanned = slots.len() as u32;
        let (mut repaired, mut failed) = (0u32, 0u32);
        let mut t = now;
        for (lba, slot) in slots {
            if self.slot_unavailable(slot) {
                // Scrubbing a failed device is pointless; the rebuild (or
                // the degraded read path) owns these slots.
                continue;
            }
            match self.ssd_read_op(t, slot) {
                Ok(t2) => t = t2,
                Err(_) => {
                    self.note_retry(t, slot, false);
                    let (t2, res) = self.repair_slot(lba, slot, t, ctx);
                    t = t2;
                    if res.is_ok() {
                        self.stats.scrub_repairs += 1;
                        repaired += 1;
                    } else {
                        self.stats.scrub_failures += 1;
                        failed += 1;
                    }
                }
            }
        }
        self.array.tracer().emit(|| TraceEvent {
            at: t,
            kind: TraceKind::Scrub {
                scanned,
                repaired,
                failed,
            },
        });
        t
    }

    /// Encodes `target` against the content pinned in SSD slot `slot`,
    /// reusing (and lazily populating) the slot's cached chunk index. The
    /// delta's payload shares `target`'s allocation where the encoding
    /// keeps whole runs of it (Raw).
    pub(crate) fn encode_against_slot(
        &mut self,
        at: Ns,
        lba: Lba,
        slot: u64,
        target: &BlockBuf,
    ) -> icash_delta::codec::Delta {
        let base = self.ssd_store[&slot].clone();
        let codec = &self.codec;
        let (hit, delta) = self.ref_cache.with_slot(slot, |index| {
            let hit = index.is_some();
            let delta = codec.encode_shared(base.as_slice(), target.as_bytes(), index);
            (hit, delta)
        });
        let bytes = delta.len() as u32;
        self.array.tracer().emit(|| TraceEvent {
            at,
            kind: TraceKind::RefCache { slot, hit },
        });
        self.array.tracer().emit(|| TraceEvent {
            at,
            kind: TraceKind::DeltaEncode {
                lba: lba.raw(),
                reference: slot,
                bytes,
            },
        });
        delta
    }

    /// Encodes `target` against the all-zero pseudo-reference, reusing the
    /// permanent zero-reference chunk index. Traced with
    /// [`u64::MAX`] as the pseudo-slot of the zero reference.
    pub(crate) fn encode_against_zero(
        &mut self,
        at: Ns,
        lba: Lba,
        target: &BlockBuf,
    ) -> icash_delta::codec::Delta {
        let codec = &self.codec;
        let entry = self.ref_cache.zero_entry();
        let hit = entry.is_some();
        let delta = codec.encode_shared(&ZERO_REF, target.as_bytes(), entry);
        let bytes = delta.len() as u32;
        self.array.tracer().emit(|| TraceEvent {
            at,
            kind: TraceKind::RefCache {
                slot: u64::MAX,
                hit,
            },
        });
        self.array.tracer().emit(|| TraceEvent {
            at,
            kind: TraceKind::DeltaEncode {
                lba: lba.raw(),
                reference: u64::MAX,
                bytes,
            },
        });
        delta
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    fn write_block(&mut self, lba: Lba, content: BlockBuf, at: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        self.stats.writes += 1;
        let sig = BlockSignature::of(content.as_slice());
        let sig_cost = ctx.cpu.charge(CpuOp::Signature);
        let copy_cost = ctx.cpu.charge(CpuOp::Memcpy);
        // The fast-path response: the write is acknowledged once the data is
        // staged in the controller RAM; delta derivation overlaps I/O
        // processing (paper §5.1).
        let mut resp = at + sig_cost + copy_cost;
        self.heatmap.record(&sig);

        let id = self.materialize_vb(lba, at, ctx);
        let (role, reference, slot, dependants) = {
            let vb = self.table.get(id);
            (vb.role, vb.reference, vb.ssd_slot, vb.dependants)
        };

        if self.ssd_is_failed() && !(role == Role::Reference && dependants > 0) {
            // Degraded mode: bypass the delta machinery and write home.
            // A reference that still has associates keeps the RAM-encode
            // delta path (its SSD copy is mirrored in `ssd_store`, so no
            // device op is needed and its associates stay decodable).
            return self.write_degraded(id, lba, content, sig, at, ctx);
        }

        match role {
            Role::Reference => {
                // The SSD copy is immutable while referenced: store the
                // reference's own changes as a delta against it.
                let s = slot.expect("reference without slot");
                let delta = self.encode_against_slot(at, lba, s, &content);
                ctx.cpu.charge(CpuOp::DeltaEncode);
                if delta.len() <= self.cfg.delta_threshold || dependants > 0 {
                    self.store_delta(id, delta, at, ctx);
                    self.stats.delta_writes += 1;
                } else {
                    // No dependants and nothing similar left: retire the
                    // reference and overwrite its SSD copy in place.
                    let sig_old = self.table.get(id).sig;
                    match self.ssd_write_op(at, s) {
                        Ok(t) => {
                            self.ssd_install(s, content.clone());
                            let gen = self.next_gen();
                            self.slot_dir.insert(
                                lba,
                                SlotRecord {
                                    slot: s,
                                    generation: gen,
                                },
                            );
                            resp = self.harden_slot(lba, &content, t);
                            self.ref_index.remove(lba, &sig_old);
                            self.table.set_role(id, Role::Independent);
                            self.drop_delta(id);
                            self.unstage(id);
                            // The old self-delta in the log describes the
                            // *previous* slot content; recovery must never
                            // apply it to the new one.
                            if let Some(loc) = self.table.get_mut(id).log_loc.take() {
                                self.log.mark_stale(loc);
                            }
                            self.stats.ssd_direct_writes += 1;
                        }
                        Err(_) => {
                            // Flash refused the rewrite: release the slot
                            // and let the delta path absorb the write.
                            self.stats.degraded_writes += 1;
                            self.ref_index.remove(lba, &sig_old);
                            self.ssd_discard(s);
                            self.array.ssd_mut().trim(s);
                            self.free_slots.push(s);
                            self.slot_dir.remove(&lba);
                            self.table.set_role(id, Role::Independent);
                            self.table.get_mut(id).ssd_slot = None;
                            self.drop_delta(id);
                            self.unstage(id);
                            if let Some(loc) = self.table.get_mut(id).log_loc.take() {
                                self.log.mark_stale(loc);
                            }
                            resp = self.write_as_independent(id, &content, at, ctx).max(resp);
                        }
                    }
                }
            }
            Role::Associate => {
                let ref_lba = reference.expect("associate without reference");
                // Charge the device/LRU effects of touching the reference,
                // then encode via its slot's cached index.
                let _ = self.reference_content(ref_lba, at, ctx);
                let rslot = {
                    let rid = self.table.lookup(ref_lba).expect("reference must exist");
                    self.table
                        .get(rid)
                        .ssd_slot
                        .expect("reference without slot")
                };
                let delta = self.encode_against_slot(at, lba, rslot, &content);
                ctx.cpu.charge(CpuOp::DeltaEncode);
                if delta.len() <= self.cfg.delta_threshold {
                    self.store_delta(id, delta, at, ctx);
                    self.stats.delta_writes += 1;
                } else {
                    // Content diverged from the reference: unbind and write
                    // the new data directly to the SSD (paper §5.3).
                    self.unbind(id);
                    resp = self.direct_ssd_write(id, &content, at, ctx).max(resp);
                }
            }
            Role::Independent => {
                if let Some(s) = slot {
                    // Already SSD-resident from an earlier direct write.
                    match self.ssd_write_op(at, s) {
                        Ok(t) => {
                            self.ssd_install(s, content.clone());
                            let gen = self.next_gen();
                            self.slot_dir.insert(
                                lba,
                                SlotRecord {
                                    slot: s,
                                    generation: gen,
                                },
                            );
                            resp = self.harden_slot(lba, &content, t);
                            self.unstage(id);
                            if let Some(loc) = self.table.get_mut(id).log_loc.take() {
                                self.log.mark_stale(loc);
                            }
                            self.stats.ssd_direct_writes += 1;
                        }
                        Err(_) => {
                            self.stats.degraded_writes += 1;
                            self.ssd_discard(s);
                            self.array.ssd_mut().trim(s);
                            self.free_slots.push(s);
                            self.slot_dir.remove(&lba);
                            self.table.get_mut(id).ssd_slot = None;
                            resp = self.write_as_independent(id, &content, at, ctx).max(resp);
                        }
                    }
                } else if !self.try_bind(id, &content, &sig, at, ctx) {
                    resp = self.write_as_independent(id, &content, at, ctx).max(resp);
                } else {
                    self.stats.delta_writes += 1;
                }
            }
        }

        // Keep the freshly written content cached and the signature current
        // (references keep the signature of their immutable SSD copy).
        if self.table.get(id).role != Role::Reference {
            self.table.get_mut(id).sig = sig;
        }
        self.cache_data(id, content, at, ctx);
        self.table.touch(id);
        self.after_io(at, ctx);
        // Reserve the write's flush ticket last: a flush triggered inside
        // this write's own `after_io` must not claim to cover it (the
        // completed watermark stays conservative).
        self.staging.progress.reserve();
        resp
    }

    /// Stores an independent block as a zero-based delta bound for the
    /// sequential HDD log (the paper's log-of-deltas covers *all* writes;
    /// blocks without a useful reference simply encode against zero).
    fn write_as_independent(
        &mut self,
        id: VbId,
        content: &BlockBuf,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> Ns {
        self.table.set_role(id, Role::Independent);
        {
            let vb = self.table.get_mut(id);
            vb.reference = None;
            vb.dirty_data = false;
        }
        let lba = self.table.get(id).lba;
        let delta = self.encode_against_zero(at, lba, content);
        ctx.cpu.charge(CpuOp::DeltaEncode);
        self.store_delta(id, delta, at, ctx);
        self.stats.independent_writes += 1;
        at
    }

    /// The paper's oversize-delta rule: "the new data are written directly
    /// to the SSD to release delta buffer". Falls back to a dirty
    /// independent block when no SSD slot is free.
    fn direct_ssd_write(
        &mut self,
        id: VbId,
        content: &BlockBuf,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> Ns {
        let lba = self.table.get(id).lba;
        let had_slot = self.table.get(id).ssd_slot.is_some();
        let slot = match self.table.get(id).ssd_slot.or_else(|| self.alloc_slot()) {
            Some(s) => s,
            None => {
                let content = content.clone();
                return self.write_as_independent(id, &content, at, ctx).max(at);
            }
        };
        let t = match self.ssd_write_op(at, slot) {
            Ok(t) => t,
            Err(_) => {
                // Flash refused the program (worn out / no reclaimable
                // space): degrade to a log-resident independent.
                self.stats.degraded_writes += 1;
                if had_slot {
                    self.ssd_discard(slot);
                    self.array.ssd_mut().trim(slot);
                    self.slot_dir.remove(&lba);
                    self.table.get_mut(id).ssd_slot = None;
                }
                self.free_slots.push(slot);
                let content = content.clone();
                return self.write_as_independent(id, &content, at, ctx).max(at);
            }
        };
        self.ssd_install(slot, content.clone());
        let gen = self.next_gen();
        self.slot_dir.insert(
            lba,
            SlotRecord {
                slot,
                generation: gen,
            },
        );
        self.drop_delta(id);
        self.unstage(id);
        if let Some(loc) = self.table.get_mut(id).log_loc.take() {
            self.log.mark_stale(loc);
        }
        self.table.set_role(id, Role::Independent);
        {
            let vb = self.table.get_mut(id);
            vb.reference = None;
            vb.ssd_slot = Some(slot);
            vb.dirty_data = false;
        }
        let t = self.harden_slot(lba, content, t);
        self.stats.ssd_direct_writes += 1;
        t
    }

    /// Tries to bind a block to a similar reference online (paper §5.1:
    /// "the online similarity detection of I-CASH is effective under read
    /// intensive workloads"). Returns whether it became an associate.
    pub(crate) fn try_bind(
        &mut self,
        id: VbId,
        content: &BlockBuf,
        sig: &BlockSignature,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> bool {
        let lba = self.table.get(id).lba;
        // A loose pre-filter (3 of 8 sub-signatures) is enough: the codec
        // verifies true similarity, so false candidates only cost an
        // encode attempt.
        let candidates = self.ref_index.candidates(sig, 3, 3);
        let probed = candidates.len() as u32;
        for cand in candidates {
            if cand == lba {
                continue;
            }
            let rslot = match self
                .table
                .lookup(cand)
                .and_then(|rid| self.table.get(rid).ssd_slot)
            {
                Some(s) => s,
                None => continue,
            };
            let delta = self.encode_against_slot(at, lba, rslot, content);
            ctx.cpu.charge(CpuOp::DeltaEncode);
            if delta.len() <= self.cfg.delta_threshold {
                self.bind(id, cand, delta, at, ctx);
                self.note_probe(at, lba, probed, true);
                return true;
            }
        }
        self.note_probe(at, lba, probed, false);
        false
    }

    /// Mirrors one similarity probe into the trace.
    fn note_probe(&self, at: Ns, lba: Lba, candidates: u32, bound: bool) {
        self.array.tracer().emit(|| TraceEvent {
            at,
            kind: TraceKind::SigProbe {
                lba: lba.raw(),
                candidates,
                bound,
            },
        });
    }

    /// Binds `id` as an associate of `reference` with `delta`.
    pub(crate) fn bind(
        &mut self,
        id: VbId,
        reference: Lba,
        delta: icash_delta::codec::Delta,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) {
        self.unbind(id); // release any previous pairing
        let rid = self.table.lookup(reference).expect("reference must exist");
        self.table.get_mut(rid).dependants += 1;
        self.table.set_role(id, Role::Associate);
        {
            let vb = self.table.get_mut(id);
            vb.reference = Some(reference);
            // Content is now recoverable from reference + delta once the
            // delta is flushed; the full copy no longer needs a home write.
            vb.dirty_data = false;
        }
        self.store_delta(id, delta, at, ctx);
        self.stats.binds += 1;
    }

    /// Releases `id`'s pairing with its reference, if any.
    pub(crate) fn unbind(&mut self, id: VbId) {
        let (role, reference) = {
            let vb = self.table.get(id);
            (vb.role, vb.reference)
        };
        if role != Role::Associate {
            return;
        }
        if let Some(ref_lba) = reference {
            if let Some(rid) = self.table.lookup(ref_lba) {
                let rvb = self.table.get_mut(rid);
                rvb.dependants = rvb.dependants.saturating_sub(1);
            }
        }
        self.table.set_role(id, Role::Independent);
        self.table.get_mut(id).reference = None;
        self.drop_delta(id);
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    fn read_block(&mut self, lba: Lba, at: Ns, ctx: &mut IoCtx<'_>) -> BlockRead {
        self.stats.reads += 1;
        let id = self.materialize_vb(lba, at, ctx);
        let sig = self.table.get(id).sig;
        self.heatmap.record(&sig);

        let (mut t, res) = self.content_of(id, at, ctx);
        if let Ok(content) = &res {
            t += ctx.cpu.charge(CpuOp::Memcpy);
            self.cache_data(id, content.clone(), at, ctx);
        }
        self.table.touch(id);
        self.after_io(at, ctx);
        (t, res)
    }

    /// Resolves the current content of a tracked block, charging the device
    /// and CPU operations the resolution requires. Returns the completion
    /// instant and the content — or the error class reported to the host
    /// when retry and repair could not produce the correct bytes.
    pub(crate) fn content_of(&mut self, id: VbId, at: Ns, ctx: &mut IoCtx<'_>) -> BlockRead {
        if let Some(data) = self.table.get(id).data.clone() {
            let lba = self.table.get(id).lba;
            self.stats.ram_hits += 1;
            self.array.tracer().emit(|| TraceEvent {
                at,
                kind: TraceKind::RamHit { lba: lba.raw() },
            });
            return (at, Ok(data));
        }
        let (role, reference, slot, log_loc, has_delta, staged, lba) = {
            let vb = self.table.get(id);
            (
                vb.role,
                vb.reference,
                vb.ssd_slot,
                vb.log_loc,
                vb.delta.is_some(),
                vb.staged,
                vb.lba,
            )
        };
        match role {
            Role::Reference => {
                let s = match slot {
                    Some(s) => s,
                    None => return self.metadata_error("reference without slot", at),
                };
                let (mut t, base) = match self.read_slot(lba, s, at, ctx) {
                    (t, Ok(base)) => (t, base),
                    (t, Err(e)) => return (t, Err(e)),
                };
                // A written reference needs its own delta applied.
                if has_delta || log_loc.is_some() || staged {
                    if !has_delta {
                        t = match self.fetch_delta(id, staged, t, ctx) {
                            (t, Ok(())) => t,
                            (t, Err(e)) => return (t, Err(e)),
                        };
                    }
                    t += ctx.cpu.charge(CpuOp::DeltaDecode);
                    self.decode_resident(id, &base, t)
                } else {
                    self.note_delta_hit(t, lba);
                    (t, Ok(base))
                }
            }
            Role::Associate => {
                let mut t = at;
                if !has_delta {
                    t = match self.fetch_delta(id, staged, t, ctx) {
                        (t, Ok(())) => t,
                        (t, Err(e)) => return (t, Err(e)),
                    };
                }
                let ref_lba = match reference {
                    Some(r) => r,
                    None => return self.metadata_error("associate without reference", t),
                };
                let (t2, base) = match self.reference_content(ref_lba, t, ctx) {
                    (t2, Ok(base)) => (t2, base),
                    (t2, Err(e)) => return (t2, Err(e)),
                };
                let t3 = t2 + ctx.cpu.charge(CpuOp::DeltaDecode);
                self.decode_resident(id, &base, t3)
            }
            Role::Independent => {
                if let Some(s) = slot {
                    let (t, res) = self.read_slot(lba, s, at, ctx);
                    if res.is_ok() {
                        self.note_delta_hit(t, lba);
                    }
                    (t, res)
                } else if has_delta || log_loc.is_some() || staged {
                    // Log-resident independent: decode against zero.
                    let mut t = at;
                    if !has_delta {
                        t = match self.fetch_delta(id, staged, t, ctx) {
                            (t, Ok(())) => t,
                            (t, Err(e)) => return (t, Err(e)),
                        };
                    }
                    t += ctx.cpu.charge(CpuOp::DeltaDecode);
                    let zero = BlockBuf::zeroed();
                    self.decode_resident(id, &zero, t)
                } else {
                    // A span prefetch may have already paid this block's
                    // mechanical read as part of one batched NCQ submission.
                    if let Some(content) = self.span_prefetch.remove(&lba) {
                        return (at, Ok(content));
                    }
                    // Fall through to the mechanical home area. A latent
                    // sector error here is unrecoverable: the home copy is
                    // the only copy, so the failure is reported rather than
                    // papered over.
                    let pos = self.home_pos(lba);
                    let t = match self.hdd_read_retry(at, pos, 1) {
                        Ok(t) => t,
                        Err(_) => {
                            self.stats.unrecoverable_reads += 1;
                            return (at, Err(IoErrorKind::HddMedia));
                        }
                    };
                    self.stats.home_reads += 1;
                    let content = self
                        .home_overlay
                        .get(&lba)
                        .cloned()
                        .unwrap_or_else(|| ctx.backing.initial_content(lba));
                    (t, Ok(content))
                }
            }
        }
    }

    /// Decodes `id`'s resident delta against `base`, reporting a contained
    /// metadata error (instead of panicking) if the delta is missing or
    /// undecodable — both are invariant violations, so debug builds assert.
    fn decode_resident(&mut self, id: VbId, base: &BlockBuf, t: Ns) -> BlockRead {
        let delta = match self.table.get(id).delta.as_ref() {
            Some(d) => d.delta.clone(),
            None => return self.metadata_error("resident delta missing after fetch", t),
        };
        match self.codec.decode(base.as_slice(), &delta) {
            Ok(out) => {
                let lba = self.table.get(id).lba;
                self.note_delta_hit(t, lba);
                (t, Ok(BlockBuf::from_vec(out)))
            }
            Err(_) => self.metadata_error("resident delta undecodable", t),
        }
    }

    /// Counts one SSD-fast-path read (the paper's "delta hit") and mirrors
    /// it into the trace as a [`TraceKind::DeltaDecode`] event.
    fn note_delta_hit(&mut self, at: Ns, lba: Lba) {
        self.stats.delta_hits += 1;
        self.array.tracer().emit(|| TraceEvent {
            at,
            kind: TraceKind::DeltaDecode { lba: lba.raw() },
        });
    }

    /// A contained metadata-invariant failure: asserts in debug builds,
    /// reports a [`IoErrorKind::Metadata`] block error in release builds.
    fn metadata_error(&mut self, what: &str, t: Ns) -> BlockRead {
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
        let rid = match self.table.lookup(ref_lba) {
            Some(r) => r,
            None => return self.metadata_error("reference must exist", at),
        };
        let slot = match self.table.get(rid).ssd_slot {
            Some(s) => s,
            None => return self.metadata_error("reference without slot", at),
        };
        let base = self.ssd_store[&slot].clone();
        self.table.touch(rid);
        // A clean cached copy of an unwritten reference equals the SSD copy.
        let vb = self.table.get(rid);
        if vb.data.is_some() && vb.delta.is_none() && vb.log_loc.is_none() {
            (at, Ok(base))
        } else {
            self.read_slot(ref_lba, slot, at, ctx)
        }
    }

    /// Makes `id`'s delta resident: from the staging buffer when the block
    /// is staged (read-your-writes, no device operation), from the HDD log
    /// otherwise.
    pub(crate) fn fetch_delta(
        &mut self,
        id: VbId,
        staged: bool,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> (Ns, Result<(), IoErrorKind>) {
        if staged {
            self.fetch_staged_delta(id, at, ctx)
        } else {
            self.fetch_log_block(id, at, ctx)
        }
    }

    /// Serves read-your-writes from the write pipeline: reinstalls `id`'s
    /// encoded-but-uncommitted delta from the staging buffer. Pure RAM —
    /// no device operation is charged and no trace event is emitted, so the
    /// read looks exactly like any other resident-delta decode.
    pub(crate) fn fetch_staged_delta(
        &mut self,
        id: VbId,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> (Ns, Result<(), IoErrorKind>) {
        let lba = self.table.get(id).lba;
        let delta = match self.staging.lookup(lba) {
            Some(d) => d,
            None => {
                let (t, res) = self.metadata_error("staged delta missing", at);
                return (t, res.map(|_| ()));
            }
        };
        // `install_clean_delta` may flush under memory pressure, which can
        // drain the staging buffer; the clone above stays valid either way.
        self.install_clean_delta(id, delta, at, ctx);
        debug_assert!(self.table.get(id).delta.is_some());
        (at, Ok(()))
    }

    /// Fetches the packed log block holding `id`'s delta from the HDD and
    /// unpacks *every* delta in it into RAM (the paper's one-HDD-op-many-IOs
    /// effect). Returns the fetch completion instant; on a latent sector
    /// error the readahead narrows to just the mandatory block before the
    /// failure is reported.
    pub(crate) fn fetch_log_block(
        &mut self,
        id: VbId,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> (Ns, Result<(), IoErrorKind>) {
        /// Packed blocks read per fetch: one seek already paid, so reading
        /// a short run amortises it over neighbouring deltas (which were
        /// packed in address order and will be wanted next).
        const READAHEAD: u32 = 16;
        let loc = match self.table.get(id).log_loc {
            Some(l) => l,
            None => {
                let (t, res) = self.metadata_error("delta must be logged", at);
                return (t, res.map(|_| ()));
            }
        };
        let lba = self.table.get(id).lba;
        let mut span = (READAHEAD as u64).min(self.log.len_blocks() - loc as u64) as u32;
        span = span.max(1);
        let log_pos = self.cfg.log_start() + loc as u64;
        let first = self.array.hdd_mut().read(at, log_pos, span);
        self.note_device(at, crate::health::DEV_HDD, first.is_ok());
        let t = match first {
            Ok(t) => t,
            Err(_) => {
                // Some block of the readahead span is unreadable; retry
                // with just the block the host actually needs.
                self.note_retry(at, log_pos, false);
                span = 1;
                let narrow = self.array.hdd_mut().read(at, log_pos, 1);
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

        let entries: Vec<(u32, Lba, icash_delta::codec::Delta)> = (loc..loc + span)
            .flat_map(|l| {
                self.log
                    .fetch(l)
                    .entries
                    .iter()
                    .map(move |e| (l, e.lba, e.delta.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (loc, entry_lba, delta) in entries {
            // Materialise evicted siblings whose current delta lives in
            // this very block — the whole point of packing: one mechanical
            // read must service every I/O it covers (paper §3.1).
            let target = match self.table.lookup(entry_lba) {
                Some(tid) => tid,
                None => match self.evicted.get(&entry_lba) {
                    Some(EvictedState::InLog {
                        reference,
                        loc: entry_loc,
                    }) if *entry_loc == loc => {
                        let reference = *reference;
                        self.evicted.remove(&entry_lba);
                        // No reserve_table_slot here: it could evict the
                        // very block this fetch is serving (callers hold
                        // its VbId). The table may briefly overshoot its
                        // bound; the next materialisation trims it.
                        let mut vb =
                            VirtualBlock::independent(entry_lba, BlockSignature::default());
                        if reference == entry_lba {
                            vb.role = Role::Independent;
                        } else {
                            vb.role = Role::Associate;
                            vb.reference = Some(reference);
                        }
                        vb.log_loc = Some(loc);
                        self.table.insert(vb)
                    }
                    _ => continue,
                },
            };
            let vb = self.table.get(target);
            // Only install when this log block holds the *current* delta.
            // (Installing can flush, and flushing can clean the log and
            // remap locations — this check goes stale then, which only
            // costs us the optional prefetches.)
            if vb.log_loc != Some(loc) || vb.delta.is_some() {
                continue;
            }
            self.install_clean_delta(target, delta, at, ctx);
            if entry_lba != lba {
                self.stats.log_prefetched_deltas += 1;
            }
        }
        // The block we came for is mandatory: if a mid-loop log clean moved
        // it, reinstall from its current location (the payload is
        // unchanged by cleaning).
        if self.table.get(id).delta.is_none() {
            let loc2 = match self.table.get(id).log_loc {
                Some(l) => l,
                None => {
                    let (t, res) = self.metadata_error("delta must be logged", t);
                    return (t, res.map(|_| ()));
                }
            };
            let delta = self
                .log
                .fetch(loc2)
                .entries
                .iter()
                .find(|e| e.lba == lba)
                .map(|e| e.delta.clone());
            match delta {
                Some(delta) => self.install_clean_delta(id, delta, at, ctx),
                None => {
                    let (t, res) = self.metadata_error("log must hold the pointed-at delta", t);
                    return (t, res.map(|_| ()));
                }
            }
        }
        debug_assert!(self.table.get(id).delta.is_some());
        (t, Ok(()))
    }

    // ------------------------------------------------------------------
    // Virtual-block materialization
    // ------------------------------------------------------------------

    /// Returns the virtual block for `lba`, rebuilding it from eviction
    /// state or creating a fresh one on first touch.
    pub(crate) fn materialize_vb(&mut self, lba: Lba, at: Ns, ctx: &mut IoCtx<'_>) -> VbId {
        if let Some(id) = self.table.lookup(lba) {
            return id;
        }
        self.reserve_table_slot(at, ctx);
        match self.evicted.remove(&lba) {
            Some(EvictedState::InSsd(slot)) => {
                let sig = BlockSignature::of(self.ssd_store[&slot].as_slice());
                let mut vb = VirtualBlock::independent(lba, sig);
                vb.ssd_slot = Some(slot);
                self.table.insert(vb)
            }
            Some(EvictedState::InLog { reference, loc }) => {
                let mut vb = VirtualBlock::independent(lba, BlockSignature::default());
                if reference == lba {
                    // A log-resident independent (zero-based raw delta).
                    vb.role = Role::Independent;
                } else {
                    vb.role = Role::Associate;
                    vb.reference = Some(reference);
                    // (dependant count was retained across the eviction)
                }
                vb.log_loc = Some(loc);
                self.table.insert(vb)
            }
            None => {
                // First touch: content is the home image; compute the
                // signature for similarity detection on load (paper §4.2).
                let content = self
                    .home_overlay
                    .get(&lba)
                    .cloned()
                    .unwrap_or_else(|| ctx.backing.initial_content(lba));
                let sig = BlockSignature::of(content.as_slice());
                ctx.cpu.charge(CpuOp::Signature);
                let vb = VirtualBlock::independent(lba, sig);
                self.table.insert(vb)
            }
        }
    }

    // ------------------------------------------------------------------
    // RAM cache bookkeeping
    // ------------------------------------------------------------------

    /// Caches `content` as `id`'s resident data block, making room first.
    pub(crate) fn cache_data(&mut self, id: VbId, content: BlockBuf, at: Ns, ctx: &mut IoCtx<'_>) {
        if self.table.get(id).data.is_some() {
            // Replace in place: the charge is already held.
            self.table.get_mut(id).data = Some(content);
            return;
        }
        if !self.make_room_for_block(id, at, ctx) {
            return; // cache under extreme pressure: serve uncached
        }
        let charge = self.pool.alloc_block();
        let vb = self.table.get_mut(id);
        vb.data = Some(content);
        vb.data_charge = charge;
    }

    /// Stores `delta` as `id`'s resident (dirty) delta, making room first.
    pub(crate) fn store_delta(
        &mut self,
        id: VbId,
        delta: icash_delta::codec::Delta,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) {
        self.drop_delta(id);
        self.unstage(id);
        self.make_room_for_delta(id, delta.len(), at, ctx);
        let charge = self.pool.alloc_delta(delta.len());
        // Supersede any flushed copy in the log.
        let old_loc = self.table.get_mut(id).log_loc.take();
        if let Some(loc) = old_loc {
            self.log.mark_stale(loc);
        }
        let vb = self.table.get_mut(id);
        vb.delta = Some(CachedDelta { delta, charge });
        vb.dirty_delta = true;
        self.dirty.insert(id.index());
        self.dirty_bytes += charge;
    }

    /// Installs a delta recovered from the log: resident but *clean*.
    pub(crate) fn install_clean_delta(
        &mut self,
        id: VbId,
        delta: icash_delta::codec::Delta,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) {
        if self.table.get(id).delta.is_some() {
            return;
        }
        self.make_room_for_delta(id, delta.len(), at, ctx);
        let charge = self.pool.alloc_delta(delta.len());
        let vb = self.table.get_mut(id);
        vb.delta = Some(CachedDelta { delta, charge });
        vb.dirty_delta = false;
    }

    /// Releases `id`'s resident delta, if any.
    pub(crate) fn drop_delta(&mut self, id: VbId) {
        let (charge, was_dirty) = {
            let vb = self.table.get_mut(id);
            match vb.delta.take() {
                Some(d) => {
                    let dirty = vb.dirty_delta;
                    vb.dirty_delta = false;
                    (d.charge, dirty)
                }
                None => return,
            }
        };
        self.pool.free(charge);
        if was_dirty {
            self.dirty.remove(&id.index());
            self.dirty_bytes -= charge;
        }
    }

    /// Invalidates `id`'s staged-but-uncommitted delta, if any: a newer
    /// write (or a direct SSD install) superseded it before its group
    /// commit, so committing it would only append a dead entry.
    pub(crate) fn unstage(&mut self, id: VbId) {
        let lba = {
            let vb = self.table.get_mut(id);
            if !vb.staged {
                return;
            }
            vb.staged = false;
            vb.lba
        };
        self.staging.invalidate(lba);
    }

    /// Releases `id`'s resident data block, if any.
    pub(crate) fn drop_data(&mut self, id: VbId) {
        let charge = {
            let vb = self.table.get_mut(id);
            if vb.data.take().is_some() {
                let c = vb.data_charge;
                vb.data_charge = 0;
                c
            } else {
                return;
            }
        };
        self.pool.free(charge);
    }
}

/// Write requests at least this many blocks long stream to the HDD home
/// area in one sequential operation instead of entering the delta path —
/// the third leg of the paper's design triangle ("reliable/durable/
/// sequential write performance of HDD"). Raw streaming data has no useful
/// reference and would pack one-per-log-block.
const STREAM_WRITE_BLOCKS: u32 = 8;

impl Icash {
    /// Handles a large (streaming) write: every block takes the delta path
    /// (bind against a reference, or fall back to a zero-based raw log
    /// entry), so the entire request is absorbed by RAM and leaves the
    /// controller as one sequential log flush — the paper's "pack deltas
    /// of all sequential I/Os into one delta block". Stream data bypasses
    /// the RAM data cache; unlike small writes it is not expected to be
    /// re-read immediately.
    fn stream_write_span(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Ns {
        let mut resp = req.at;
        for (lba, buf) in req.lbas().zip(req.payload.iter()) {
            let sig = BlockSignature::of(buf.as_slice());
            let sig_cost = ctx.cpu.charge(CpuOp::Signature);
            resp = resp.max(req.at + sig_cost);
            self.heatmap.record(&sig);
            let id = self.materialize_vb(lba, req.at, ctx);
            if self.table.get(id).role == Role::Reference {
                // A reference's SSD copy is the decode source for its
                // associates: track the new content as the reference's own
                // delta.
                let slot = self.table.get(id).ssd_slot.expect("reference without slot");
                let delta = self.encode_against_slot(req.at, lba, slot, buf);
                ctx.cpu.charge(CpuOp::DeltaEncode);
                self.store_delta(id, delta, req.at, ctx);
                self.stats.delta_writes += 1;
            } else if self.try_bind(id, buf, &sig, req.at, ctx) {
                self.table.get_mut(id).sig = sig;
                self.stats.delta_writes += 1;
            } else {
                self.write_as_independent(id, buf, req.at, ctx);
                self.table.get_mut(id).sig = sig;
            }
            self.drop_data(id);
            self.table.touch(id);
            self.stats.writes += 1;
            self.after_io(req.at, ctx);
            self.staging.progress.reserve();
        }
        resp
    }
}

impl Icash {
    /// Offline image preparation (paper §3.2, the VM-image case): walk the
    /// address universe once, install the most representative block of each
    /// content neighbourhood into the SSD as a reference, and pack every
    /// other similar block's delta into the HDD log — exactly what the
    /// prototype does "at the time when virtual machines are created".
    /// Charges no virtual time: this happens before the measured run.
    pub fn preload_image(&mut self, universe: &[(u8, u64)], ctx: &mut IoCtx<'_>) {
        let total: u64 = universe.iter().map(|(_, b)| *b).sum();
        if total > 8 << 20 {
            // An 8M-block (32 GB) universe would take too long to tour;
            // fall back to online detection.
            return;
        }
        let mut entries: Vec<crate::delta_log::LogEntry> = Vec::new();
        let mut pending: Vec<(Lba, Lba)> = Vec::new(); // (lba, reference)
        for &(vm, blocks) in universe {
            for b in 0..blocks {
                let lba = Lba::new(b).with_vm(vm);
                let content = ctx.backing.initial_content(lba);
                let sig = BlockSignature::of(content.as_slice());
                let mut bound = false;
                for cand in self.ref_index.candidates(&sig, 3, 2) {
                    let slot = match self
                        .table
                        .lookup(cand)
                        .and_then(|rid| self.table.get(rid).ssd_slot)
                    {
                        Some(s) => s,
                        None => continue,
                    };
                    let delta = self.encode_against_slot(Ns::ZERO, lba, slot, &content);
                    if delta.len() <= self.cfg.delta_threshold {
                        let rid = self.table.lookup(cand).expect("indexed");
                        self.table.get_mut(rid).dependants += 1;
                        let gen = self.next_gen();
                        entries.push(crate::delta_log::LogEntry::new(lba, cand, gen, delta));
                        pending.push((lba, cand));
                        bound = true;
                        break;
                    }
                }
                if bound {
                    continue;
                }
                // No similar reference yet: pin this block as one if the
                // SSD still has room (keep ~15 % headroom so runtime flash
                // writes do not run straight into garbage collection);
                // otherwise it stays in the home area.
                if self.next_slot * 100 >= self.cfg.ssd_slots() * 85 {
                    continue;
                }
                if let Some(slot) = self.alloc_slot() {
                    self.array.ssd_mut().prefill(slot).expect("factory image");
                    self.ssd_install(slot, content);
                    let gen = self.next_gen();
                    self.slot_dir.insert(
                        lba,
                        SlotRecord {
                            slot,
                            generation: gen,
                        },
                    );
                    let mut vb = VirtualBlock::independent(lba, sig);
                    vb.role = Role::Reference;
                    vb.ssd_slot = Some(slot);
                    self.table.insert(vb);
                    self.ref_index.insert(lba, &sig);
                    self.stats.ref_installs += 1;
                }
            }
        }
        if !entries.is_empty() {
            let n_entries = entries.len() as u32;
            let report = self.log.append(entries);
            for ((lba, reference), loc) in pending.into_iter().zip(report.entry_locs) {
                self.evicted
                    .insert(lba, EvictedState::InLog { reference, loc });
            }
            self.stats.log_blocks_written += report.blocks_written as u64;
            let blocks = report.blocks_written;
            self.array.tracer().emit(|| TraceEvent {
                at: Ns::ZERO,
                kind: TraceKind::LogFlush {
                    entries: n_entries,
                    blocks,
                },
            });
        }
    }
}

impl Icash {
    /// The flush ticket covering the most recently accepted write (the
    /// write-acceptance watermark). One ticket is reserved per host write.
    pub fn write_ticket(&self) -> Ticket {
        self.staging.progress.reserved()
    }

    /// The durability watermark: every write whose ticket is at or below it
    /// has reached stable media (HDD log, HDD home, or SSD).
    pub fn flushed_ticket(&self) -> Ticket {
        self.staging.progress.completed()
    }

    /// Durability barrier for one ticket: returns once every write with a
    /// ticket at or below `ticket` is on stable media. Free when the
    /// completed watermark already covers the ticket; otherwise the whole
    /// pipeline drains (staged group commits *and* dirty independent data).
    pub fn await_flush(&mut self, ticket: Ticket, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        // A durability barrier forces cached log appends onto the media
        // even when the ticket watermark is already satisfied — completion
        // watermarks advance when the append is accepted, not when the
        // drive's write-behind cache drains. Free with no queue (the cache
        // is always empty).
        let now = now.max(self.array.hdd_mut().flush_cache(now));
        if self.staging.progress.is_completed(ticket) {
            self.stats.barrier_noops += 1;
            self.array.tracer().emit(|| TraceEvent {
                at: now,
                kind: TraceKind::Barrier {
                    ticket: ticket.as_u64(),
                    waited: false,
                },
            });
            return now;
        }
        self.stats.barrier_waits += 1;
        let t = self.shutdown_flush(now, ctx);
        self.array.tracer().emit(|| TraceEvent {
            at: t,
            kind: TraceKind::Barrier {
                ticket: ticket.as_u64(),
                waited: true,
            },
        });
        t
    }

    /// Full durability barrier: every write accepted so far reaches stable
    /// media before this returns.
    pub fn sync(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        let ticket = self.write_ticket();
        self.await_flush(ticket, now, ctx)
    }
}

impl StorageSystem for Icash {
    fn name(&self) -> &str {
        "I-CASH"
    }

    fn preload(&mut self, universe: &[(u8, u64)], ctx: &mut IoCtx<'_>) {
        self.preload_image(universe, ctx);
    }

    fn submit(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Completion {
        self.array.trace_request(req);
        match req.op {
            Op::Write => {
                if self.hdd_is_failed() {
                    // Fail fast with a typed error: with the home area and
                    // the delta log both gone, accepting a write could
                    // never make it durable. Reads keep serving from RAM
                    // and SSD-resident state.
                    let errors: Vec<BlockError> = req
                        .lbas()
                        .map(|lba| BlockError {
                            lba,
                            kind: IoErrorKind::DeviceFailed,
                        })
                        .collect();
                    self.stats.failed_fast_writes += errors.len() as u64;
                    self.array.trace_request_end(req.at);
                    return Completion::at(req.at).with_errors(errors);
                }
                if req.blocks >= STREAM_WRITE_BLOCKS {
                    let done = self.stream_write_span(req, ctx);
                    self.array.trace_request_end(done);
                    return Completion::at(done);
                }
                let mut done = req.at;
                let mut errors = Vec::new();
                for (lba, buf) in req.lbas().zip(req.payload.iter()) {
                    if let Some((queued, cap)) = self.staging_over_cap() {
                        // Admission control: refuse the write with a typed
                        // `Busy` and drain the pipeline so the host's retry
                        // finds room.
                        self.note_backpressure(req.at, lba, queued, cap);
                        errors.push(BlockError {
                            lba,
                            kind: IoErrorKind::Busy,
                        });
                        done = done.max(self.flush_all(req.at, ctx));
                        continue;
                    }
                    done = done.max(self.write_block(lba, buf.clone(), req.at, ctx));
                }
                self.array.trace_request_end(done);
                Completion::at(done).with_errors(errors)
            }
            Op::Read => {
                let mut done = req.at;
                // The span's home-area misses go through the device queue
                // as one batch (a no-op without a configured queue).
                done = done.max(self.prefetch_span_homes(req, ctx));
                let mut data = Vec::new();
                let mut errors = Vec::new();
                for lba in req.lbas() {
                    let (t, res) = self.read_block(lba, req.at, ctx);
                    done = done.max(t);
                    match res {
                        Ok(content) => {
                            if ctx.collect_data {
                                data.push(content);
                            }
                        }
                        Err(kind) => {
                            errors.push(BlockError { lba, kind });
                            if ctx.collect_data {
                                // Placeholder keeps data indexes aligned
                                // with the request's LBAs.
                                data.push(BlockBuf::zeroed());
                            }
                        }
                    }
                }
                // Any prefetched block the resolution did not consume (its
                // state changed mid-span) must not leak into later requests.
                self.span_prefetch.clear();
                self.array.trace_request_end(done);
                Completion::with_data(done, data).with_errors(errors)
            }
        }
    }

    fn flush(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        self.shutdown_flush(now, ctx)
    }

    fn write_ticket(&self) -> Ticket {
        Icash::write_ticket(self)
    }

    fn flushed_ticket(&self) -> Ticket {
        Icash::flushed_ticket(self)
    }

    fn await_flush(&mut self, ticket: Ticket, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        Icash::await_flush(self, ticket, now, ctx)
    }

    fn sync(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        Icash::sync(self, now, ctx)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.array.install_tracer(tracer);
    }

    fn report(&self, elapsed: Ns) -> SystemReport {
        let mut report = self.array.report(self.name(), elapsed);
        report.group_commit = Some(GroupCommitReport {
            commits: self.stats.group_commits,
            entries: self.stats.group_commit_entries,
            bytes: self.stats.group_commit_bytes,
            staged_high_water: self.stats.staging_high_water,
        });
        report.health = self.health_report();
        report
    }
}
