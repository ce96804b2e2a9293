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
//!
//! This file holds the controller's state and its host-facing surface
//! (construction, `submit`, barriers, report). The paths live next door:
//! `write`, `read`, `placement` (the transitions both share),
//! `maintenance` (flush, scan, replacement) and `health`.

use crate::config::IcashConfig;
use crate::delta_log::{DeltaLog, LogEntry};
use crate::placement::RefSource;
use crate::ref_index::RefIndex;
use crate::segment::SegmentPool;
use crate::slots::SlotStore;
use crate::staging::Staging;
use crate::stats::IcashStats;
use crate::table::{BlockTable, Resident};
use crate::virtual_block::{DeltaHome, Placement, VirtualBlock};
use crate::write::STREAM_WRITE_BLOCKS;
use icash_delta::codec::DeltaCodec;
use icash_delta::heatmap::Heatmap;
use icash_delta::signature::BlockSignature;
use icash_storage::array::DeviceArray;
use icash_storage::block::{BlockBuf, Lba};
use icash_storage::fault::FaultPlan;
use icash_storage::hash::{AddrMap, AddrPages, AddrSet};
use icash_storage::hdd::{Hdd, HddError};
use icash_storage::pipeline::Ticket;
use icash_storage::request::{BlockError, Completion, IoErrorKind, Op, Request};
use icash_storage::ssd::Ssd;
use icash_storage::system::{IoCtx, StorageSystem, SystemReport};
use icash_storage::time::Ns;
use icash_storage::trace::{TraceEvent, TraceKind, Tracer};
use std::collections::BTreeMap;

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
    pub(crate) durable: Durable,
    pub(crate) volatile: Volatile,
    pub(crate) stats: IcashStats,
}

/// What a power failure leaves behind: exactly the state
/// [`Icash::crash_and_recover`] carries across.
#[derive(Debug)]
pub(crate) struct Durable {
    /// The coupled SSD + HDD pair plus the RAM-buffer budget; owns all
    /// device accounting (stats, wear, energy, report assembly).
    pub array: DeviceArray,
    /// The packed delta log on the HDD.
    pub log: DeltaLog,
    /// SSD-pinned content, the slot directory and the stamp source.
    pub slots: SlotStore,
    /// Content the controller wrote back to the HDD home area; read it
    /// through [`Icash::home_content`]. (Keyed access only, like
    /// `span_prefetch`: never iterated.)
    pub home_overlay: AddrMap<Lba, BlockBuf>,
    /// The armed fault campaign (disabled by default; see
    /// [`Icash::with_fault_plan`]).
    pub fault_plan: FaultPlan,
}

/// Controller RAM: everything a crash loses. [`Volatile::cold`] is the one
/// way to build it, for a new controller and for a recovered one alike.
#[derive(Debug)]
pub(crate) struct Volatile {
    pub codec: DeltaCodec,
    pub heatmap: Heatmap,
    pub table: BlockTable,
    pub pool: SegmentPool,
    pub ref_index: RefIndex,
    /// Content fetched by a span's batched home-read prefetch, consumed by
    /// the per-block resolution that immediately follows and cleared at the
    /// end of the request. Never populated without a device queue.
    pub span_prefetch: AddrMap<Lba, BlockBuf>,
    /// The home image a first touch generated for its signature
    /// ([`Icash::materialize_vb`]), kept for the home-area read that
    /// resolves the block next, so one read generates it once. Cleared by
    /// a home write of that address and at the end of every request.
    pub home_stash: Option<(Lba, BlockBuf)>,
    /// Evicted virtual blocks whose content is *not* in the home area: the
    /// placement each left the table with (a slot or a logged delta). Filed
    /// by page, like the table's address map: a log fetch's walk probes
    /// both for runs of neighbouring addresses.
    pub evicted: AddrPages<Placement>,
    /// Blocks that gave up an SSD slot for a delta since the last log
    /// commit, with the stamp drawn at that moment — their tombstone once
    /// the commit frees the slot; see [`Icash::store_delta`]. (Ordered, so
    /// the reclaim frees slots in address order whatever order they were
    /// released in.)
    pub released: BTreeMap<Lba, u64>,
    /// Virtual blocks with unflushed deltas.
    pub dirty: AddrSet<usize>,
    pub dirty_bytes: usize,
    /// The group-commit staging buffer: encoded-but-uncommitted deltas
    /// keyed by monotonic flush tickets. Always empty at
    /// `group_commit_depth = 1`, where a flush commits what it drains at
    /// once.
    pub staging: Staging,
    pub ios_since_scan: u64,
    pub ios_since_flush: u64,
    pub ios_since_scrub: u64,
    pub max_virtual_blocks: usize,
    /// Device-health machinery (monitors, degraded mode, rebuild, backoff,
    /// backpressure) under [`IcashConfig::health`].
    pub health: crate::health::HealthCore,
}

impl Volatile {
    /// Empty RAM state under `cfg`: nothing tracked, nothing cached, fresh
    /// health monitors, ticket watermarks at zero.
    pub fn cold(cfg: &IcashConfig) -> Self {
        Volatile {
            codec: DeltaCodec::default(),
            heatmap: Heatmap::standard(),
            table: BlockTable::new(),
            pool: SegmentPool::new(cfg.ram_budget()),
            ref_index: RefIndex::new(),
            span_prefetch: AddrMap::default(),
            home_stash: None,
            evicted: AddrPages::default(),
            released: BTreeMap::new(),
            dirty: AddrSet::default(),
            dirty_bytes: 0,
            staging: Staging::new(),
            ios_since_scan: 0,
            ios_since_flush: 0,
            ios_since_scrub: 0,
            // Metadata is ~100 B/block; allow 16 tracked blocks per
            // RAM-resident block, bounded to keep the table itself small.
            max_virtual_blocks: ((cfg.ram_budget() / 4096) * 16).clamp(4_096, 4 << 20),
            health: crate::health::HealthCore::new(cfg.health),
        }
    }
}

impl Icash {
    /// Creates a controller with fresh devices.
    pub fn new(cfg: IcashConfig) -> Self {
        cfg.validate();
        let ssd = Ssd::new(cfg.ssd_config());
        let hdd = Hdd::new(cfg.hdd_config());
        Icash {
            durable: Durable {
                array: DeviceArray::coupled(ssd, hdd),
                log: DeltaLog::new(cfg.log_blocks),
                slots: SlotStore::new(cfg.ssd_slots()),
                home_overlay: AddrMap::default(),
                fault_plan: FaultPlan::none(),
            },
            volatile: Volatile::cold(&cfg),
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
        self.durable.array.install_fault_plan(&plan);
        self.durable.fault_plan = plan;
        self
    }

    /// The armed fault plan (disabled unless [`Icash::with_fault_plan`] ran).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.durable.fault_plan
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
        s.role_counts = self.volatile.table.role_counts();
        s
    }

    /// A log entry a placement names holds its payload: the log releases
    /// only entries no placement names.
    fn validate_logged(&self, lba: Lba, placement: Placement) {
        if let Some(DeltaHome::Log(loc)) = placement.delta_home() {
            let entry = self.durable.log.entry(loc, lba);
            assert!(
                entry.and_then(LogEntry::delta).is_some(),
                "{lba:?}: log block {loc} holds no payload for it"
            );
        }
    }

    /// Asserts internal invariants (tests/debugging).
    ///
    /// # Panics
    ///
    /// Panics if the virtual-block table is corrupted, a slot's ownership is
    /// ambiguous, the residency index, the pool or the dirty set disagree
    /// with what the blocks hold, a clean resident delta's bytes are not
    /// where its placement says, or the delta log released a payload a
    /// placement or a recovery could still reach. (That a block has one
    /// placement, and a legal one, the [`Placement`] type says.)
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        self.volatile.table.validate();

        // One owner per pinned slot: a table entry, an eviction record, or a
        // release awaiting the next log commit.
        self.durable.slots.validate();
        let mut owners: Vec<(Lba, u64)> = Vec::new();
        let (mut charged, mut staged) = (0, 0);
        for id in self.volatile.table.head_ids(usize::MAX) {
            let vb = self.volatile.table.get(id);
            // The residency index files exactly the blocks that hold RAM,
            // and nothing else is charged to the pool.
            for (class, held) in [
                (Resident::Data, vb.data.is_some()),
                (Resident::Delta, vb.delta.is_some()),
            ] {
                let filed = self.volatile.table.is_resident(id, class);
                assert_eq!(filed, held, "{:?}: {class:?} index is wrong", vb.lba);
            }
            charged += vb.data_charge as usize + vb.delta.as_ref().map_or(0, |d| d.charge as usize);
            // A resident delta is the one the placement names. It holds the
            // bytes iff they are nowhere else — a dirty one, the dirty set —
            // and a clean one finds them, of the length it was charged for,
            // at its home: the staged entry, or the one entry for the block
            // in the log block named.
            let home = vb.placement.delta_home();
            if let Some(cached) = &vb.delta {
                let dirty = home == Some(DeltaHome::Dirty);
                assert_eq!(cached.payload.is_some(), dirty, "{:?}: payload", vb.lba);
                let len = self.resident_delta(id).map(|d| d.len() as u32);
                assert_eq!(len, Some(cached.len), "{:?}: not at {home:?}", vb.lba);
                if let Some(DeltaHome::Log(loc)) = home {
                    let entries = &self.durable.log.fetch(loc).entries;
                    let n = entries.iter().filter(|e| e.lba == vb.lba).count();
                    assert_eq!(n, 1, "{:?}: {n} entries in log block {loc}", vb.lba);
                }
            }
            // A dirty home holds its delta: a block moves there first and
            // gets the delta next, inside one `store_delta`.
            let dirty = self.volatile.dirty.contains(&id.index());
            assert_eq!(
                dirty,
                home == Some(DeltaHome::Dirty),
                "{:?}: dirty set is wrong",
                vb.lba
            );
            assert!(
                !dirty || vb.delta.is_some(),
                "{:?}: dirty, with no delta",
                vb.lba
            );
            // At rest a block is staged iff the staging buffer holds its
            // entry: a commit takes the whole buffer, and what it drains
            // from the dirty set at depth 1 it appends at once.
            let is_staged = home == Some(DeltaHome::Staged);
            assert_eq!(
                is_staged,
                self.volatile.staging.get(vb.lba).is_some(),
                "{:?}: staging buffer is wrong",
                vb.lba
            );
            staged += usize::from(is_staged);
            self.validate_logged(vb.lba, vb.placement);
            owners.extend(vb.placement.slot().map(|slot| (vb.lba, slot)));
        }
        assert_eq!(
            staged,
            self.volatile.staging.live(),
            "staged entries for untracked blocks"
        );
        // A block is tracked or evicted, never both: `clean_log` builds its
        // liveness map from both on that. (Hash order; `owners` is sorted
        // before it is compared.)
        self.volatile.evicted.validate();
        for (lba, placement) in self.volatile.evicted.iter() {
            let tracked = self.volatile.table.lookup(lba);
            assert!(tracked.is_none(), "{lba:?}: both tracked and evicted");
            self.validate_logged(lba, *placement);
            owners.extend(placement.slot().map(|slot| (lba, slot)));
        }
        self.durable.log.validate();
        for &lba in self.volatile.released.keys() {
            owners.extend(self.durable.slots.pin(lba).map(|slot| (lba, slot)));
        }
        assert_eq!(
            charged,
            self.volatile.pool.used(),
            "pool bytes with no holder"
        );
        owners.sort_by_key(|&(lba, _)| lba.raw());
        assert_eq!(
            owners,
            self.durable.slots.pinned_sorted(),
            "every pinned slot needs exactly one owner"
        );
    }

    /// The device array (SSD + HDD + RAM budget) backing the controller.
    pub fn devices(&self) -> &DeviceArray {
        &self.durable.array
    }

    /// The SSD device (wear, GC, op counts — Table 6 reads its writes).
    pub fn ssd(&self) -> &Ssd {
        self.durable.array.ssd()
    }

    /// The HDD device.
    pub fn hdd(&self) -> &Hdd {
        self.durable.array.hdd()
    }

    /// The HDD home-area position backing `lba`.
    pub(crate) fn home_pos(&self, lba: Lba) -> u64 {
        lba.raw() % self.cfg.data_blocks()
    }

    /// Whether a span's home reads go to the HDD as one command-queue batch:
    /// whether a queue is configured. When false, the classic per-op loop
    /// runs, bit-identical to the pre-queue controller.
    pub(crate) fn batches_through_queue(&self) -> bool {
        self.cfg.queue.is_some()
    }

    // ------------------------------------------------------------------
    // HDD operations with retry
    // ------------------------------------------------------------------

    /// One HDD operation with bounded retries, every outcome fed to the HDD
    /// monitor. The health policy sets the budget — read and write apart —
    /// and the pacing: at once (traced as `FaultRetry`) under a zero
    /// backoff base, exponential backoff with jitter otherwise. A drive
    /// already declared dead fails fast. The residual failure is the
    /// caller's to degrade on.
    pub(crate) fn hdd_retry(
        &mut self,
        op: Op,
        at: Ns,
        pos: u64,
        blocks: u32,
    ) -> Result<Ns, HddError> {
        let write = op == Op::Write;
        if self.hdd_is_failed() {
            return Err(if write {
                HddError::WriteFault { lba: pos }
            } else {
                HddError::LatentSector { lba: pos }
            });
        }
        let policy = self.cfg.health;
        let budget = if write {
            policy.write_retries
        } else {
            policy.read_retries
        };
        let (mut t, mut attempt) = (at, 0u32);
        loop {
            let hdd = self.durable.array.hdd_mut();
            let last = if write {
                hdd.write(t, pos, blocks)
            } else {
                hdd.read(t, pos, blocks)
            };
            self.note_device(t, crate::health::DEV_HDD, last.is_ok());
            if last.is_ok() || attempt >= budget || self.hdd_is_failed() {
                return last;
            }
            attempt += 1;
            if policy.retry_base_ns > 0 {
                t = self.note_backoff(t, pos, attempt, write);
            } else {
                self.note_retry(t, pos, write);
            }
        }
    }

    /// Traces one controller-level retry of a faulted device op: the trace
    /// is its one count.
    pub(crate) fn note_retry(&mut self, at: Ns, addr: u64, write: bool) {
        self.durable.array.tracer().emit(|| TraceEvent {
            at,
            kind: TraceKind::FaultRetry { lba: addr, write },
        });
    }

    /// A delta-log append. With the drive's write-behind cache available (a
    /// queue is configured and no faults are armed) the append parks in the
    /// cache and the host continues immediately — the cached appends later
    /// drain as one seek-saving burst instead of paying a full home→log
    /// head trip per group commit. Otherwise this is the classic
    /// synchronous retried write.
    pub(crate) fn hdd_log_append(&mut self, at: Ns, pos: u64, blocks: u32) -> Ns {
        if self.durable.array.hdd().write_cache_enabled() {
            // The cache is fault-free by construction, so the park (or the
            // depth-triggered drain it runs) cannot fail.
            return self
                .durable
                .array
                .hdd_mut()
                .write_behind(at, pos, blocks)
                .unwrap_or(at);
        }
        self.hdd_retry(Op::Write, at, pos, blocks).unwrap_or(at)
    }

    // ------------------------------------------------------------------
    // Offline image preparation
    // ------------------------------------------------------------------

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
        let mut entries: Vec<LogEntry> = Vec::new();
        let mut pending: Vec<(Lba, Lba)> = Vec::new(); // (lba, reference)
        for &(vm, blocks) in universe {
            for b in 0..blocks {
                let lba = Lba::new(b).with_vm(vm);
                let content = ctx.backing.initial_content(lba);
                let sig = BlockSignature::of(content.as_slice());
                let mut bound = false;
                for cand in self.volatile.ref_index.candidates(&sig, 3, 2) {
                    let Some((rid, slot)) = self.pinned(cand) else {
                        continue;
                    };
                    let delta = self.encode_against(Ns::ZERO, lba, RefSource::Slot(slot), &content);
                    if delta.len() <= self.cfg.delta_threshold {
                        let dependants = self.volatile.table.get(rid).dependants;
                        self.volatile.table.set_dependants(rid, dependants + 1);
                        let gen = self.durable.slots.stamp();
                        entries.push(LogEntry::new(lba, cand, gen, delta));
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
                if self.durable.slots.high_water() * 100 >= self.cfg.ssd_slots() * 85 {
                    continue;
                }
                if let Some(slot) = self.durable.slots.alloc() {
                    // The factory image: mapped without a host program, and
                    // never hardened (nothing here costs virtual time).
                    self.durable
                        .array
                        .ssd_mut()
                        .prefill(slot)
                        .expect("factory image");
                    self.durable.slots.install(lba, slot, content);
                    self.volatile.table.insert(VirtualBlock {
                        placement: Placement::Reference { slot, own: None },
                        ..VirtualBlock::independent(lba, sig)
                    });
                    self.volatile.ref_index.insert(lba, &sig);
                    self.stats.ref_installs += 1;
                }
            }
        }
        if !entries.is_empty() {
            let n_entries = entries.len() as u32;
            let report = self.durable.log.append(entries);
            for ((lba, reference), loc) in pending.into_iter().zip(report.entry_locs) {
                let delta = DeltaHome::Log(loc);
                self.volatile
                    .evicted
                    .insert(lba, Placement::Associate { reference, delta });
            }
            self.stats.log_blocks_written += report.blocks_written as u64;
            let blocks = report.blocks_written;
            self.durable.array.tracer().emit(|| TraceEvent {
                at: Ns::ZERO,
                kind: TraceKind::LogFlush {
                    entries: n_entries,
                    blocks,
                },
            });
        }
    }

    // ------------------------------------------------------------------
    // Flush tickets and durability barriers
    // ------------------------------------------------------------------

    /// The flush ticket covering the most recently accepted write (the
    /// write-acceptance watermark). One ticket is reserved per host write.
    pub fn write_ticket(&self) -> Ticket {
        self.volatile.staging.progress.reserved()
    }

    /// The durability watermark: every write whose ticket is at or below it
    /// has reached stable media (HDD log, HDD home, or SSD).
    pub fn flushed_ticket(&self) -> Ticket {
        self.volatile.staging.progress.completed()
    }

    /// Durability barrier for one ticket: returns once every write with a
    /// ticket at or below `ticket` is on stable media. Free when the
    /// completed watermark already covers the ticket; otherwise the whole
    /// pipeline drains (staged group commits *and* dirty independent data).
    /// Either way the delta log's last append is sealed: a crash can no
    /// longer tear it.
    pub fn await_flush(&mut self, ticket: Ticket, now: Ns, _ctx: &mut IoCtx<'_>) -> Ns {
        // A durability barrier forces cached log appends onto the media
        // even when the ticket watermark is already satisfied — completion
        // watermarks advance when the append is accepted, not when the
        // drive's write-behind cache drains. Free with no queue (the cache
        // is always empty).
        let now = now.max(self.durable.array.hdd_mut().flush_cache(now));
        let waited = !self.volatile.staging.progress.is_completed(ticket);
        let t = if waited {
            self.shutdown_flush(now)
        } else {
            self.durable.log.seal();
            now
        };
        self.durable.array.tracer().emit(|| TraceEvent {
            at: t,
            kind: TraceKind::Barrier {
                ticket: ticket.as_u64(),
                waited,
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

impl Icash {
    /// A host write, block by block (or streamed, for a long span).
    fn write_request(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Completion {
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
            return Completion::at(req.at).with_errors(errors);
        }
        if req.blocks >= STREAM_WRITE_BLOCKS {
            return Completion::at(self.stream_write_span(req, ctx));
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
                done = done.max(self.flush_all(req.at));
                continue;
            }
            done = done.max(self.write_block(lba, buf.clone(), req.at, ctx));
        }
        Completion::at(done).with_errors(errors)
    }

    /// A host read, block by block, after the span's batched home reads.
    fn read_request(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Completion {
        let mut done = req.at;
        // The span's home-area misses go through the device queue
        // as one batch (a no-op without a configured queue).
        done = done.max(self.prefetch_span_homes(req, ctx));
        let mut data = Vec::new();
        let mut errors = Vec::new();
        for (i, lba) in (0..).zip(req.lbas()) {
            let (t, res) = self.read_block(lba, req.at, req.blocks - i, ctx);
            done = done.max(t);
            match res {
                Ok(content) => data.extend(content),
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
        Completion::with_data(done, data).with_errors(errors)
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
        self.durable.array.trace_request(req);
        let done = match req.op {
            Op::Write => self.write_request(req, ctx),
            Op::Read => self.read_request(req, ctx),
        };
        // What a request parks for its own resolution — a span's batched
        // home reads, a first touch's home image — must not leak into
        // later requests: a block's state can change before it is used.
        self.volatile.span_prefetch.clear();
        self.volatile.home_stash = None;
        self.durable.array.trace_request_end(done.finished);
        done
    }

    fn flush(&mut self, now: Ns, _ctx: &mut IoCtx<'_>) -> Ns {
        self.shutdown_flush(now)
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
        self.durable.array.install_tracer(tracer);
    }

    fn report(&self, elapsed: Ns) -> SystemReport {
        self.durable.array.report(self.name(), elapsed)
    }
}
