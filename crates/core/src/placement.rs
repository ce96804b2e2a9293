//! Placement: where a block's current content lives, and the only
//! functions allowed to change that (DESIGN.md §18).
//!
//! Every tracked block has exactly one current placement — an SSD slot, a
//! reference plus a delta, a zero-based log entry, or its HDD home
//! position. The read and write paths, the scanner and the degraded mode
//! never edit that decision field by field; they call the transitions
//! here, so the bookkeeping each one implies (index-cache invalidation,
//! trim, directory record, stale marking, hardening) cannot be forgotten
//! at one call site.

use crate::controller::Icash;
use crate::table::{Resident, VbId};
use crate::virtual_block::{CachedDelta, Role, VirtualBlock};
use icash_delta::codec::Delta;
use icash_delta::signature::BlockSignature;
use icash_storage::block::{BlockBuf, Lba, BLOCK_SIZE};
use icash_storage::cpu::CpuOp;
use icash_storage::ssd::SsdError;
use icash_storage::system::IoCtx;
use icash_storage::time::Ns;
use icash_storage::trace::{TraceEvent, TraceKind};

/// The pseudo-reference for log-resident independent blocks: their log
/// entries decode against an all-zero block, so any zero-heavy content
/// compresses and the rest is stored raw — either way the write rides the
/// sequential delta log instead of a random home write.
pub(crate) const ZERO_REF: [u8; BLOCK_SIZE] = [0; BLOCK_SIZE];

/// What a delta is encoded against.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RefSource {
    /// The content pinned in this SSD slot.
    Slot(u64),
    /// The all-zero pseudo-reference (traced as slot [`u64::MAX`]).
    Zero,
}

/// Where an evicted virtual block's content lives, so the controller can
/// rebuild it on the next access.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EvictedState {
    /// Full content pinned in an SSD slot.
    InSsd(u64),
    /// Decode the delta in this log block against `reference`.
    InLog {
        /// The reference block it is encoded against; the block's own
        /// address for a zero-based independent.
        reference: Lba,
        /// Packed log block holding the delta.
        loc: u32,
    },
}

impl Icash {
    /// Encodes `target` against `source`, reusing (and lazily populating)
    /// the source's cached chunk index. The delta's payload shares
    /// `target`'s allocation where the encoding keeps whole runs of it
    /// (Raw).
    pub(crate) fn encode_against(
        &mut self,
        at: Ns,
        lba: Lba,
        source: RefSource,
        target: &BlockBuf,
    ) -> Delta {
        let codec = &self.volatile.codec;
        let cache = &mut self.volatile.ref_cache;
        let (slot, hit, delta) = match source {
            RefSource::Slot(slot) => {
                let base = self.durable.slots.content(slot);
                let (hit, delta) = cache.with_slot(slot, |index| {
                    let hit = index.is_some();
                    (
                        hit,
                        codec.encode_shared(base.as_slice(), target.as_bytes(), index),
                    )
                });
                (slot, hit, delta)
            }
            RefSource::Zero => {
                let index = cache.zero_entry();
                let hit = index.is_some();
                let delta = codec.encode_shared(&ZERO_REF, target.as_bytes(), index);
                (u64::MAX, hit, delta)
            }
        };
        let bytes = delta.len() as u32;
        self.durable.array.tracer().emit(|| TraceEvent {
            at,
            kind: TraceKind::RefCache { slot, hit },
        });
        self.durable.array.tracer().emit(|| TraceEvent {
            at,
            kind: TraceKind::DeltaEncode {
                lba: lba.raw(),
                reference: slot,
                bytes,
            },
        });
        delta
    }

    /// The copy of `lba` the controller itself wrote to its HDD home
    /// position (a degraded write or a hardened slot), if any.
    pub(crate) fn written_home(&self, lba: Lba) -> Option<&BlockBuf> {
        self.durable.home_overlay.get(&lba)
    }

    /// What the HDD home position of `lba` holds: the controller's own
    /// last home write, or the backing image it started from.
    pub(crate) fn home_content(&self, lba: Lba, ctx: &IoCtx<'_>) -> BlockBuf {
        self.written_home(lba)
            .cloned()
            .unwrap_or_else(|| ctx.backing.initial_content(lba))
    }

    /// Writes `content` to `lba`'s HDD home position. Transient faults
    /// clear on retry, and a persistently failing sector is remapped by the
    /// drive on the next rewrite, so the home copy is modelled as holding
    /// the intended bytes either way (never silently stale data).
    pub(crate) fn write_home_copy(&mut self, lba: Lba, content: &BlockBuf, at: Ns) -> Ns {
        let pos = self.home_pos(lba);
        let t = self.hdd_write_retry(at, pos, 1).unwrap_or(at);
        self.durable.home_overlay.insert(lba, content.clone());
        t
    }

    /// Programs `content` into SSD slot `slot` and makes it `id`'s pinned
    /// copy: fresh directory record, fresh checksum, cold chunk index, and
    /// (faults armed) the redundant home copy. Returns the instant the
    /// content is safe. If the flash refuses the program nothing changes
    /// and the caller picks the fallback.
    pub(crate) fn install_slot(
        &mut self,
        id: VbId,
        slot: u64,
        content: &BlockBuf,
        at: Ns,
    ) -> Result<Ns, SsdError> {
        let t = self.ssd_write_op(at, slot)?;
        let lba = self.volatile.table.get(id).lba;
        if self
            .durable
            .slots
            .record(lba)
            .is_some_and(|r| r.slot != slot)
        {
            // A slot the block released and still owns (its delta never
            // reached the log): this install is durable at once.
            self.discard_slot(lba);
        }
        self.durable
            .slots
            .install(&mut self.volatile.ref_cache, lba, slot, content.clone());
        self.volatile.table.get_mut(id).ssd_slot = Some(slot);
        if !self.durable.fault_plan.is_enabled() {
            return Ok(t);
        }
        // With faults armed the content also goes to the home position, so
        // an uncorrectable flash read can be repaired from the redundant
        // copy. (Disabled plans skip it: fault-free runs stay bit-identical
        // to the unhardened controller.)
        Ok(self.write_home_copy(lba, content, t))
    }

    /// Gives up `id`'s SSD slot, if it holds one, because the block has
    /// moved to delta or log placement. The block stops reading the slot
    /// now, but the slot stays pinned until the next log commit
    /// ([`Icash::reclaim_released_slots`]): the content replacing it is a
    /// delta still in RAM, and until that is durable the slot is the copy a
    /// crash must find. Call it with the replacing delta already stored —
    /// a commit that runs first (making room for that delta) would reclaim
    /// the slot with nothing in the log to take its place.
    pub(crate) fn release_slot(&mut self, id: VbId) {
        let vb = self.volatile.table.get_mut(id);
        if vb.ssd_slot.take().is_some() {
            debug_assert!(vb.dirty_delta, "released before its delta is stored");
            let lba = vb.lba;
            self.volatile.released.insert(lba);
            self.durable.slots.supersede_older(lba);
        }
    }

    /// Unpins and frees whatever slot `lba` owns — held or released — at
    /// once. For when newer content of `lba` is already durable elsewhere.
    pub(crate) fn discard_slot(&mut self, lba: Lba) {
        if let Some(id) = self.volatile.table.lookup(lba) {
            self.volatile.table.get_mut(id).ssd_slot = None;
        }
        self.volatile.released.remove(&lba);
        let freed = self
            .durable
            .slots
            .release(&mut self.volatile.ref_cache, lba);
        if let Some(slot) = freed.filter(|_| !self.ssd_is_failed()) {
            // (A dead device takes no commands, and its replacement starts
            // with nothing mapped.)
            self.durable.array.ssd_mut().trim(slot);
        }
    }

    /// Frees the slots released since the last log commit: the deltas that
    /// replaced them are durable now.
    pub(crate) fn reclaim_released_slots(&mut self) {
        for lba in std::mem::take(&mut self.volatile.released) {
            self.discard_slot(lba);
        }
    }

    /// Retires `id`'s delta wherever it currently sits — resident in RAM,
    /// staged for group commit, or flushed to the log — because newer
    /// content has just been placed elsewhere. Recovery must never apply
    /// the old entry on top of that.
    pub(crate) fn supersede_logged(&mut self, id: VbId) {
        self.drop_delta(id);
        self.unstage(id);
        if let Some(loc) = self.volatile.table.get_mut(id).log_loc.take() {
            self.durable.log.mark_stale(loc);
        }
    }

    /// The table entry for a block coming back from eviction.
    pub(crate) fn rebuild_evicted(&self, lba: Lba, state: EvictedState) -> VirtualBlock {
        match state {
            EvictedState::InSsd(slot) => {
                let sig = BlockSignature::of(self.durable.slots.content(slot).as_slice());
                let mut vb = VirtualBlock::independent(lba, sig);
                vb.ssd_slot = Some(slot);
                vb
            }
            EvictedState::InLog { reference, loc } => {
                let mut vb = VirtualBlock::independent(lba, BlockSignature::default());
                if reference != lba {
                    // (the reference kept its dependant count meanwhile)
                    vb.role = Role::Associate;
                    vb.reference = Some(reference);
                }
                vb.log_loc = Some(loc);
                vb
            }
        }
    }

    /// Returns the virtual block for `lba`, rebuilding it from eviction
    /// state or creating a fresh one on first touch.
    pub(crate) fn materialize_vb(&mut self, lba: Lba, at: Ns, ctx: &mut IoCtx<'_>) -> VbId {
        if let Some(id) = self.volatile.table.lookup(lba) {
            return id;
        }
        self.reserve_table_slot(at);
        let vb = match self.volatile.evicted.remove(&lba) {
            Some(state) => self.rebuild_evicted(lba, state),
            None => {
                // First touch: content is the home image; compute the
                // signature for similarity detection on load (paper §4.2).
                let sig = BlockSignature::of(self.home_content(lba, ctx).as_slice());
                ctx.cpu.charge(CpuOp::Signature);
                VirtualBlock::independent(lba, sig)
            }
        };
        self.volatile.table.insert(vb)
    }

    // ------------------------------------------------------------------
    // RAM residency of data blocks and deltas
    // ------------------------------------------------------------------

    /// Caches `content` as `id`'s resident data block, making room first.
    pub(crate) fn cache_data(&mut self, id: VbId, content: BlockBuf, at: Ns) {
        if self.volatile.table.get(id).data.is_some() {
            // Replace in place: the charge is already held.
            self.volatile.table.get_mut(id).data = Some(content);
            return;
        }
        if !self.make_room_for_block(id, at) {
            return; // cache under extreme pressure: serve uncached
        }
        let charge = self.volatile.pool.alloc_block();
        let vb = self.volatile.table.get_mut(id);
        vb.data = Some(content);
        vb.data_charge = charge;
        self.volatile.table.set_resident(id, Resident::Data, true);
    }

    /// Stores `delta` as `id`'s resident (dirty) delta, making room first.
    pub(crate) fn store_delta(&mut self, id: VbId, delta: Delta, at: Ns) {
        self.drop_delta(id);
        self.unstage(id);
        self.make_room_for_delta(id, delta.len(), at);
        let charge = self.volatile.pool.alloc_delta(delta.len());
        // Supersede any flushed copy in the log — only now: making room may
        // have cleaned the log, which keeps (and moves) the entry this
        // block still points at.
        if let Some(loc) = self.volatile.table.get_mut(id).log_loc.take() {
            self.durable.log.mark_stale(loc);
        }
        let vb = self.volatile.table.get_mut(id);
        vb.delta = Some(CachedDelta { delta, charge });
        vb.dirty_delta = true;
        self.volatile.table.set_resident(id, Resident::Delta, true);
        self.volatile.dirty.insert(id.index());
        self.volatile.dirty_bytes += charge;
    }

    /// Installs a delta recovered from the log: resident but *clean*.
    pub(crate) fn install_clean_delta(&mut self, id: VbId, delta: Delta, at: Ns) {
        if self.volatile.table.get(id).delta.is_some() {
            return;
        }
        self.make_room_for_delta(id, delta.len(), at);
        let charge = self.volatile.pool.alloc_delta(delta.len());
        let vb = self.volatile.table.get_mut(id);
        vb.delta = Some(CachedDelta { delta, charge });
        vb.dirty_delta = false;
        self.volatile.table.set_resident(id, Resident::Delta, true);
    }

    /// Releases `id`'s resident delta, if any.
    pub(crate) fn drop_delta(&mut self, id: VbId) {
        let vb = self.volatile.table.get_mut(id);
        let Some(cached) = vb.delta.take() else {
            return;
        };
        let was_dirty = std::mem::take(&mut vb.dirty_delta);
        self.volatile.table.set_resident(id, Resident::Delta, false);
        self.volatile.pool.free(cached.charge);
        if was_dirty {
            self.volatile.dirty.remove(&id.index());
            self.volatile.dirty_bytes -= cached.charge;
        }
    }

    /// Invalidates `id`'s staged-but-uncommitted delta, if any: a newer
    /// write (or a direct SSD install) superseded it before its group
    /// commit, so committing it would only append a dead entry.
    pub(crate) fn unstage(&mut self, id: VbId) {
        let vb = self.volatile.table.get_mut(id);
        if std::mem::take(&mut vb.staged) {
            let lba = vb.lba;
            self.volatile.staging.invalidate(lba);
        }
    }

    /// Releases `id`'s resident data block, if any.
    pub(crate) fn drop_data(&mut self, id: VbId) {
        let vb = self.volatile.table.get_mut(id);
        if vb.data.take().is_some() {
            let charge = std::mem::take(&mut vb.data_charge);
            self.volatile.table.set_resident(id, Resident::Data, false);
            self.volatile.pool.free(charge);
        }
    }
}
