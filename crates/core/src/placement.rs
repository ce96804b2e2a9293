//! Placement: where a block's current content lives, and the only
//! functions allowed to change that (DESIGN.md §18).
//!
//! Every tracked block has exactly one current [`Placement`] — an SSD
//! slot, a reference plus a delta, a zero-based log entry, or its HDD home
//! position. The read and write paths, the scanner and the degraded mode
//! never set it themselves; they call the transitions here, which take the
//! placement the block is leaving and settle what it leaves behind
//! (dependant count, resident and staged copies, stale marking, slot
//! release, trim, directory record, hardening), so none of it can be
//! forgotten at one call site.

use crate::controller::Icash;
use crate::table::{Resident, VbId};
use crate::virtual_block::{CachedData, CachedDelta, DeltaHome, Placement, VirtualBlock};
use icash_delta::codec::Delta;
use icash_delta::signature::BlockSignature;
use icash_storage::block::{BlockBuf, Lba};
use icash_storage::cpu::CpuOp;
use icash_storage::request::Op;
use icash_storage::ssd::SsdError;
use icash_storage::system::IoCtx;
use icash_storage::time::Ns;
use icash_storage::trace::{TraceEvent, TraceKind};
use std::sync::OnceLock;

/// The pseudo-reference for log-resident independent blocks: their log
/// entries decode against an all-zero block, so any zero-heavy content
/// compresses and the rest is stored raw — either way the write rides the
/// sequential delta log instead of a random home write. One shared block,
/// so a zero-based recipe takes a refcount on it.
pub(crate) fn zero_block() -> &'static BlockBuf {
    static ZERO: OnceLock<BlockBuf> = OnceLock::new();
    ZERO.get_or_init(BlockBuf::zeroed)
}

/// What a delta is encoded against.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RefSource {
    /// The content pinned in this SSD slot.
    Slot(u64),
    /// The all-zero pseudo-reference (traced as slot [`u64::MAX`]).
    Zero,
}

impl Icash {
    /// Encodes `target` against `source`. A delta that stores the block
    /// whole (Raw) shares `target`'s allocation.
    pub(crate) fn encode_against(
        &mut self,
        at: Ns,
        lba: Lba,
        source: RefSource,
        target: &BlockBuf,
    ) -> Delta {
        let (slot, base): (u64, &[u8]) = match source {
            RefSource::Slot(slot) => (slot, self.durable.slots.content(slot).as_slice()),
            RefSource::Zero => (u64::MAX, zero_block().as_slice()),
        };
        let delta = self.volatile.codec.encode_shared(base, target.as_bytes());
        let bytes = delta.len() as u32;
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
        let t = self.hdd_retry(Op::Write, at, pos, 1).unwrap_or(at);
        self.durable.home_overlay.insert(lba, content.clone());
        self.volatile
            .home_stash
            .take_if(|(stashed, _)| *stashed == lba);
        t
    }

    /// Programs `content` into SSD slot `slot` and pins it as `lba`'s
    /// copy: fresh directory record, fresh checksum, and
    /// (faults armed) the redundant home copy. Returns the instant the
    /// content is safe; the caller then moves the block there
    /// ([`Icash::supersede_delta`]). If the flash refuses the program
    /// nothing changes and the caller picks the fallback.
    pub(crate) fn install_slot(
        &mut self,
        lba: Lba,
        slot: u64,
        content: &BlockBuf,
        at: Ns,
    ) -> Result<Ns, SsdError> {
        let t = self.ssd_write_op(at, slot)?;
        if self.durable.slots.pin(lba).is_some_and(|s| s != slot) {
            // A slot the block released and still owns (its delta never
            // reached the log): this install is durable at once.
            self.discard_slot(lba, None);
        }
        self.durable.slots.install(lba, slot, content.clone());
        if !self.durable.fault_plan.is_enabled() {
            return Ok(t);
        }
        // With faults armed the content also goes to the home position, so
        // an uncorrectable flash read can be repaired from the redundant
        // copy. (Disabled plans skip it: fault-free runs stay bit-identical
        // to the unhardened controller.)
        Ok(self.write_home_copy(lba, content, t))
    }

    /// Unpins and frees whatever slot `lba` owns — held or released — at
    /// once, for when newer content of `lba` is already durable elsewhere.
    /// `left_at` becomes the block's tombstone (see [`SlotStore::release`]).
    ///
    /// [`SlotStore::release`]: crate::slots::SlotStore::release
    pub(crate) fn discard_slot(&mut self, lba: Lba, left_at: Option<u64>) {
        self.volatile.released.remove(&lba);
        let freed = self.durable.slots.release(lba, left_at);
        if let Some(slot) = freed.filter(|_| !self.ssd_is_failed()) {
            // (A dead device takes no commands, and its replacement starts
            // with nothing mapped.)
            self.durable.array.ssd_mut().trim(slot);
        }
    }

    /// Frees the slots released since the last log commit: the deltas that
    /// replaced them are durable now, and so are their tombstones.
    pub(crate) fn reclaim_released_slots(&mut self) {
        for (lba, left_at) in std::mem::take(&mut self.volatile.released) {
            self.discard_slot(lba, Some(left_at));
        }
    }

    /// Tracked block `lba` and the SSD slot it reads — what an associate of
    /// `lba` decodes against — if it has one. (Which block an associate
    /// names is not something its own placement can vouch for.)
    pub(crate) fn pinned(&self, lba: Lba) -> Option<(VbId, u64)> {
        let id = self.volatile.table.lookup(lba)?;
        Some((id, self.volatile.table.get(id).placement.slot()?))
    }

    /// Moves `id` to `to` and returns the placement it left. An associate
    /// that leaves its reference, or joins one, is counted there.
    fn replace_placement(&mut self, id: VbId, to: Placement) -> Placement {
        let table = &mut self.volatile.table;
        let old = table.set_placement(id, to);
        if old.reference() != to.reference() {
            if let Some(rid) = old.reference().and_then(|r| table.lookup(r)) {
                let dependants = table.get(rid).dependants;
                table.set_dependants(rid, dependants.saturating_sub(1));
            }
            if let Some(rid) = to.reference().and_then(|r| table.lookup(r)) {
                let dependants = table.get(rid).dependants;
                table.set_dependants(rid, dependants + 1);
            }
        }
        old
    }

    /// Moves `id` to `to` — a slot, an unwritten reference, or home —
    /// because newer content has just been placed there, and retires the
    /// delta the block leaves wherever it sits: resident in RAM, staged for
    /// group commit, or flushed to the log. Recovery must never apply the
    /// old entry on top of the new content.
    pub(crate) fn supersede_delta(&mut self, id: VbId, to: Placement) {
        debug_assert_eq!(to.delta_home(), None);
        self.leave_delta(id, to);
    }

    /// Moves `id` to `to` and retires the delta it leaves, in one step: its
    /// RAM copies go (resident, staged) and a logged one is marked stale.
    /// Returns the placement it left.
    fn leave_delta(&mut self, id: VbId, to: Placement) -> Placement {
        self.drop_delta(id);
        self.unstage(id);
        let old = self.replace_placement(id, to);
        if let Some(DeltaHome::Log(loc)) = old.delta_home() {
            let lba = self.volatile.table.get(id).lba;
            self.durable.log.mark_stale(loc, lba);
        }
        old
    }

    /// Moves `id` home, where its content has just been written, because a
    /// commit the log cannot take holds its delta or its reference's, and
    /// lets the delta go (DESIGN.md §12). A delta in the commit was drained
    /// from the dirty set already, so the placement moves first: dropping a
    /// delta still marked dirty would charge the drain.
    pub(crate) fn spill_delta(&mut self, id: VbId) {
        let lba = self.volatile.table.get(id).lba;
        if let Some(DeltaHome::Log(loc)) = self.replace_placement(id, Placement::Home).delta_home()
        {
            self.durable.log.mark_stale(loc, lba);
        }
        self.drop_delta(id);
        // The block's older log entries stay on the platter; the tombstone
        // keeps recovery from replaying them over the home write.
        let left_at = self.durable.slots.stamp();
        self.discard_slot(lba, Some(left_at));
    }

    /// The table entry for a block coming back from eviction.
    pub(crate) fn rebuild_evicted(&self, lba: Lba, placement: Placement) -> VirtualBlock {
        // (A block evicted as an associate kept its reference's dependant
        // count meanwhile.)
        let sig = placement
            .slot()
            .map_or_else(BlockSignature::default, |slot| {
                BlockSignature::of(self.durable.slots.content(slot).as_slice())
            });
        VirtualBlock {
            placement,
            ..VirtualBlock::independent(lba, sig)
        }
    }

    /// Returns the virtual block for `lba`, rebuilding it from eviction
    /// state or creating a fresh one on first touch.
    pub(crate) fn materialize_vb(&mut self, lba: Lba, at: Ns, ctx: &mut IoCtx<'_>) -> VbId {
        if let Some(id) = self.volatile.table.lookup(lba) {
            return id;
        }
        self.reserve_table_slot(at);
        let vb = match self.volatile.evicted.remove(lba) {
            Some(placement) => self.rebuild_evicted(lba, placement),
            None => {
                // First touch: content is the home image; compute the
                // signature for similarity detection on load (paper §4.2).
                // The image is kept for the home read that usually follows.
                let content = self.home_content(lba, ctx);
                let sig = BlockSignature::of(content.as_slice());
                ctx.cpu.charge(CpuOp::Signature);
                self.stash_home(lba, content);
                VirtualBlock::independent(lba, sig)
            }
        };
        self.volatile.table.insert(vb)
    }

    /// Keeps `content`, `lba`'s home image, for the home-area read that
    /// resolves the block next ([`Volatile::home_stash`]).
    ///
    /// [`Volatile::home_stash`]: crate::controller::Volatile::home_stash
    pub(crate) fn stash_home(&mut self, lba: Lba, content: BlockBuf) {
        #[cfg(test)]
        if crate::read::tests::NO_HOME_STASH.with(std::cell::Cell::get) {
            return;
        }
        self.volatile.home_stash = Some((lba, content));
    }

    // ------------------------------------------------------------------
    // RAM residency of data blocks and deltas
    // ------------------------------------------------------------------

    /// Caches `content` as `id`'s resident data block, making room first.
    pub(crate) fn cache_data(&mut self, id: VbId, content: CachedData, at: Ns) {
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
        vb.data_charge = charge as u32;
        self.volatile.table.set_resident(id, Resident::Data, true);
    }

    /// Stores `delta` as `id`'s new current content — resident and dirty —
    /// and moves the block to `to`, the delta placement it was encoded for.
    /// The block moves first, then room is made for the delta: a commit
    /// inside making room leaves the block alone (its delta is in no
    /// batch), and a clean keeps the block's newest log entry — a block
    /// whose delta is not in the log yet keeps the version behind it
    /// ([`Icash::clean_log`]). A slot the block gives up is released only
    /// once the delta is in: a commit frees released slots, and one freed
    /// any earlier would be reclaimed with nothing logged to take its place.
    pub(crate) fn store_delta(&mut self, id: VbId, delta: Delta, at: Ns, to: Placement) {
        debug_assert_eq!(to.delta_home(), Some(DeltaHome::Dirty));
        let old = self.leave_delta(id, to);
        let len = delta.len();
        self.make_room_for_delta(id, len, at);
        let charge = self.volatile.pool.alloc_delta(len);
        let vb = self.volatile.table.get_mut(id);
        vb.delta = Some(CachedDelta {
            payload: Some(delta),
            len: len as u32,
            charge: charge as u32,
        });
        let lba = vb.lba;
        self.volatile.table.set_resident(id, Resident::Delta, true);
        self.volatile.dirty.insert(id.index());
        self.volatile.dirty_bytes += charge;
        if old.slot().is_some() && to.slot().is_none() {
            // The block stops reading its slot now, but the slot stays
            // pinned until the next log commit
            // ([`Icash::reclaim_released_slots`]): until the delta above is
            // durable, it is the copy a crash must find.
            let left_at = self.durable.slots.stamp();
            self.volatile.released.insert(lba, left_at);
        }
    }

    /// Makes `id`'s staged or logged delta, `len` bytes long, resident but
    /// *clean*: a pool charge, with the bytes left where its home holds
    /// them ([`Icash::resident_delta`] finds them there).
    pub(crate) fn install_clean_delta(&mut self, id: VbId, len: usize, at: Ns) {
        if self.volatile.table.get(id).delta.is_some() {
            return;
        }
        self.make_room_for_delta(id, len, at);
        let charge = self.volatile.pool.alloc_delta(len);
        let vb = self.volatile.table.get_mut(id);
        vb.delta = Some(CachedDelta {
            payload: None,
            len: len as u32,
            charge: charge as u32,
        });
        self.volatile.table.set_resident(id, Resident::Delta, true);
    }

    /// The bytes of `id`'s resident delta, borrowed from wherever they are:
    /// its own payload while dirty, else the staged entry or the entry for
    /// the block in the log block its placement names. `None` if no delta
    /// is resident (or, an invariant violation, its home lacks the entry).
    pub(crate) fn resident_delta(&self, id: VbId) -> Option<&Delta> {
        let vb = self.volatile.table.get(id);
        let cached = vb.delta.as_ref()?;
        match vb.placement.delta_home()? {
            DeltaHome::Dirty => cached.payload.as_ref(),
            DeltaHome::Staged => self.volatile.staging.get(vb.lba),
            DeltaHome::Log(loc) => self.durable.log.entry(loc, vb.lba)?.delta(),
        }
    }

    /// Releases `id`'s resident delta, if any. Dropping a dirty one is the
    /// first step of replacing it ([`Icash::store_delta`],
    /// [`Icash::supersede_delta`]).
    pub(crate) fn drop_delta(&mut self, id: VbId) {
        let vb = self.volatile.table.get_mut(id);
        let Some(cached) = vb.delta.take() else {
            return;
        };
        let was_dirty = vb.placement.delta_home() == Some(DeltaHome::Dirty);
        let charge = cached.charge as usize;
        self.volatile.table.set_resident(id, Resident::Delta, false);
        self.volatile.pool.free(charge);
        if was_dirty {
            self.volatile.dirty.remove(&id.index());
            self.volatile.dirty_bytes -= charge;
        }
    }

    /// Invalidates `id`'s staged-but-uncommitted delta, if any: a newer
    /// write (or a direct SSD install) is superseding it before its group
    /// commit, so committing it would only append a dead entry.
    fn unstage(&mut self, id: VbId) {
        let vb = self.volatile.table.get(id);
        if vb.placement.delta_home() == Some(DeltaHome::Staged) {
            self.volatile.staging.invalidate(vb.lba);
        }
    }

    /// Releases `id`'s resident data block, if any.
    pub(crate) fn drop_data(&mut self, id: VbId) {
        let vb = self.volatile.table.get_mut(id);
        if vb.data.take().is_some() {
            let charge = std::mem::take(&mut vb.data_charge);
            self.volatile.table.set_resident(id, Resident::Data, false);
            self.volatile.pool.free(charge as usize);
        }
    }
}
