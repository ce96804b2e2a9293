//! The virtual-block table: slab + address map + LRU + residency index.
//!
//! Owns every [`VirtualBlock`] the controller tracks, addressable by LBA in
//! O(1), ordered by recency for the scanner (head) and the replacement
//! policies (tail) — which only want the few blocks that hold RAM, so those
//! are indexed by class, in LRU order ([`BlockTable::next_resident`]).

use crate::lru::LruList;
use crate::virtual_block::{Placement, Role, VirtualBlock};
use icash_storage::block::Lba;
use icash_storage::hash::AddrMap;
use std::collections::BTreeMap;
use std::ops::Bound;

/// What a tracked block can hold in the RAM pool; one residency set each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resident {
    /// A cached full data block ([`VirtualBlock::data`]).
    Data,
    /// A cached delta ([`VirtualBlock::delta`]), dirty or clean.
    Delta,
}

/// Per-slab-slot recency bookkeeping behind the residency index.
#[derive(Debug, Clone, Copy, Default)]
struct Recency {
    /// Value of the table clock at the block's last insert/touch: ascending
    /// stamps are exactly the LRU's tail → head order.
    stamp: u64,
    /// Per [`Resident`] class, the stamp the block is filed under in the
    /// residency set (0: not a member). Never above `stamp`.
    filed: [u64; 2],
}

/// Stable handle to a virtual block in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VbId(usize);

impl VbId {
    /// The raw slab index.
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a raw slab index (crate-internal bookkeeping
    /// such as the dirty set).
    pub(crate) fn from_raw(index: usize) -> Self {
        VbId(index)
    }
}

/// Slab-backed table of virtual blocks with an LRU ordering.
///
/// # Examples
///
/// ```
/// use icash_core::table::BlockTable;
/// use icash_core::virtual_block::VirtualBlock;
/// use icash_delta::signature::BlockSignature;
/// use icash_storage::block::Lba;
///
/// let mut table = BlockTable::new();
/// let id = table.insert(VirtualBlock::independent(
///     Lba::new(9),
///     BlockSignature::from_raw([0; 8]),
/// ));
/// assert_eq!(table.get(id).lba, Lba::new(9));
/// assert_eq!(table.lookup(Lba::new(9)), Some(id));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlockTable {
    slots: Vec<Option<VirtualBlock>>,
    free: Vec<usize>,
    by_lba: AddrMap<Lba, usize>,
    lru: LruList,
    /// Incremental (references, associates, independents) census,
    /// maintained at insert/remove/[`set_placement`](Self::set_placement) so
    /// `Icash::stats` never walks the table. Cross-checked against a full
    /// scan by [`validate`](Self::validate).
    role_counts: (u64, u64, u64),
    /// Ticks at every insert/touch; see [`Recency::stamp`].
    clock: u64,
    recency: Vec<Recency>,
    /// Per [`Resident`] class, filed stamp (unique: the clock hands none
    /// out twice) → slab index of every holder. A touch moves the block's
    /// stamp but not its entry, so an entry may be filed *too early*, never
    /// too late; [`next_resident`](Self::next_resident) re-files those.
    resident: [BTreeMap<u64, usize>; 2],
}

impl BlockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> usize {
        self.by_lba.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.by_lba.is_empty()
    }

    /// Inserts a block, making it most recently used.
    ///
    /// # Panics
    ///
    /// Panics if the LBA is already tracked.
    pub fn insert(&mut self, vb: VirtualBlock) -> VbId {
        assert!(
            !self.by_lba.contains_key(&vb.lba),
            "lba {} already tracked",
            vb.lba
        );
        let lba = vb.lba;
        *self.count_mut(vb.placement.role()) += 1;
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(vb);
                i
            }
            None => {
                self.slots.push(Some(vb));
                self.recency.push(Recency::default());
                self.slots.len() - 1
            }
        };
        self.by_lba.insert(lba, idx);
        self.lru.grow_to(self.slots.len());
        self.lru.push_front(idx);
        self.stamp(idx);
        VbId(idx)
    }

    /// The handle for `lba`, if tracked.
    pub fn lookup(&self, lba: Lba) -> Option<VbId> {
        self.by_lba.get(&lba).copied().map(VbId)
    }

    /// Shared access to a block.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn get(&self, id: VbId) -> &VirtualBlock {
        self.slots[id.0].as_ref().expect("stale VbId")
    }

    /// Exclusive access to a block.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn get_mut(&mut self, id: VbId) -> &mut VirtualBlock {
        self.slots[id.0].as_mut().expect("stale VbId")
    }

    /// Marks a block most recently used.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn touch(&mut self, id: VbId) {
        assert!(self.slots[id.0].is_some(), "stale VbId");
        self.lru.touch(id.0);
        self.stamp(id.0);
    }

    fn stamp(&mut self, idx: usize) {
        self.clock += 1;
        self.recency[idx].stamp = self.clock;
    }

    /// Removes a block and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn remove(&mut self, id: VbId) -> VirtualBlock {
        self.set_resident(id, Resident::Data, false);
        self.set_resident(id, Resident::Delta, false);
        let vb = self.slots[id.0].take().expect("stale VbId");
        *self.count_mut(vb.placement.role()) -= 1;
        self.by_lba.remove(&vb.lba);
        self.lru.remove(id.0);
        self.free.push(id.0);
        vb
    }

    /// Moves a block to `placement` and returns the one it left, keeping
    /// the incremental role census exact. A move that can change the role
    /// must go through here (writing `vb.placement` directly through
    /// [`get_mut`](Self::get_mut) would desynchronize the census;
    /// [`validate`](Self::validate) catches that).
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn set_placement(&mut self, id: VbId, placement: Placement) -> Placement {
        let old = std::mem::replace(&mut self.get_mut(id).placement, placement);
        *self.count_mut(old.role()) -= 1;
        *self.count_mut(placement.role()) += 1;
        old
    }

    /// Current (references, associates, independents) counts, maintained
    /// incrementally — O(1), no table walk.
    pub fn role_counts(&self) -> (u64, u64, u64) {
        self.role_counts
    }

    fn count_mut(&mut self, role: Role) -> &mut u64 {
        match role {
            Role::Reference => &mut self.role_counts.0,
            Role::Associate => &mut self.role_counts.1,
            Role::Independent => &mut self.role_counts.2,
        }
    }

    /// Handles from most recently used to least, up to `limit`.
    pub fn head_ids(&self, limit: usize) -> Vec<VbId> {
        // `len` also bounds the walk should the list ever corrupt.
        let cap = limit.min(self.lru.len());
        self.lru.iter_front().take(cap).map(VbId).collect()
    }

    /// The block one step more recently used than `after` (`None`: the
    /// least recently used of all): a tail → head cursor. Step past a block
    /// before removing it.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn newer(&self, after: Option<VbId>) -> Option<VbId> {
        after
            .map_or(self.lru.tail(), |id| self.lru.newer(id.0))
            .map(VbId)
    }

    /// Records that `id` now holds (`on`) or no longer holds a `class`
    /// allocation. Leaves the block's recency alone; a no-op if the index
    /// already says so.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn set_resident(&mut self, id: VbId, class: Resident, on: bool) {
        assert!(self.slots[id.0].is_some(), "stale VbId");
        let Recency { stamp, filed } = &mut self.recency[id.0];
        let filed = &mut filed[class as usize];
        if on && *filed == 0 {
            *filed = *stamp;
            self.resident[class as usize].insert(*stamp, id.0);
        } else if !on && *filed != 0 {
            self.resident[class as usize].remove(filed);
            *filed = 0;
        }
    }

    /// Whether the index has `id` down as holding `class`.
    pub fn is_resident(&self, id: VbId, class: Resident) -> bool {
        self.recency[id.0].filed[class as usize] != 0
    }

    /// The least recently used block holding `class` among those more
    /// recently used than `after` (`None`: among all) — so feeding each
    /// answer back in enumerates the holders in the LRU's tail → head
    /// order, whether or not the caller drops them on the way. A walk
    /// starts at `None` and passes each answer back with no `touch` in
    /// between: entries below `after` are taken as already met.
    pub fn next_resident(&mut self, class: Resident, after: Option<VbId>) -> Option<VbId> {
        let set = &mut self.resident[class as usize];
        let mut from = after.map_or(0, |id| self.recency[id.0].stamp);
        loop {
            let (&filed, &idx) = set
                .range((Bound::Excluded(from), Bound::Unbounded))
                .next()?;
            let stamp = self.recency[idx].stamp;
            if filed == stamp {
                return Some(VbId(idx));
            }
            // Touched since it was filed: it belongs further up. Every
            // member really at or below `filed` has been met by now.
            set.remove(&filed);
            set.insert(stamp, idx);
            self.recency[idx].filed[class as usize] = stamp;
            from = filed;
        }
    }

    /// Asserts internal consistency (tests/debugging).
    ///
    /// # Panics
    ///
    /// Panics if the LRU links or the address map are corrupted.
    pub fn validate(&self) {
        self.lru.validate();
        assert_eq!(self.lru.len(), self.by_lba.len(), "map/list size mismatch");
        // (Hash order; asserts only.)
        for (&lba, &idx) in &self.by_lba {
            assert_eq!(
                self.slots[idx].as_ref().map(|vb| vb.lba),
                Some(lba),
                "map points at wrong slot"
            );
        }
        // Cross-check the incremental role census against a full scan.
        let mut scanned = (0u64, 0u64, 0u64);
        for vb in self.slots.iter().flatten() {
            match vb.placement.role() {
                Role::Reference => scanned.0 += 1,
                Role::Associate => scanned.1 += 1,
                Role::Independent => scanned.2 += 1,
            }
        }
        assert_eq!(
            self.role_counts, scanned,
            "incremental role counts diverged from the table contents"
        );
        // Stamps order the blocks as the list does, and each residency set
        // holds exactly the filed keys, none filed late.
        let stamps = self.lru.iter_front().map(|i| self.recency[i].stamp);
        assert!(stamps.is_sorted_by(|a, b| a > b), "stamps out of LRU order");
        for (class, set) in self.resident.iter().enumerate() {
            let filed = |i: usize| self.recency[i].filed[class];
            let members = (0..self.slots.len()).filter(|&i| filed(i) != 0).count();
            assert_eq!(members, set.len(), "residency set size mismatch");
            for (&key, &idx) in set {
                assert!(self.slots[idx].is_some(), "residency entry for a free slot");
                assert_eq!(key, filed(idx), "residency entry under the wrong key");
                assert!(key <= self.recency[idx].stamp, "residency entry filed late");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virtual_block::DeltaHome;
    use icash_delta::signature::BlockSignature;

    fn vb(lba: u64) -> VirtualBlock {
        VirtualBlock::independent(Lba::new(lba), BlockSignature::from_raw([0; 8]))
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = BlockTable::new();
        let a = t.insert(vb(1));
        let b = t.insert(vb(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(Lba::new(1)), Some(a));
        assert_eq!(t.lookup(Lba::new(3)), None);
        let gone = t.remove(a);
        assert_eq!(gone.lba, Lba::new(1));
        assert_eq!(t.lookup(Lba::new(1)), None);
        assert_eq!(t.len(), 1);
        let _ = b;
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut t = BlockTable::new();
        let a = t.insert(vb(1));
        t.remove(a);
        let b = t.insert(vb(2));
        assert_eq!(a.index(), b.index(), "freed slot must be reused");
    }

    #[test]
    fn lru_order_tracks_touches() {
        let mut t = BlockTable::new();
        let a = t.insert(vb(1));
        let b = t.insert(vb(2));
        let c = t.insert(vb(3));
        t.touch(a);
        let head: Vec<u64> = t
            .head_ids(3)
            .into_iter()
            .map(|id| t.get(id).lba.raw())
            .collect();
        assert_eq!(head, vec![1, 3, 2]);
        assert_eq!(t.newer(None), Some(b));
        assert_eq!(t.newer(Some(b)), Some(c));
        assert_eq!(t.newer(Some(a)), None);
    }

    #[test]
    fn role_census_tracks_transitions() {
        let mut t = BlockTable::new();
        let a = t.insert(vb(1));
        let b = t.insert(vb(2));
        assert_eq!(t.role_counts(), (0, 0, 2));
        let reference = Placement::Reference { slot: 0, own: None };
        let associate = Placement::Associate {
            reference: Lba::new(1),
            delta: DeltaHome::Dirty,
        };
        assert_eq!(t.set_placement(a, reference), Placement::Home);
        t.set_placement(b, associate);
        assert_eq!(t.role_counts(), (1, 1, 0));
        t.set_placement(b, associate); // same role
        assert_eq!(t.role_counts(), (1, 1, 0));
        assert_eq!(t.set_placement(b, Placement::Slot { slot: 1 }), associate);
        t.remove(b);
        assert_eq!(t.role_counts(), (1, 0, 0));
        t.validate();
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn validate_catches_raw_role_mutation() {
        let mut t = BlockTable::new();
        let a = t.insert(vb(1));
        // bypasses set_placement
        t.get_mut(a).placement = Placement::Reference { slot: 0, own: None };
        t.validate();
    }

    #[test]
    #[should_panic(expected = "already tracked")]
    fn duplicate_lba_rejected() {
        let mut t = BlockTable::new();
        t.insert(vb(1));
        t.insert(vb(1));
    }

    #[test]
    #[should_panic(expected = "stale VbId")]
    fn stale_handle_panics() {
        let mut t = BlockTable::new();
        let a = t.insert(vb(1));
        t.remove(a);
        let _ = t.get(a);
    }
}
