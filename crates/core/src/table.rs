//! The virtual-block table: slab + address map + one stamp line.
//!
//! Owns every [`VirtualBlock`] the controller tracks, addressable by LBA in
//! O(1), ordered by recency for the scanner (head) and the replacement
//! policies (tail) — which only want the few blocks that hold RAM, so those
//! are filed by class on the same line, in LRU order
//! ([`BlockTable::next_resident`]). The table trim wants only the blocks it
//! may evict, filed the same way ([`BlockTable::next_evictable`]).

use crate::virtual_block::{Placement, Role, VirtualBlock};
use icash_storage::block::Lba;
use icash_storage::hash::AddrPages;
use icash_storage::lru::StampLine;

/// What a tracked block can hold in the RAM pool; one residency set each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resident {
    /// A cached full data block ([`VirtualBlock::data`]).
    Data,
    /// A cached delta ([`VirtualBlock::delta`]), dirty or clean.
    Delta,
}

/// The line class of the blocks [`VirtualBlock::evictable`] allows, after
/// the [`Resident`] classes.
const EVICTABLE: usize = 2;

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
    /// LBA → slab index, filed by page: a log fetch's walk and the trim
    /// look up runs of neighbouring addresses.
    by_lba: AddrPages<u32>,
    /// Every tracked block in LRU order, each filed by the [`Resident`]
    /// classes it holds, and in [`EVICTABLE`] while it is. Whatever can
    /// change evictability — the role, the dependant count — goes through
    /// a method here that refiles the block.
    line: StampLine<3>,
    /// Incremental (references, associates, independents) census,
    /// maintained at insert/remove/[`set_placement`](Self::set_placement) so
    /// `Icash::stats` never walks the table. Cross-checked against a full
    /// scan by [`validate`](Self::validate).
    role_counts: (u64, u64, u64),
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
        let (lba, evictable) = (vb.lba, vb.evictable());
        *self.count_mut(vb.placement.role()) += 1;
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(vb);
                i
            }
            None => {
                self.slots.push(Some(vb));
                self.slots.len() - 1
            }
        };
        let slab = u32::try_from(idx).expect("slab index beyond u32");
        let tracked = self.by_lba.insert(lba, slab);
        assert!(tracked.is_none(), "lba {lba} already tracked");
        self.line.insert(idx);
        self.line.set_class(idx, EVICTABLE, evictable);
        VbId(idx)
    }

    /// The handle for `lba`, if tracked.
    pub fn lookup(&self, lba: Lba) -> Option<VbId> {
        self.by_lba.get(lba).map(|&idx| VbId(idx as usize))
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

    /// `id`'s slab index, which the line has listed.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    fn listed(&self, id: VbId) -> usize {
        assert!(self.slots[id.0].is_some(), "stale VbId");
        id.0
    }

    /// Marks a block most recently used.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn touch(&mut self, id: VbId) {
        self.line.touch(self.listed(id));
    }

    /// Removes a block and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn remove(&mut self, id: VbId) -> VirtualBlock {
        let vb = self.slots[id.0].take().expect("stale VbId");
        *self.count_mut(vb.placement.role()) -= 1;
        self.by_lba.remove(vb.lba);
        self.line.remove(id.0);
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
        self.refile(id);
        old
    }

    /// Sets how many associates decode against `id`, refiling it as
    /// evictable or not. (Writing `vb.dependants` directly through
    /// [`get_mut`](Self::get_mut) would leave the class stale;
    /// [`validate`](Self::validate) catches that.)
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn set_dependants(&mut self, id: VbId, dependants: u32) {
        self.get_mut(id).dependants = dependants;
        self.refile(id);
    }

    /// Files `id` in [`EVICTABLE`] iff it is evictable.
    fn refile(&mut self, id: VbId) {
        let evictable = self.get(id).evictable();
        self.line.set_class(id.0, EVICTABLE, evictable);
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
        self.line.newest_first().take(limit).map(VbId).collect()
    }

    /// The block one step more recently used than `after` (`None`: the
    /// least recently used of all): a tail → head cursor. Step past a block
    /// before removing it.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn newer(&self, after: Option<VbId>) -> Option<VbId> {
        match after {
            None => self.line.oldest(),
            Some(id) => self.line.newer(self.listed(id)),
        }
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
        self.line.set_class(self.listed(id), class as usize, on);
    }

    /// Whether the index has `id` down as holding `class`.
    pub fn is_resident(&self, id: VbId, class: Resident) -> bool {
        self.slots[id.0].is_some() && self.line.in_class(id.0, class as usize)
    }

    /// The least recently used block holding `class` among those more
    /// recently used than `after` (`None`: among all) — so feeding each
    /// answer back in enumerates the holders in the LRU's tail → head
    /// order, whether or not the caller drops them on the way. A walk
    /// passes each answer back with no `insert` or `touch` in between:
    /// those are where stamps move.
    pub fn next_resident(&self, class: Resident, after: Option<VbId>) -> Option<VbId> {
        self.line
            .next_in_class(class as usize, after.map(|id| id.0))
            .map(VbId)
    }

    /// The least recently used evictable block among those more recently
    /// used than `after` (`None`: among all): the trim's cursor, with
    /// [`next_resident`](Self::next_resident)'s contract.
    pub fn next_evictable(&self, after: Option<VbId>) -> Option<VbId> {
        self.line
            .next_in_class(EVICTABLE, after.map(|id| id.0))
            .map(VbId)
    }

    /// The block `n` positions more recently used than the least recently
    /// used (0: that block), if that many are tracked.
    pub fn nth_oldest(&self, n: usize) -> Option<VbId> {
        self.line.nth_oldest(n).map(VbId)
    }

    /// Whether `a` was less recently used than `b`.
    ///
    /// # Panics
    ///
    /// Panics if either handle is stale.
    pub fn is_older(&self, a: VbId, b: VbId) -> bool {
        self.line.is_older(self.listed(a), self.listed(b))
    }

    /// A bound, free to compute, on how many blocks lie between `older`
    /// and `id` in LRU order, at least their number. Either may have left
    /// the table since it was handed out (the trim's first victim), as long
    /// as no block was inserted or touched meanwhile; no slab load checks
    /// them.
    pub fn stamp_distance(&self, older: VbId, id: VbId) -> usize {
        self.line.stamp_distance(older.0, id.0)
    }

    /// Asserts internal consistency (tests/debugging).
    ///
    /// # Panics
    ///
    /// Panics if the stamp line or the address map is corrupted.
    pub fn validate(&self) {
        self.line.validate();
        self.by_lba.validate();
        assert_eq!(self.line.len(), self.by_lba.len(), "map/line size mismatch");
        // (Hash order; asserts only.)
        for (lba, &idx) in self.by_lba.iter() {
            assert_eq!(
                self.slots[idx as usize].as_ref().map(|vb| vb.lba),
                Some(lba),
                "map points at wrong slot"
            );
        }
        // As many listed slots as mapped ones, each one of them, filed as
        // evictable iff it is.
        for idx in self.line.newest_first() {
            let vb = self.slots[idx].as_ref();
            let mapped = vb.and_then(|vb| self.lookup(vb.lba));
            assert_eq!(mapped, Some(VbId(idx)), "listed slot {idx} is not tracked");
            assert_eq!(
                self.line.in_class(idx, EVICTABLE),
                vb.is_some_and(VirtualBlock::evictable),
                "slot {idx}: evictable class is stale"
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virtual_block::DeltaHome;
    use icash_delta::signature::BlockSignature;
    use proptest::prelude::*;
    use std::collections::HashSet;

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

    #[test]
    #[should_panic(expected = "stale VbId")]
    fn stale_cursor_panics() {
        let mut t = BlockTable::new();
        let a = t.insert(vb(1));
        t.insert(vb(2));
        t.remove(a);
        let _ = t.newer(Some(a));
    }

    /// A page of slab indices is one 64-byte line plus its occupancy mask;
    /// a page of eviction records is sixteen 24-byte placements plus the
    /// mask. Each bucket adds its 8-byte page number.
    #[test]
    fn address_pages_stay_68_and_392_bytes() {
        assert_eq!(AddrPages::<u32>::PAGE_BYTES, 68);
        assert_eq!(std::mem::size_of::<Placement>(), 24);
        assert_eq!(AddrPages::<Placement>::PAGE_BYTES, 392);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Touch-heavy histories over at most 24 blocks, replayed until the
        /// table has renumbered at least three times: the residency index
        /// still enumerates each class's holders as the full LRU walk
        /// filtered by who holds what does, with `validate` after every op.
        #[test]
        fn residency_index_survives_renumbering(
            ops in prop::collection::vec((0u64..24, 0u8..12, any::<u16>()), 64..256),
        ) {
            const CLASSES: [Resident; 2] = [Resident::Data, Resident::Delta];
            let mut t = BlockTable::new();
            let mut holds: HashSet<(u64, usize)> = HashSet::new();
            let oracle = |t: &BlockTable, holds: &HashSet<(u64, usize)>, c| {
                let mut ids = t.head_ids(usize::MAX);
                ids.reverse();
                ids.retain(|&id| holds.contains(&(t.get(id).lba.raw(), c)));
                ids
            };
            // A round is the history, then a quarter as many touches of the
            // tail (`None`; two blocks made sure of first): every round
            // hands out stamps, whatever the history does.
            let round = ops.iter().map(Some).chain(std::iter::repeat_n(None, ops.len() / 4));
            let mut renumbers = 0;
            while renumbers < 3 {
                for op in round.clone() {
                    let stamps_before = t.line.stamps_handed_out();
                    let Some(&(lba, kind, bits)) = op else {
                        for lba in 0..2 {
                            if t.lookup(Lba::new(lba)).is_none() {
                                t.insert(vb(lba));
                            }
                        }
                        t.touch(t.newer(None).expect("two blocks"));
                        renumbers += usize::from(t.line.stamps_handed_out() < stamps_before);
                        t.validate();
                        continue;
                    };
                    let c = (bits & 1) as usize;
                    match (kind, t.lookup(Lba::new(lba))) {
                        (0..=1, None) => {
                            t.insert(vb(lba));
                        }
                        (2, Some(id)) => {
                            t.remove(id);
                            holds.retain(|&(l, _)| l != lba);
                        }
                        (3..=7, Some(id)) => t.touch(id),
                        (8..=9, Some(id)) => {
                            t.set_resident(id, CLASSES[c], true);
                            holds.insert((lba, c));
                        }
                        (10, Some(id)) => {
                            t.set_resident(id, CLASSES[c], false);
                            holds.remove(&(lba, c));
                        }
                        (11, _) => {
                            let want = oracle(&t, &holds, c);
                            let mut got = Vec::new();
                            let mut last = None;
                            while let Some(id) = t.next_resident(CLASSES[c], last) {
                                if bits >> (got.len() % 15 + 1) & 1 == 1 {
                                    t.set_resident(id, CLASSES[c], false);
                                    holds.remove(&(t.get(id).lba.raw(), c));
                                }
                                got.push(id);
                                last = Some(id);
                            }
                            assert_eq!(got, want);
                        }
                        _ => {}
                    }
                    renumbers += usize::from(t.line.stamps_handed_out() < stamps_before);
                    t.validate();
                    for id in t.head_ids(usize::MAX) {
                        for (c, &class) in CLASSES.iter().enumerate() {
                            let held = holds.contains(&(t.get(id).lba.raw(), c));
                            assert_eq!(t.is_resident(id, class), held);
                        }
                    }
                }
            }
            for (c, &class) in CLASSES.iter().enumerate() {
                let got: Vec<_> = std::iter::successors(t.next_resident(class, None), |&id| {
                    t.next_resident(class, Some(id))
                })
                .collect();
                assert_eq!(got, oracle(&t, &holds, c));
            }
        }
    }
}
