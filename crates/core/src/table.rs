//! The virtual-block table: slab + address map + LRU + residency index.
//!
//! Owns every [`VirtualBlock`] the controller tracks, addressable by LBA in
//! O(1), ordered by recency for the scanner (head) and the replacement
//! policies (tail) — which only want the few blocks that hold RAM, so those
//! are indexed by class, in LRU order ([`BlockTable::next_resident`]).

use crate::lru::LruList;
use crate::virtual_block::{Placement, Role, VirtualBlock};
use icash_storage::block::Lba;
use icash_storage::hash::AddrPages;

/// What a tracked block can hold in the RAM pool; one residency set each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resident {
    /// A cached full data block ([`VirtualBlock::data`]).
    Data,
    /// A cached delta ([`VirtualBlock::delta`]), dirty or clean.
    Delta,
}

/// Stamps the table may hand out beyond two per tracked block before it
/// renumbers: a renumber costs O(len) and comes at most once per
/// `len + RENUMBER_SLACK` stamps, so O(1) amortised.
const RENUMBER_SLACK: usize = 4096;

/// A set of stamps: one bit per stamp in `u64` words, and one summary bit
/// per word saying the word is not zero, so a successor query skips 4 096
/// absent stamps per summary word it reads.
#[derive(Debug, Clone, Default)]
struct StampSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl StampSet {
    fn contains(&self, s: usize) -> bool {
        self.words
            .get(s / 64)
            .is_some_and(|w| w >> (s % 64) & 1 == 1)
    }

    fn insert(&mut self, s: usize) {
        let w = s / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
            self.summary.resize(w / 64 + 1, 0);
        }
        self.words[w] |= 1 << (s % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    /// Takes `s` out; whether it was in.
    fn remove(&mut self, s: usize) -> bool {
        let w = s / 64;
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let bit = 1 << (s % 64);
        let was = *word & bit != 0;
        *word &= !bit;
        if *word == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        was
    }

    /// The least member at or above `s`.
    fn next_from(&self, s: usize) -> Option<usize> {
        let w = s / 64;
        let here = self.words.get(w)? & (!0 << (s % 64));
        if here != 0 {
            return Some(w * 64 + here.trailing_zeros() as usize);
        }
        // The first non-zero word past `w`, found by its summary bit.
        let w = w + 1;
        let first = self.summary.get(w / 64)? & (!0 << (w % 64));
        let (skipped, bits) = std::iter::once(first)
            .chain(self.summary[w / 64 + 1..].iter().copied())
            .enumerate()
            .find(|&(_, bits)| bits != 0)?;
        let w = (w / 64 + skipped) * 64 + bits.trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }

    /// Members in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_from(0), |&s| self.next_from(s + 1))
    }

    /// Asserts that the summary bits are exactly the non-zero words.
    fn validate(&self) {
        assert_eq!(
            self.summary.len(),
            self.words.len().div_ceil(64),
            "summary size"
        );
        for (w, &word) in self.words.iter().enumerate() {
            let flagged = self.summary[w / 64] >> (w % 64) & 1 == 1;
            assert_eq!(flagged, word != 0, "summary bit of word {w}");
        }
    }
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
    /// LBA → slab index, filed by page: a log fetch's walk and the trim
    /// look up runs of neighbouring addresses.
    by_lba: AddrPages<u32>,
    lru: LruList,
    /// Incremental (references, associates, independents) census,
    /// maintained at insert/remove/[`set_placement`](Self::set_placement) so
    /// `Icash::stats` never walks the table. Cross-checked against a full
    /// scan by [`validate`](Self::validate).
    role_counts: (u64, u64, u64),
    /// Per slab slot, the stamp the block got at its last insert/touch:
    /// ascending stamps are exactly the LRU's tail → head order.
    stamps: Vec<u32>,
    /// Stamp → slab index, one entry per stamp handed out since the last
    /// renumber; `owner[stamps[i]] == i` for every tracked block, older
    /// entries are dead.
    owner: Vec<u32>,
    /// Per [`Resident`] class, the stamps of every holder. A touch moves
    /// the block's bits to its new stamp.
    resident: [StampSet; 2],
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
        let lba = vb.lba;
        *self.count_mut(vb.placement.role()) += 1;
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(vb);
                i
            }
            None => {
                self.slots.push(Some(vb));
                self.stamps.push(0);
                self.slots.len() - 1
            }
        };
        let slab = u32::try_from(idx).expect("slab index beyond u32");
        let tracked = self.by_lba.insert(lba, slab);
        assert!(tracked.is_none(), "lba {lba} already tracked");
        // Stamped before it is listed: a renumber here must not read the
        // slot's stale stamp as a holder's.
        self.stamp(idx);
        self.lru.grow_to(self.slots.len());
        self.lru.push_front(idx);
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

    /// Marks a block most recently used.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn touch(&mut self, id: VbId) {
        assert!(self.slots[id.0].is_some(), "stale VbId");
        if self.lru.front() == Some(id.0) {
            return; // already the newest stamp
        }
        self.lru.touch(id.0);
        let old = self.stamp(id.0);
        let new = self.stamps[id.0] as usize;
        for set in &mut self.resident {
            if set.remove(old) {
                set.insert(new);
            }
        }
    }

    /// Hands `idx` the next stamp, renumbering first when the stamp line is
    /// full, and returns the stamp it had (after any renumber).
    fn stamp(&mut self, idx: usize) -> usize {
        if self.owner.len() >= 2 * self.lru.len() + RENUMBER_SLACK {
            self.renumber();
        }
        let s = u32::try_from(self.owner.len()).expect("stamp beyond u32: over 2^31 blocks");
        self.owner
            .push(u32::try_from(idx).expect("slab index beyond u32"));
        std::mem::replace(&mut self.stamps[idx], s) as usize
    }

    /// Restamps every listed block `0..len` in LRU order and rebuilds the
    /// residency sets on the new stamps.
    fn renumber(&mut self) {
        let len = self.lru.len();
        let mut resident: [StampSet; 2] = Default::default();
        self.owner.clear();
        self.owner.resize(len, 0);
        for (rank, idx) in self.lru.iter_front().enumerate() {
            let s = len - 1 - rank;
            for (new, old) in resident.iter_mut().zip(&self.resident) {
                if old.contains(self.stamps[idx] as usize) {
                    new.insert(s);
                }
            }
            self.stamps[idx] = s as u32;
            self.owner[s] = idx as u32;
        }
        self.resident = resident;
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
        self.by_lba.remove(vb.lba);
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
        let stamp = self.stamps[id.0] as usize;
        let set = &mut self.resident[class as usize];
        if on {
            set.insert(stamp);
        } else {
            set.remove(stamp);
        }
    }

    /// Whether the index has `id` down as holding `class`.
    pub fn is_resident(&self, id: VbId, class: Resident) -> bool {
        self.slots[id.0].is_some()
            && self.resident[class as usize].contains(self.stamps[id.0] as usize)
    }

    /// The least recently used block holding `class` among those more
    /// recently used than `after` (`None`: among all) — so feeding each
    /// answer back in enumerates the holders in the LRU's tail → head
    /// order, whether or not the caller drops them on the way. A walk
    /// passes each answer back with no `insert` or `touch` in between:
    /// those are where stamps move.
    pub fn next_resident(&self, class: Resident, after: Option<VbId>) -> Option<VbId> {
        let from = after.map_or(0, |id| self.stamps[id.0] as usize + 1);
        let stamp = self.resident[class as usize].next_from(from)?;
        Some(VbId(self.owner[stamp] as usize))
    }

    /// Asserts internal consistency (tests/debugging).
    ///
    /// # Panics
    ///
    /// Panics if the LRU links or the address map are corrupted.
    pub fn validate(&self) {
        self.lru.validate();
        self.by_lba.validate();
        assert_eq!(self.lru.len(), self.by_lba.len(), "map/list size mismatch");
        // (Hash order; asserts only.)
        for (lba, &idx) in self.by_lba.iter() {
            assert_eq!(
                self.slots[idx as usize].as_ref().map(|vb| vb.lba),
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
        // Stamps order the blocks as the list does, each names its block,
        // and every member of a residency set is a tracked block's stamp.
        let stamps = self.lru.iter_front().map(|i| self.stamps[i]);
        assert!(stamps.is_sorted_by(|a, b| a > b), "stamps out of LRU order");
        for idx in self.lru.iter_front() {
            let owner = self.owner.get(self.stamps[idx] as usize).copied();
            assert_eq!(owner, Some(idx as u32), "stamp of {idx} names another slot");
        }
        for set in &self.resident {
            set.validate();
            for s in set.iter() {
                let idx = self.owner.get(s).map(|&i| i as usize);
                let live = idx.filter(|&i| self.slots[i].is_some() && self.stamps[i] as usize == s);
                assert!(
                    live.is_some(),
                    "residency bit {s} belongs to no tracked block"
                );
            }
        }
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

    /// Successor queries at word (64) and summary-word (4 096) edges, over
    /// a stretch of summary words with no member, and past the last bit.
    #[test]
    fn stamp_set_successor_crosses_word_and_summary_boundaries() {
        let mut set = StampSet::default();
        assert_eq!(set.next_from(0), None, "empty");
        let last = 3 * 4096 + 70;
        let members = [0, 63, 64, 4095, 4096, last];
        for s in members {
            set.insert(s);
        }
        set.validate();
        for from in 0..=last + 64 {
            let want = members.iter().copied().find(|&m| m >= from);
            assert_eq!(set.next_from(from), want, "from {from}");
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), members);
        for (i, s) in members.into_iter().enumerate() {
            assert!(set.remove(s) && !set.remove(s));
            set.validate();
            assert_eq!(set.next_from(0), members.get(i + 1).copied());
        }
        assert!(!set.remove(last + 4096), "past the words");
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

    /// A touch of the head is no move and hands out no stamp.
    #[test]
    fn touching_the_head_hands_out_no_stamp() {
        let mut t = BlockTable::new();
        let a = t.insert(vb(1));
        let b = t.insert(vb(2));
        t.touch(b);
        assert_eq!(t.owner.len(), 2);
        t.touch(a);
        assert_eq!(t.owner.len(), 3);
        t.validate();
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
                    let stamps_before = t.owner.len();
                    let Some(&(lba, kind, bits)) = op else {
                        for lba in 0..2 {
                            if t.lookup(Lba::new(lba)).is_none() {
                                t.insert(vb(lba));
                            }
                        }
                        t.touch(t.newer(None).expect("two blocks"));
                        renumbers += usize::from(t.owner.len() < stamps_before);
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
                    renumbers += usize::from(t.owner.len() < stamps_before);
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
