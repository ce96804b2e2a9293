//! The workspace's single LRU implementation.
//!
//! [`StampLine`] orders slab slots by recency (paper §4.3 keeps every
//! virtual block on one LRU queue) and files them by class; [`LruMap`] is a
//! keyed map built on that same line plus a slab. The controller's block
//! table, the caching baselines and the driver's guest page cache all use
//! it, so they share one eviction-order implementation and one set of
//! invariants.

use crate::hash::AddrMap;
use std::hash::Hash;

/// Stamps the line may hand out beyond two per listed slot before it
/// renumbers: a renumber costs O(len) and comes at most once per
/// `len + RENUMBER_SLACK` stamps, so O(1) amortised.
const RENUMBER_SLACK: usize = 4096;

/// A set of stamps: one bit per stamp in `u64` words, and one summary bit
/// per word saying the word is not zero, so a successor or predecessor
/// query skips 4 096 absent stamps per summary word it reads.
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

    /// The greatest member below `s`: [`next_from`](Self::next_from)'s
    /// mirror.
    fn prev_before(&self, s: usize) -> Option<usize> {
        let s = s.min(self.words.len() * 64).checked_sub(1)?;
        let w = s / 64;
        let here = self.words[w] & (!0 >> (63 - s % 64));
        if here != 0 {
            return Some(w * 64 + 63 - here.leading_zeros() as usize);
        }
        // The last non-zero word before `w`, found by its summary bit.
        let w = w.checked_sub(1)?;
        let last = self.summary[w / 64] & (!0 >> (63 - w % 64));
        let (skipped, bits) = std::iter::once(last)
            .chain(self.summary[..w / 64].iter().rev().copied())
            .enumerate()
            .find(|&(_, bits)| bits != 0)?;
        let w = (w / 64 - skipped) * 64 + 63 - bits.leading_zeros() as usize;
        Some(w * 64 + 63 - self.words[w].leading_zeros() as usize)
    }

    /// The member `n` places above the least (0: the least itself),
    /// found a word's popcount at a time.
    fn nth(&self, mut n: usize) -> Option<usize> {
        let first = self.next_from(0)?;
        for (w, &word) in self.words.iter().enumerate().skip(first / 64) {
            let ones = word.count_ones() as usize;
            if n < ones {
                let mut bits = word;
                for _ in 0..n {
                    bits &= bits - 1;
                }
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            n -= ones;
        }
        None
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

/// Slab slots in recency order, each optionally filed in any of `N`
/// classes that can be enumerated in that order too.
///
/// Every [`insert`](Self::insert) and non-newest [`touch`](Self::touch)
/// hands the slot the next `u32` stamp, so ascending stamps are the
/// oldest → newest order; `owner` maps each stamp back to its slot. The
/// listed slots' stamps form one bitset and each class's another, so
/// "the next listed (or filed) slot after this one" is one successor query.
/// Stamps only grow: once the line holds `2·len + RENUMBER_SLACK` stamps
/// the next stamp renumbers every listed slot `0..len`, O(1) amortised.
///
/// Slots are the caller's slab indices. Every operation on a slot but
/// [`insert`](Self::insert) takes it to be listed: the caller's slab says
/// which are.
///
/// # Examples
///
/// ```
/// use icash_storage::lru::StampLine;
///
/// let mut line = StampLine::<1>::new();
/// for slot in 0..3 {
///     line.insert(slot);
/// }
/// line.touch(0); // 0 becomes the newest
/// line.set_class(2, 0, true);
/// assert_eq!(line.newest_first().collect::<Vec<_>>(), vec![0, 2, 1]);
/// assert_eq!(line.oldest(), Some(1));
/// assert_eq!(line.newer(1), Some(2));
/// assert_eq!(line.next_in_class(0, None), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct StampLine<const N: usize> {
    /// Per slab slot, the stamp it got at its last insert/touch.
    stamps: Vec<u32>,
    /// Stamp → slab slot, one entry per stamp handed out since the last
    /// renumber; `owner[stamps[i]] == i` for every listed slot, older
    /// entries are dead.
    owner: Vec<u32>,
    /// The stamps of every listed slot.
    live: StampSet,
    /// Per class, the stamps of every filed slot; a touch moves the slot's
    /// bits to its new stamp.
    classes: [StampSet; N],
    len: usize,
}

impl<const N: usize> Default for StampLine<N> {
    fn default() -> Self {
        StampLine {
            stamps: Vec::new(),
            owner: Vec::new(),
            live: StampSet::default(),
            classes: std::array::from_fn(|_| StampSet::default()),
            len: 0,
        }
    }
}

impl<const N: usize> StampLine<N> {
    /// Creates an empty line.
    pub fn new() -> Self {
        Self::default()
    }

    /// Listed slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is listed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stamps handed out since the last renumber (a renumber shortens it
    /// to [`len`](Self::len)).
    pub fn stamps_handed_out(&self) -> usize {
        self.owner.len()
    }

    /// Lists `slot` as the newest, in no class.
    pub fn insert(&mut self, slot: usize) {
        if slot >= self.stamps.len() {
            self.stamps.resize(slot + 1, 0);
        }
        // Stamped before it is listed: a renumber here must not read the
        // slot's stale stamp as a listed one.
        self.stamp(slot);
        self.live.insert(self.stamps[slot] as usize);
        self.len += 1;
    }

    /// Makes `slot` the newest, keeping its classes. Touching the newest
    /// hands out no stamp.
    pub fn touch(&mut self, slot: usize) {
        if self.stamps[slot] as usize + 1 == self.owner.len() {
            return;
        }
        let old = self.stamp(slot);
        let new = self.stamps[slot] as usize;
        for set in std::iter::once(&mut self.live).chain(&mut self.classes) {
            if set.remove(old) {
                set.insert(new);
            }
        }
    }

    /// Takes `slot` off the line and out of every class.
    pub fn remove(&mut self, slot: usize) {
        let s = self.stamps[slot] as usize;
        for set in std::iter::once(&mut self.live).chain(&mut self.classes) {
            set.remove(s);
        }
        self.len -= 1;
    }

    /// Hands `slot` the next stamp, renumbering first when the line is
    /// full, and returns the stamp it had (after any renumber).
    fn stamp(&mut self, slot: usize) -> usize {
        if self.owner.len() >= 2 * self.len + RENUMBER_SLACK {
            self.renumber();
        }
        let s = u32::try_from(self.owner.len()).expect("stamp beyond u32: over 2^31 slots");
        self.owner
            .push(u32::try_from(slot).expect("slab index beyond u32"));
        std::mem::replace(&mut self.stamps[slot], s) as usize
    }

    /// Restamps every listed slot `0..len` in order and rebuilds the sets
    /// on the new stamps. A slot's new stamp is at most its old one, so
    /// `owner` compacts in place.
    fn renumber(&mut self) {
        let live = std::mem::take(&mut self.live);
        let classes = std::mem::replace(
            &mut self.classes,
            std::array::from_fn(|_| StampSet::default()),
        );
        for (new, old) in live.iter().enumerate() {
            let slot = self.owner[old];
            self.owner[new] = slot;
            self.stamps[slot as usize] = new as u32;
            self.live.insert(new);
            for (set, was) in self.classes.iter_mut().zip(&classes) {
                if was.contains(old) {
                    set.insert(new);
                }
            }
        }
        self.owner.truncate(self.len);
    }

    /// The least recently used slot.
    pub fn oldest(&self) -> Option<usize> {
        self.owner_of(self.live.next_from(0))
    }

    /// The slot one step more recently used than `slot` (`None`: `slot` is
    /// the newest): an oldest → newest cursor that stays valid while slots
    /// behind it are removed.
    pub fn newer(&self, slot: usize) -> Option<usize> {
        self.owner_of(self.live.next_from(self.stamps[slot] as usize + 1))
    }

    /// The listed slot `n` positions more recently used than the oldest
    /// (0: the oldest), if that many are listed: a popcount over the stamps
    /// up to it.
    pub fn nth_oldest(&self, n: usize) -> Option<usize> {
        self.owner_of(self.live.nth(n))
    }

    /// Whether `a` was less recently used than `b`.
    pub fn is_older(&self, a: usize, b: usize) -> bool {
        self.stamps[a] < self.stamps[b]
    }

    /// Stamps handed out from `older`'s to `slot`'s: at least the number of
    /// slots listed between them, and free to ask — a bound on a walk's
    /// length in line positions that spares the popcount of
    /// [`nth_oldest`](Self::nth_oldest) while it is short. Both slots'
    /// stamps stay readable after they are removed, until a renumber.
    pub fn stamp_distance(&self, older: usize, slot: usize) -> usize {
        (self.stamps[slot] as usize).saturating_sub(self.stamps[older] as usize)
    }

    /// Listed slots from most to least recently used.
    pub fn newest_first(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.live.prev_before(self.owner.len()), |&s| {
            self.live.prev_before(s)
        })
        .map(|s| self.owner[s] as usize)
    }

    /// Files `slot` in (`on`) or out of `class`; leaves its recency alone.
    pub fn set_class(&mut self, slot: usize, class: usize, on: bool) {
        let s = self.stamps[slot] as usize;
        if on {
            self.classes[class].insert(s);
        } else {
            self.classes[class].remove(s);
        }
    }

    /// Whether `slot` is filed in `class`.
    pub fn in_class(&self, slot: usize, class: usize) -> bool {
        self.classes[class].contains(self.stamps[slot] as usize)
    }

    /// The least recently used slot in `class` among those more recently
    /// used than `after` (`None`: among all) — so feeding each answer back
    /// in enumerates the class oldest → newest, whether or not the caller
    /// files them out on the way. A walk passes each answer back with no
    /// `insert` or `touch` in between: those are where stamps move.
    pub fn next_in_class(&self, class: usize, after: Option<usize>) -> Option<usize> {
        let from = after.map_or(0, |slot| self.stamps[slot] as usize + 1);
        self.owner_of(self.classes[class].next_from(from))
    }

    fn owner_of(&self, stamp: Option<usize>) -> Option<usize> {
        stamp.map(|s| self.owner[s] as usize)
    }

    /// Asserts internal consistency: each listed stamp names a slot that
    /// holds it, `len` counts them, and every class member is listed.
    ///
    /// # Panics
    ///
    /// Panics if the line is corrupted.
    pub fn validate(&self) {
        self.live.validate();
        let mut listed = 0;
        for s in self.live.iter() {
            let slot = self.owner.get(s).map(|&i| i as usize);
            let stamp = slot.and_then(|i| self.stamps.get(i)).copied();
            assert_eq!(stamp, Some(s as u32), "stamp {s} names no slot holding it");
            listed += 1;
        }
        assert_eq!(listed, self.len, "listed count");
        for set in &self.classes {
            set.validate();
            for s in set.iter() {
                assert!(
                    self.live.contains(s),
                    "class bit {s} belongs to no listed slot"
                );
            }
        }
    }
}

/// A map with least-recently-used eviction order, built over a
/// [`StampLine`].
///
/// Keys map to slab slots; the line tracks recency, so every operation is
/// O(1) amortised (the old baseline implementation paid O(log n) through a
/// `BTreeMap` of recency ticks).
///
/// # Examples
///
/// ```
/// use icash_storage::lru::LruMap;
///
/// let mut cache: LruMap<&str, u32> = LruMap::new();
/// cache.insert("a", 1);
/// cache.insert("b", 2);
/// cache.get(&"a"); // refresh "a"
/// assert_eq!(cache.pop_lru(), Some(("b", 2)));
/// ```
#[derive(Debug, Clone)]
pub struct LruMap<K, V> {
    index: AddrMap<K, usize>,
    slots: Vec<Option<(K, V)>>,
    free: Vec<usize>,
    line: StampLine<0>,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        LruMap {
            index: AddrMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            line: StampLine::new(),
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `key` is present (does not refresh recency).
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Inserts or replaces `key`, marking it most recently used. Returns
    /// the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&slot) = self.index.get(&key) {
            self.line.touch(slot);
            let (_, old) = self.slots[slot]
                .replace((key, value))
                .expect("indexed slot");
            return Some(old);
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.slots[slot] = Some((key.clone(), value));
        self.index.insert(key, slot);
        self.line.insert(slot);
        None
    }

    /// Looks up `key`, marking it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &slot = self.index.get(key)?;
        self.line.touch(slot);
        self.slots[slot].as_ref().map(|(_, v)| v)
    }

    /// Looks up `key` without refreshing recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let &slot = self.index.get(key)?;
        self.slots[slot].as_ref().map(|(_, v)| v)
    }

    /// Mutable lookup, marking the entry most recently used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let &slot = self.index.get(key)?;
        self.line.touch(slot);
        self.slots[slot].as_mut().map(|(_, v)| v)
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.index.remove(key)?;
        self.line.remove(slot);
        self.free.push(slot);
        self.slots[slot].take().map(|(_, v)| v)
    }

    /// Removes and returns the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let slot = self.line.oldest()?;
        self.line.remove(slot);
        self.free.push(slot);
        let (key, value) = self.slots[slot].take().expect("listed slot");
        self.index.remove(&key);
        Some((key, value))
    }

    /// Iterates over entries in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (k, v)))
    }

    /// Iterates over entries from most to least recently used.
    pub fn iter_recent(&self) -> impl Iterator<Item = (&K, &V)> {
        self.line.newest_first().map(|slot| {
            let (k, v) = self.slots[slot].as_ref().expect("listed slot");
            (k, v)
        })
    }
}

impl<K: Eq + Hash + Clone, V> Default for LruMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Predecessor queries at the same edges, from above the last word
    /// down to zero, and as members leave from the top.
    #[test]
    fn stamp_set_predecessor_crosses_word_and_summary_boundaries() {
        let mut set = StampSet::default();
        assert_eq!(set.prev_before(usize::MAX), None, "empty");
        let last = 3 * 4096 + 70;
        let members = [0, 63, 64, 4095, 4096, last];
        for s in members {
            set.insert(s);
        }
        for before in 0..=last + 64 {
            let want = members.iter().copied().rfind(|&m| m < before);
            assert_eq!(set.prev_before(before), want, "before {before}");
        }
        assert_eq!(set.prev_before(usize::MAX), Some(last));
        for (i, s) in members.into_iter().enumerate().rev() {
            assert!(set.remove(s));
            let want = i.checked_sub(1).map(|j| members[j]);
            assert_eq!(set.prev_before(usize::MAX), want);
        }
    }

    /// A touch of the newest is no move and hands out no stamp.
    #[test]
    fn touching_the_newest_hands_out_no_stamp() {
        let mut line = StampLine::<0>::new();
        line.insert(0);
        line.insert(1);
        line.touch(1);
        assert_eq!(line.stamps_handed_out(), 2);
        line.touch(0);
        assert_eq!(line.stamps_handed_out(), 3);
        line.validate();
    }

    #[test]
    fn map_eviction_order_follows_use() {
        let mut m = LruMap::new();
        m.insert(1, "a");
        m.insert(2, "b");
        m.insert(3, "c");
        m.get(&1);
        assert_eq!(m.pop_lru(), Some((2, "b")));
        assert_eq!(m.pop_lru(), Some((3, "c")));
        assert_eq!(m.pop_lru(), Some((1, "a")));
        assert_eq!(m.pop_lru(), None);
    }

    #[test]
    fn map_reinsert_refreshes_and_replaces() {
        let mut m = LruMap::new();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.insert(1, "a2"), Some("a"));
        assert_eq!(m.pop_lru(), Some((2, "b")));
        assert_eq!(m.peek(&1), Some(&"a2"));
    }

    #[test]
    fn map_peek_does_not_refresh() {
        let mut m = LruMap::new();
        m.insert(1, "a");
        m.insert(2, "b");
        m.peek(&1);
        assert_eq!(m.pop_lru(), Some((1, "a")));
    }

    #[test]
    fn map_remove_and_len() {
        let mut m = LruMap::new();
        m.insert(1, "a");
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(&1), Some("a"));
        assert!(m.is_empty());
        assert_eq!(m.remove(&1), None);
    }

    #[test]
    fn map_get_mut_updates_value() {
        let mut m = LruMap::new();
        m.insert(1, 10);
        *m.get_mut(&1).unwrap() += 5;
        assert_eq!(m.peek(&1), Some(&15));
    }

    #[test]
    fn map_reuses_slots_after_removal() {
        let mut m = LruMap::new();
        for i in 0..100 {
            m.insert(i, i);
            if i % 2 == 0 {
                m.pop_lru();
            }
        }
        // Slab never exceeds the peak live count by more than one growth.
        assert!(m.slots.len() <= 52, "slab leaked: {} slots", m.slots.len());
    }

    #[test]
    fn map_iter_recent_matches_pop_order() {
        let mut m = LruMap::new();
        for i in 0..5 {
            m.insert(i, ());
        }
        m.get(&2);
        let recent: Vec<i32> = m.iter_recent().map(|(k, _)| *k).collect();
        let mut pops = Vec::new();
        while let Some((k, _)) = m.pop_lru() {
            pops.push(k);
        }
        pops.reverse();
        assert_eq!(recent, pops);
    }
}
