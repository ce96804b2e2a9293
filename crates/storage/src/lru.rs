//! The workspace's single LRU implementation.
//!
//! Historically the tree carried three parallel recency structures: an
//! intrusive index-linked list in the I-CASH controller, a
//! `HashMap`+`BTreeMap` tick map in the caching baselines, and another tick
//! map inside the driver's guest page cache. They are unified here:
//! [`LruList`] is the intrusive O(1) list (paper §4.3 keeps every virtual
//! block on it), and [`LruMap`] is a keyed map built *on top of* that same
//! list plus a slab — so every consumer shares one eviction-order
//! implementation and one set of invariants.
//!
//! With the `debug_validate` feature enabled, every mutating [`LruList`]
//! operation re-checks the full link structure ([`LruList::validate`]);
//! CI exercises this, release builds pay nothing.

const NONE: usize = usize::MAX;

/// An intrusive doubly-linked LRU list over external slab indices.
///
/// Slots must be grown before use ([`LruList::grow_to`]) and are identified
/// by their slab index. The *front* is the most recently used end.
///
/// # Examples
///
/// ```
/// use icash_storage::lru::LruList;
///
/// let mut lru = LruList::new();
/// for i in 0..3 {
///     lru.grow_to(i + 1);
///     lru.push_front(i);
/// }
/// lru.touch(0); // 0 becomes most recent
/// assert_eq!(lru.iter_front().collect::<Vec<_>>(), vec![0, 2, 1]);
/// assert_eq!(lru.tail(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct LruList {
    head: usize,
    tail: usize,
    prev: Vec<usize>,
    next: Vec<usize>,
    present: Vec<bool>,
    len: usize,
}

impl Default for LruList {
    /// Equivalent to [`LruList::new`]. (Head/tail use a sentinel value, so
    /// the derived all-zeroes `Default` would be corrupt.)
    fn default() -> Self {
        Self::new()
    }
}

impl LruList {
    /// Creates an empty list.
    pub fn new() -> Self {
        LruList {
            head: NONE,
            tail: NONE,
            prev: Vec::new(),
            next: Vec::new(),
            present: Vec::new(),
            len: 0,
        }
    }

    /// Ensures link storage exists for slab indices `< slots`.
    pub fn grow_to(&mut self, slots: usize) {
        if slots > self.prev.len() {
            self.prev.resize(slots, NONE);
            self.next.resize(slots, NONE);
            self.present.resize(slots, false);
        }
    }

    /// Entries currently on the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `idx` is currently on the list.
    pub fn contains(&self, idx: usize) -> bool {
        idx < self.present.len() && self.present[idx]
    }

    /// The most recently used entry.
    pub fn front(&self) -> Option<usize> {
        (self.head != NONE).then_some(self.head)
    }

    /// The least recently used entry.
    pub fn tail(&self) -> Option<usize> {
        (self.tail != NONE).then_some(self.tail)
    }

    /// The entry one step more recently used than `idx` (`None` at the
    /// front): a tail → front cursor that stays valid while entries behind
    /// it are removed.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not on the list.
    pub fn newer(&self, idx: usize) -> Option<usize> {
        assert!(self.contains(idx), "index {idx} not listed");
        let p = self.prev[idx];
        (p != NONE).then_some(p)
    }

    /// Inserts `idx` at the front (most recent).
    ///
    /// # Panics
    ///
    /// Panics if `idx` has no storage ([`LruList::grow_to`]) or is already
    /// on the list.
    pub fn push_front(&mut self, idx: usize) {
        assert!(idx < self.present.len(), "index {idx} not grown");
        assert!(!self.present[idx], "index {idx} already listed");
        self.present[idx] = true;
        self.prev[idx] = NONE;
        self.next[idx] = self.head;
        if self.head != NONE {
            self.prev[self.head] = idx;
        }
        self.head = idx;
        if self.tail == NONE {
            self.tail = idx;
        }
        self.len += 1;
        self.debug_validate();
    }

    /// Removes `idx` from the list.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not on the list.
    pub fn remove(&mut self, idx: usize) {
        assert!(self.contains(idx), "index {idx} not listed");
        let (p, n) = (self.prev[idx], self.next[idx]);
        if p != NONE {
            self.next[p] = n;
        } else {
            self.head = n;
        }
        if n != NONE {
            self.prev[n] = p;
        } else {
            self.tail = p;
        }
        self.present[idx] = false;
        self.prev[idx] = NONE;
        self.next[idx] = NONE;
        self.len -= 1;
        self.debug_validate();
    }

    /// Moves `idx` to the front (marks it most recently used).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not on the list.
    pub fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.remove(idx);
        self.push_front(idx);
    }

    /// Walks the whole list asserting link consistency — no cycles, prev
    /// pointers mirror next pointers, and the entry count matches `len`.
    ///
    /// # Panics
    ///
    /// Panics if the list is corrupted.
    pub fn validate(&self) {
        let mut count = 0usize;
        let mut cur = self.head;
        let mut prev = NONE;
        while cur != NONE {
            assert!(count < self.len, "cycle detected at index {cur}");
            assert!(self.present[cur], "unlisted index {cur} reachable");
            assert_eq!(self.prev[cur], prev, "broken prev link at {cur}");
            prev = cur;
            cur = self.next[cur];
            count += 1;
        }
        assert_eq!(count, self.len, "list length mismatch");
        assert_eq!(self.tail, prev, "tail pointer mismatch");
    }

    /// [`LruList::validate`] after every mutation when the `debug_validate`
    /// feature is on; free otherwise.
    #[inline]
    fn debug_validate(&self) {
        #[cfg(feature = "debug_validate")]
        self.validate();
    }

    /// Iterates from most recent to least recent.
    pub fn iter_front(&self) -> LruIter<'_> {
        LruIter {
            list: self,
            cur: self.head,
        }
    }
}

/// Iterator over LRU entries; see [`LruList::iter_front`].
#[derive(Debug)]
pub struct LruIter<'a> {
    list: &'a LruList,
    cur: usize,
}

impl Iterator for LruIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.cur == NONE {
            return None;
        }
        let item = self.cur;
        self.cur = self.list.next[item];
        Some(item)
    }
}

use crate::hash::AddrMap;
use std::hash::Hash;

/// A map with least-recently-used eviction order, built over [`LruList`].
///
/// Keys map to slab slots; the shared intrusive list tracks recency, so
/// every operation is O(1) (the old baseline implementation paid O(log n)
/// through a `BTreeMap` of recency ticks).
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
    list: LruList,
    index: AddrMap<K, usize>,
    slots: Vec<Option<(K, V)>>,
    free: Vec<usize>,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        LruMap {
            list: LruList::new(),
            index: AddrMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
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
            self.list.touch(slot);
            let (_, old) = self.slots[slot]
                .replace((key, value))
                .expect("indexed slot");
            return Some(old);
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.list.grow_to(self.slots.len());
                self.slots.len() - 1
            }
        };
        self.slots[slot] = Some((key.clone(), value));
        self.index.insert(key, slot);
        self.list.push_front(slot);
        None
    }

    /// Looks up `key`, marking it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &slot = self.index.get(key)?;
        self.list.touch(slot);
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
        self.list.touch(slot);
        self.slots[slot].as_mut().map(|(_, v)| v)
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.index.remove(key)?;
        self.list.remove(slot);
        self.free.push(slot);
        self.slots[slot].take().map(|(_, v)| v)
    }

    /// Removes and returns the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let slot = self.list.tail()?;
        self.list.remove(slot);
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
        self.list.iter_front().map(|slot| {
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

    fn filled(n: usize) -> LruList {
        let mut l = LruList::new();
        l.grow_to(n);
        for i in 0..n {
            l.push_front(i);
        }
        l
    }

    #[test]
    fn default_is_a_valid_empty_list() {
        let mut l = LruList::default();
        l.validate();
        assert_eq!(l.front(), None);
        assert_eq!(l.tail(), None);
        // Regression: the first insertion into a default list must not
        // self-link (head/tail use a sentinel, not zero).
        l.grow_to(1);
        l.push_front(0);
        l.validate();
        assert_eq!(l.front(), Some(0));
        assert_eq!(l.tail(), Some(0));
    }

    #[test]
    fn push_order_is_most_recent_first() {
        let l = filled(4);
        assert_eq!(l.iter_front().collect::<Vec<_>>(), vec![3, 2, 1, 0]);
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn touch_moves_to_front() {
        let mut l = filled(4);
        l.touch(1);
        assert_eq!(l.iter_front().collect::<Vec<_>>(), vec![1, 3, 2, 0]);
        l.touch(1); // touching the head is a no-op
        assert_eq!(l.front(), Some(1));
    }

    #[test]
    fn remove_middle_head_tail() {
        let mut l = filled(4);
        l.remove(2);
        assert_eq!(l.iter_front().collect::<Vec<_>>(), vec![3, 1, 0]);
        l.remove(3); // head
        assert_eq!(l.front(), Some(1));
        l.remove(0); // tail
        assert_eq!(l.tail(), Some(1));
        l.remove(1);
        assert!(l.is_empty());
        assert_eq!(l.front(), None);
        assert_eq!(l.tail(), None);
    }

    #[test]
    fn newer_walks_tail_to_front_across_removals() {
        let mut l = filled(4);
        let mut seen = Vec::new();
        let mut cur = l.tail();
        while let Some(i) = cur {
            cur = l.newer(i); // read before the entry goes away
            seen.push(i);
            if i % 2 == 0 {
                l.remove(i);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(l.iter_front().collect::<Vec<_>>(), vec![3, 1]);
    }

    #[test]
    fn reinsert_after_remove() {
        let mut l = filled(3);
        l.remove(1);
        assert!(!l.contains(1));
        l.push_front(1);
        assert!(l.contains(1));
        assert_eq!(l.front(), Some(1));
    }

    #[test]
    #[should_panic(expected = "already listed")]
    fn double_insert_panics() {
        let mut l = filled(2);
        l.push_front(0);
    }

    #[test]
    #[should_panic(expected = "not listed")]
    fn remove_absent_panics() {
        let mut l = LruList::new();
        l.grow_to(1);
        l.remove(0);
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
