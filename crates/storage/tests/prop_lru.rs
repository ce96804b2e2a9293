//! Property tests for the unified LRU layer.
//!
//! [`StampLine`] is checked against a `VecDeque` recency model, and
//! [`LruMap`] against an inline reimplementation of the *pre-unification*
//! baseline algorithm (`HashMap` of values + `BTreeMap` of recency ticks) —
//! proving the baselines' eviction order is unchanged by the migration to
//! the shared recency structure.

use icash_storage::lru::{LruMap, StampLine};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use std::collections::{BTreeMap, HashMap, VecDeque};

const SLOTS: usize = 8;

#[derive(Debug, Clone)]
enum ListOp {
    Insert(usize),
    Touch(usize),
    Remove(usize),
}

fn list_op() -> BoxedStrategy<ListOp> {
    prop_oneof![
        (0usize..SLOTS).prop_map(ListOp::Insert),
        (0usize..SLOTS).prop_map(ListOp::Touch),
        (0usize..SLOTS).prop_map(ListOp::Remove),
    ]
    .boxed()
}

/// The recency map exactly as `icash-baselines::lru_map` implemented it
/// before the unification: values keyed directly, order kept as a
/// `BTreeMap` of monotone ticks. Kept here as the behavioural oracle.
struct TickLruMap<K, V> {
    entries: HashMap<K, (V, u64)>,
    order: BTreeMap<u64, K>,
    tick: u64,
}

impl<K: std::hash::Hash + Eq + Clone, V> TickLruMap<K, V> {
    fn new() -> Self {
        TickLruMap {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
        }
    }

    fn refresh(&mut self, key: &K) {
        self.tick += 1;
        if let Some((_, t)) = self.entries.get_mut(key) {
            self.order.remove(t);
            *t = self.tick;
            self.order.insert(self.tick, key.clone());
        }
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.refresh(&key);
        match self.entries.get_mut(&key) {
            Some((v, _)) => Some(std::mem::replace(v, value)),
            None => {
                self.entries.insert(key.clone(), (value, self.tick));
                self.order.insert(self.tick, key);
                None
            }
        }
    }

    fn get(&mut self, key: &K) -> Option<&V> {
        self.refresh(key);
        self.entries.get(key).map(|(v, _)| v)
    }

    fn peek(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(v, _)| v)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        let (v, t) = self.entries.remove(key)?;
        self.order.remove(&t);
        Some(v)
    }

    fn pop_lru(&mut self) -> Option<(K, V)> {
        let (&t, key) = self.order.iter().next()?;
        let key = key.clone();
        self.order.remove(&t);
        let (v, _) = self.entries.remove(&key)?;
        Some((key, v))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u8, u16),
    Get(u8),
    Peek(u8),
    Remove(u8),
    PopLru,
}

fn map_op() -> BoxedStrategy<MapOp> {
    prop_oneof![
        (0u8..6, any::<u16>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (0u8..6).prop_map(MapOp::Get),
        (0u8..6).prop_map(MapOp::Peek),
        (0u8..6).prop_map(MapOp::Remove),
        Just(MapOp::PopLru),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Insert/touch/remove on a [`StampLine`] matches a `VecDeque` recency
    /// model (front = most recent) after every op: `validate`, the oldest
    /// and newest slot, each slot's `newer`, line position (`nth_oldest`,
    /// bounded by `stamp_distance`), and the newest-first order. A
    /// round is the history, then a quarter as many touches of the oldest
    /// slot (two slots made sure of first), so every round hands out
    /// stamps; rounds repeat until the line has renumbered three times.
    #[test]
    fn line_matches_vecdeque_model(ops in prop::collection::vec(list_op(), 1..64)) {
        let mut line = StampLine::<0>::new();
        let mut model: VecDeque<usize> = VecDeque::new();
        let round = ops.iter().map(Some).chain(std::iter::repeat_n(None, ops.len() / 4 + 1));
        let mut renumbers = 0;
        while renumbers < 3 {
            for op in round.clone() {
                let stamps_before = line.stamps_handed_out();
                match op {
                    Some(&ListOp::Insert(i)) => {
                        if !model.contains(&i) {
                            model.push_front(i);
                            line.insert(i);
                        }
                    }
                    Some(&ListOp::Touch(i)) => {
                        if model.contains(&i) {
                            model.retain(|&x| x != i);
                            model.push_front(i);
                            line.touch(i);
                        }
                    }
                    Some(&ListOp::Remove(i)) => {
                        if model.contains(&i) {
                            model.retain(|&x| x != i);
                            line.remove(i);
                        }
                    }
                    None => {
                        for i in 0..2 {
                            if !model.contains(&i) {
                                model.push_front(i);
                                line.insert(i);
                            }
                        }
                        let oldest = model.pop_back().expect("two slots");
                        model.push_front(oldest);
                        line.touch(oldest);
                    }
                }
                renumbers += usize::from(line.stamps_handed_out() < stamps_before);
                line.validate();
                prop_assert_eq!(line.len(), model.len());
                prop_assert_eq!(line.oldest(), model.back().copied());
                prop_assert_eq!(line.newest_first().next(), model.front().copied());
                let order: Vec<usize> = line.newest_first().collect();
                prop_assert_eq!(&order, &Vec::from(model.clone()));
                for (rank, &slot) in model.iter().enumerate() {
                    let want = rank.checked_sub(1).map(|newer| model[newer]);
                    prop_assert_eq!(line.newer(slot), want);
                    let position = model.len() - 1 - rank;
                    prop_assert_eq!(line.nth_oldest(position), Some(slot));
                    prop_assert!(line.stamp_distance(model[model.len() - 1], slot) >= position);
                    if let Some(newer) = want {
                        prop_assert!(line.is_older(slot, newer));
                    }
                }
                prop_assert_eq!(line.nth_oldest(model.len()), None);
            }
        }
    }
}

proptest! {
    /// [`LruMap`] agrees with the old tick-based baseline implementation on
    /// every return value and on the final eviction order.
    #[test]
    fn map_matches_old_baseline_impl(ops in prop::collection::vec(map_op(), 0..96)) {
        let mut new_map: LruMap<u8, u16> = LruMap::new();
        let mut old_map: TickLruMap<u8, u16> = TickLruMap::new();

        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(new_map.insert(k, v), old_map.insert(k, v));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(new_map.get(&k).copied(), old_map.get(&k).copied());
                }
                MapOp::Peek(k) => {
                    prop_assert_eq!(new_map.peek(&k).copied(), old_map.peek(&k).copied());
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(new_map.remove(&k), old_map.remove(&k));
                }
                MapOp::PopLru => {
                    prop_assert_eq!(new_map.pop_lru(), old_map.pop_lru());
                }
            }
            prop_assert_eq!(new_map.len(), old_map.len());
        }

        // Drain both: identical eviction order, oldest first.
        loop {
            let (a, b) = (new_map.pop_lru(), old_map.pop_lru());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// `iter_recent` always lists entries most-recent-first, agreeing with
    /// the reverse of the eviction order.
    #[test]
    fn map_iter_recent_is_reverse_eviction_order(
        ops in prop::collection::vec(map_op(), 0..64),
    ) {
        let mut map: LruMap<u8, u16> = LruMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    map.insert(k, v);
                }
                MapOp::Get(k) => {
                    map.get(&k);
                }
                MapOp::Peek(k) => {
                    map.peek(&k);
                }
                MapOp::Remove(k) => {
                    map.remove(&k);
                }
                MapOp::PopLru => {
                    map.pop_lru();
                }
            }
        }
        let recent: Vec<u8> = map.iter_recent().map(|(k, _)| *k).collect();
        let mut evictions: Vec<u8> = Vec::new();
        while let Some((k, _)) = map.pop_lru() {
            evictions.push(k);
        }
        evictions.reverse();
        prop_assert_eq!(recent, evictions);
    }
}
