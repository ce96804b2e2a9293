//! Sub-signature index over the current reference set.
//!
//! When a write (or the scanner) needs a reference candidate for a block,
//! scanning every reference with the similarity filter would be O(refs).
//! This index buckets references by each of their 8 sub-signature values;
//! a lookup counts "votes" (matching sub-signatures) and returns the
//! highest-voted candidates, which is exactly signature distance inverted.

use icash_delta::signature::{BlockSignature, SUB_BLOCKS};
use icash_storage::block::Lba;
use std::collections::HashMap;

/// Index from sub-signature values to the references bearing them.
///
/// # Examples
///
/// ```
/// use icash_core::ref_index::RefIndex;
/// use icash_delta::signature::BlockSignature;
/// use icash_storage::block::Lba;
///
/// let mut index = RefIndex::new();
/// let sig = BlockSignature::from_raw([1, 2, 3, 4, 5, 6, 7, 8]);
/// index.insert(Lba::new(10), &sig);
///
/// // A near-identical signature finds the reference.
/// let near = BlockSignature::from_raw([1, 2, 3, 4, 5, 6, 7, 9]);
/// let hits = index.candidates(&near, 4, 4);
/// assert_eq!(hits, vec![Lba::new(10)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RefIndex {
    buckets: HashMap<(u8, u8), Vec<Lba>>,
    refs: usize,
}

impl RefIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// References currently indexed.
    pub fn len(&self) -> usize {
        self.refs
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.refs == 0
    }

    /// Indexes a reference under each of its sub-signatures.
    pub fn insert(&mut self, lba: Lba, sig: &BlockSignature) {
        for (row, &v) in sig.sub_signatures().iter().enumerate() {
            self.buckets.entry((row as u8, v)).or_default().push(lba);
        }
        self.refs += 1;
    }

    /// Removes a reference (must be removed with the same signature it was
    /// inserted under).
    pub fn remove(&mut self, lba: Lba, sig: &BlockSignature) {
        for (row, &v) in sig.sub_signatures().iter().enumerate() {
            if let Some(bucket) = self.buckets.get_mut(&(row as u8, v)) {
                bucket.retain(|&l| l != lba);
                if bucket.is_empty() {
                    self.buckets.remove(&(row as u8, v));
                }
            }
        }
        self.refs = self.refs.saturating_sub(1);
    }

    /// The references sharing at least `min_votes` sub-signatures with
    /// `sig`, best first, at most `limit` of them.
    pub fn candidates(&self, sig: &BlockSignature, min_votes: usize, limit: usize) -> Vec<Lba> {
        // A reference's votes are its occurrences across the matching
        // buckets: gather them, sort, and count runs.
        let matching = sig
            .sub_signatures()
            .iter()
            .enumerate()
            .filter_map(|(row, &v)| self.buckets.get(&(row as u8, v)));
        let mut voters: Vec<Lba> = Vec::with_capacity(matching.clone().map(Vec::len).sum());
        for bucket in matching {
            voters.extend_from_slice(bucket);
        }
        voters.sort_unstable();
        let mut ranked: Vec<(Lba, usize)> = voters
            .chunk_by(|a, b| a == b)
            .filter(|run| run.len() >= min_votes)
            .map(|run| (run[0], run.len()))
            .collect();
        // Best (most votes) first; the runs came out in LBA order and the
        // sort is stable, so LBA breaks ties deterministically.
        ranked.sort_by_key(|&(_, votes)| std::cmp::Reverse(votes));
        ranked.truncate(limit);
        ranked.into_iter().map(|(lba, _)| lba).collect()
    }

    /// Convenience: the single best candidate with at least `min_votes`
    /// matching sub-signatures.
    pub fn best(&self, sig: &BlockSignature, min_votes: usize) -> Option<Lba> {
        self.candidates(sig, min_votes, 1).into_iter().next()
    }
}

/// A sanity bound: votes can never exceed the number of sub-blocks.
pub const MAX_VOTES: usize = SUB_BLOCKS;

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(v: [u8; 8]) -> BlockSignature {
        BlockSignature::from_raw(v)
    }

    #[test]
    fn exact_match_wins_over_partial() {
        let mut idx = RefIndex::new();
        idx.insert(Lba::new(1), &sig([1, 1, 1, 1, 1, 1, 1, 1]));
        idx.insert(Lba::new(2), &sig([1, 1, 1, 1, 9, 9, 9, 9]));
        let hits = idx.candidates(&sig([1; 8]), 1, 10);
        assert_eq!(hits[0], Lba::new(1), "8 votes beats 4");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn min_votes_filters_weak_matches() {
        let mut idx = RefIndex::new();
        idx.insert(Lba::new(1), &sig([1, 9, 9, 9, 9, 9, 9, 9]));
        assert!(idx.candidates(&sig([1; 8]), 2, 10).is_empty());
        assert_eq!(idx.candidates(&sig([1; 8]), 1, 10), vec![Lba::new(1)]);
    }

    #[test]
    fn remove_unindexes() {
        let mut idx = RefIndex::new();
        let s = sig([3; 8]);
        idx.insert(Lba::new(5), &s);
        assert_eq!(idx.len(), 1);
        idx.remove(Lba::new(5), &s);
        assert!(idx.is_empty());
        assert!(idx.best(&s, 1).is_none());
    }

    #[test]
    fn ties_break_by_lba() {
        let mut idx = RefIndex::new();
        idx.insert(Lba::new(9), &sig([2; 8]));
        idx.insert(Lba::new(3), &sig([2; 8]));
        let hits = idx.candidates(&sig([2; 8]), 8, 10);
        assert_eq!(hits, vec![Lba::new(3), Lba::new(9)]);
    }

    /// `candidates` as it was: votes counted in a per-call `HashMap`.
    /// Kept as the oracle for the result and its order.
    fn candidates_by_hash_map(
        index: &RefIndex,
        sig: &BlockSignature,
        min_votes: usize,
        limit: usize,
    ) -> Vec<Lba> {
        let mut votes: HashMap<Lba, usize> = HashMap::new();
        for (row, &v) in sig.sub_signatures().iter().enumerate() {
            if let Some(bucket) = index.buckets.get(&(row as u8, v)) {
                for &lba in bucket {
                    *votes.entry(lba).or_insert(0) += 1;
                }
            }
        }
        let mut ranked: Vec<(Lba, usize)> =
            votes.into_iter().filter(|&(_, n)| n >= min_votes).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(limit);
        ranked.into_iter().map(|(lba, _)| lba).collect()
    }

    proptest::proptest! {
        /// Same candidates in the same order as the `HashMap` count, over
        /// signatures drawn from a small alphabet so that references share
        /// sub-signatures and tie on votes, with removals mixed in.
        #[test]
        fn candidates_equal_the_hash_map_count(
            refs in proptest::collection::vec(
                (0u64..40, proptest::collection::vec(0u8..3, 8..9)), 0..48),
            removed in proptest::collection::vec(0usize..48, 0..8),
            probe in proptest::collection::vec(0u8..3, 8..9),
            min_votes in 1usize..9,
            limit in 0usize..6,
        ) {
            let raw = |v: &[u8]| sig(v.try_into().expect("eight sub-signatures"));
            // One signature per LBA, as the controller maintains it.
            let mut by_lba: HashMap<u64, BlockSignature> = HashMap::new();
            let mut idx = RefIndex::new();
            for (lba, v) in &refs {
                if !by_lba.contains_key(lba) {
                    by_lba.insert(*lba, raw(v));
                    idx.insert(Lba::new(*lba), &raw(v));
                }
            }
            for i in removed {
                if let Some((lba, _)) = refs.get(i) {
                    if let Some(s) = by_lba.remove(lba) {
                        idx.remove(Lba::new(*lba), &s);
                    }
                }
            }
            let probe = raw(&probe);
            proptest::prop_assert_eq!(
                idx.candidates(&probe, min_votes, limit),
                candidates_by_hash_map(&idx, &probe, min_votes, limit)
            );
        }
    }

    #[test]
    fn no_votes_no_candidates() {
        let mut idx = RefIndex::new();
        idx.insert(Lba::new(1), &sig([1; 8]));
        assert!(idx.candidates(&sig([200; 8]), 1, 10).is_empty());
    }
}
