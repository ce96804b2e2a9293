//! Sub-signature index over the current reference set.
//!
//! When a write (or the scanner) needs a reference candidate for a block,
//! scanning every reference with the similarity filter would be O(refs).
//! This index buckets references by each of their 8 sub-signature values;
//! a lookup counts "votes" (matching sub-signatures) and returns the
//! highest-voted candidates, which is exactly signature distance inverted.

use icash_delta::signature::{BlockSignature, SUB_BLOCKS};
use icash_storage::block::Lba;
use std::cmp::Reverse;

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
#[derive(Debug, Clone)]
pub struct RefIndex {
    /// The indexed references. A reference's position here is what the
    /// buckets hold, so votes are counted in a flat array instead of being
    /// gathered and sorted; `None` is a position free for reuse.
    entries: Vec<Option<(Lba, BlockSignature)>>,
    free: Vec<u32>,
    /// One bucket per (sub-block row, sub-signature value), row-major.
    buckets: Vec<Vec<u32>>,
}

/// Values one sub-signature can take.
const SUB_VALUES: usize = 1 << u8::BITS;

/// The bucket each sub-signature of `sig` selects, one per row.
fn bucket_ids(sig: &BlockSignature) -> impl Iterator<Item = usize> + '_ {
    let subs = sig.sub_signatures().iter().enumerate();
    subs.map(|(row, &v)| row * SUB_VALUES + v as usize)
}

impl Default for RefIndex {
    fn default() -> Self {
        RefIndex {
            entries: Vec::new(),
            free: Vec::new(),
            buckets: vec![Vec::new(); SUB_BLOCKS * SUB_VALUES],
        }
    }
}

impl RefIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// References currently indexed.
    pub fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Indexes a reference under each of its sub-signatures.
    pub fn insert(&mut self, lba: Lba, sig: &BlockSignature) {
        let entry = Some((lba, *sig));
        let at = match self.free.pop() {
            Some(at) => {
                self.entries[at as usize] = entry;
                at
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        };
        for b in bucket_ids(sig) {
            self.buckets[b].push(at);
        }
    }

    /// Removes the reference indexed as `lba` under `sig`; anything else is
    /// not indexed and nothing is removed.
    pub fn remove(&mut self, lba: Lba, sig: &BlockSignature) {
        let entry = Some((lba, *sig));
        let first = bucket_ids(sig).next().expect("signatures have rows");
        let indexed = &self.buckets[first];
        let Some(&at) = indexed
            .iter()
            .find(|&&at| self.entries[at as usize] == entry)
        else {
            return;
        };
        for b in bucket_ids(sig) {
            let bucket = &mut self.buckets[b];
            let held = bucket.iter().position(|&other| other == at);
            bucket.swap_remove(held.expect("indexed under every row"));
        }
        self.entries[at as usize] = None;
        self.free.push(at);
    }

    /// The references sharing at least `min_votes` sub-signatures with
    /// `sig`, best first, at most `limit` of them.
    pub fn candidates(&self, sig: &BlockSignature, min_votes: usize, limit: usize) -> Vec<Lba> {
        // A reference's votes are its occurrences across the matching
        // buckets, counted per entry; one that reaches the bar is a hit.
        let bar = min_votes.max(1);
        let mut votes = vec![0u8; self.entries.len()];
        let mut hits: Vec<u32> = Vec::new();
        for b in bucket_ids(sig) {
            for &at in &self.buckets[b] {
                let v = &mut votes[at as usize];
                *v += 1;
                if *v as usize == bar {
                    hits.push(at);
                }
            }
        }
        // Best (most votes) first, LBA breaking ties.
        let mut ranked: Vec<(Reverse<u8>, Lba)> = hits
            .into_iter()
            .map(|at| {
                let (lba, _) = self.entries[at as usize].expect("buckets hold live entries");
                (Reverse(votes[at as usize]), lba)
            })
            .collect();
        ranked.sort_unstable();
        ranked.truncate(limit);
        ranked.into_iter().map(|(_, lba)| lba).collect()
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
    use std::collections::HashMap;

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
    fn a_mismatched_remove_removes_nothing() {
        let mut idx = RefIndex::new();
        idx.insert(Lba::new(5), &sig([3; 8]));
        // Not indexed at all, and indexed under another signature.
        idx.remove(Lba::new(6), &sig([3; 8]));
        idx.remove(Lba::new(5), &sig([4; 8]));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.best(&sig([3; 8]), 8), Some(Lba::new(5)));
        idx.remove(Lba::new(5), &sig([3; 8]));
        assert!(idx.is_empty());
        idx.remove(Lba::new(5), &sig([3; 8]));
        assert!(idx.is_empty(), "an empty index stays at zero");
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
        for b in bucket_ids(sig) {
            for &at in &index.buckets[b] {
                let (lba, _) = index.entries[at as usize].expect("buckets hold live entries");
                *votes.entry(lba).or_insert(0) += 1;
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
