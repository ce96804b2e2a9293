//! Sub-signature index over the current reference set.
//!
//! When a write (or the offline preparation) needs a reference candidate
//! for a block, scanning every reference with the similarity filter would
//! be O(refs). This index chains references by *pairs* of sub-signatures:
//! 12 pairs, every pair of positions inside 0–3 and every pair inside 4–7.
//! Any 3 of the 8 positions put two in the same half, so a reference that
//! shares at least 3 sub-signatures with the probe shares an indexed pair
//! with it, and walking the probe's 12 pair chains finds every such
//! reference. A lookup counts "votes" (matching sub-signatures) and returns
//! the highest-voted candidates, which is exactly signature distance
//! inverted.

use icash_delta::signature::BlockSignature;
use icash_storage::block::Lba;
use std::cmp::Reverse;

/// Index from pairs of sub-signature values to the references bearing them.
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
    /// The indexed references; `None` is a position free for reuse. A
    /// reference at position `at` is the 12 chain nodes `node(at, p)`.
    entries: Vec<Option<(Lba, BlockSignature)>>,
    free: Vec<u32>,
    /// The first node of each chain, hashed from (pair, value, value), or
    /// `NIL`. A chain may hold nodes of other pairs and other values.
    heads: Vec<u32>,
    /// The node after each node in its chain, or `NIL`; slot 0 is `NIL`'s.
    links: Vec<u32>,
    /// `32 - log2(heads.len())`: what the head hash shifts away.
    head_shift: u32,
}

/// The indexed pairs of sub-signature positions: each pair inside the
/// first half, then each pair inside the second.
const PAIRS: [(usize, usize); 12] = [
    (0, 1),
    (0, 2),
    (0, 3),
    (1, 2),
    (1, 3),
    (2, 3),
    (4, 5),
    (4, 6),
    (4, 7),
    (5, 6),
    (5, 7),
    (6, 7),
];

/// Fewest matching sub-signatures that are sure to include an indexed pair.
const MIN_VOTES: usize = 3;

/// The end of a chain. Nodes are numbered from 1 so that a zeroed table is
/// empty.
const NIL: u32 = 0;

/// Chain heads of the product index: 2^16 `u32`, 256 KB.
const HEAD_BITS: u32 = 16;

/// For each match mask, the first indexed pair whose two positions it
/// holds, or `PAIRS.len()` for none. A reference is counted at that pair's
/// chain only, so it is counted once however many pairs it shares.
const FIRST_PAIR: [u8; 256] = {
    let mut table = [PAIRS.len() as u8; 256];
    let mut mask = 0;
    while mask < 256 {
        let mut p = PAIRS.len();
        while p > 0 {
            p -= 1;
            let (i, j) = PAIRS[p];
            if mask & (1 << i) != 0 && mask & (1 << j) != 0 {
                table[mask] = p as u8;
            }
        }
        mask += 1;
    }
    table
};

/// Bit `k` is set iff sub-signature `k` of the two signatures is equal.
fn match_mask(a: &BlockSignature, b: &BlockSignature) -> u32 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let x = u64::from_le_bytes(*a.sub_signatures()) ^ u64::from_le_bytes(*b.sub_signatures());
    // The top bit of each byte is set iff that byte of `x` is zero …
    let zero = !(((x & LOW7).wrapping_add(LOW7)) | x | LOW7);
    // … and one multiply gathers byte k's top bit into bit 56 + k.
    ((zero >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
}

/// The chain node of the reference at `at` for pair `p`.
fn node(at: u32, p: usize) -> u32 {
    at * PAIRS.len() as u32 + p as u32 + 1
}

impl Default for RefIndex {
    fn default() -> Self {
        Self::with_head_bits(HEAD_BITS)
    }
}

impl RefIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty index with 2^`bits` chain heads: few heads make every
    /// chain mix pairs and values, which the tests want.
    fn with_head_bits(bits: u32) -> Self {
        assert!((1..=24).contains(&bits), "head bits {bits} out of range");
        RefIndex {
            entries: Vec::new(),
            free: Vec::new(),
            heads: vec![NIL; 1 << bits],
            links: vec![NIL],
            head_shift: 32 - bits,
        }
    }

    /// References currently indexed.
    pub fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The chain of pair `p` of `sig`.
    fn head(&self, p: usize, sig: &BlockSignature) -> usize {
        let subs = sig.sub_signatures();
        let (i, j) = PAIRS[p];
        let key = (p as u32) << 16 | (subs[i] as u32) << 8 | subs[j] as u32;
        (key.wrapping_mul(0x9E37_79B9) >> self.head_shift) as usize
    }

    /// Indexes a reference under each of its sub-signature pairs.
    pub fn insert(&mut self, lba: Lba, sig: &BlockSignature) {
        let entry = Some((lba, *sig));
        let at = match self.free.pop() {
            Some(at) => {
                self.entries[at as usize] = entry;
                at
            }
            None => {
                self.entries.push(entry);
                self.links.resize(self.links.len() + PAIRS.len(), NIL);
                assert!(
                    u32::try_from(self.links.len()).is_ok(),
                    "node numbers fit a u32"
                );
                (self.entries.len() - 1) as u32
            }
        };
        for p in 0..PAIRS.len() {
            let h = self.head(p, sig);
            let n = node(at, p);
            self.links[n as usize] = self.heads[h];
            self.heads[h] = n;
        }
    }

    /// Removes the reference indexed as `lba` under `sig`; anything else is
    /// not indexed and nothing is removed.
    pub fn remove(&mut self, lba: Lba, sig: &BlockSignature) {
        let entry = Some((lba, *sig));
        let mut n = self.heads[self.head(0, sig)];
        let at = loop {
            if n == NIL {
                return;
            }
            let at = (n - 1) / PAIRS.len() as u32;
            if n == node(at, 0) && self.entries[at as usize] == entry {
                break at;
            }
            n = self.links[n as usize];
        };
        for p in 0..PAIRS.len() {
            let h = self.head(p, sig);
            let target = node(at, p);
            let after = self.links[target as usize];
            if self.heads[h] == target {
                self.heads[h] = after;
                continue;
            }
            let mut prev = self.heads[h];
            while self.links[prev as usize] != target {
                prev = self.links[prev as usize];
                assert_ne!(prev, NIL, "indexed under every pair");
            }
            self.links[prev as usize] = after;
        }
        self.entries[at as usize] = None;
        self.free.push(at);
    }

    /// The references sharing at least `min_votes` sub-signatures with
    /// `sig`, best (most votes, then lowest LBA) first, at most `limit` of
    /// them.
    ///
    /// # Panics
    ///
    /// If `min_votes` is below 3: a reference sharing only 2 sub-signatures
    /// may share no indexed pair.
    pub fn candidates(&self, sig: &BlockSignature, min_votes: usize, limit: usize) -> Vec<Lba> {
        assert!(
            min_votes >= MIN_VOTES,
            "min_votes {min_votes} < {MIN_VOTES}"
        );
        let mut ranked: Vec<(Reverse<u32>, Lba)> = Vec::new();
        // All 12 heads first: their loads are independent, so they overlap.
        let firsts: [u32; PAIRS.len()] = std::array::from_fn(|p| self.heads[self.head(p, sig)]);
        for (p, &first) in firsts.iter().enumerate() {
            let mut n = first;
            while n != NIL {
                let at = (n - 1) / PAIRS.len() as u32;
                // Only this pair's nodes count: a hashed chain also holds
                // other pairs' nodes, the reference's own among them.
                if n == node(at, p) {
                    let (lba, other) = self.entries[at as usize].expect("chains hold live entries");
                    let mask = match_mask(sig, &other);
                    let votes = mask.count_ones();
                    if FIRST_PAIR[mask as usize] as usize == p && votes as usize >= min_votes {
                        ranked.push((Reverse(votes), lba));
                    }
                }
                n = self.links[n as usize];
            }
        }
        if ranked.len() > limit {
            ranked.select_nth_unstable(limit);
            ranked.truncate(limit);
        }
        ranked.sort_unstable();
        ranked.into_iter().map(|(_, lba)| lba).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icash_delta::signature::SUB_BLOCKS;
    use std::collections::HashMap;

    fn sig(v: [u8; 8]) -> BlockSignature {
        BlockSignature::from_raw(v)
    }

    #[test]
    fn exact_match_wins_over_partial() {
        let mut idx = RefIndex::new();
        idx.insert(Lba::new(1), &sig([1, 1, 1, 1, 1, 1, 1, 1]));
        idx.insert(Lba::new(2), &sig([1, 1, 1, 1, 9, 9, 9, 9]));
        let hits = idx.candidates(&sig([1; 8]), 3, 10);
        assert_eq!(hits[0], Lba::new(1), "8 votes beats 4");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn min_votes_filters_weak_matches() {
        let mut idx = RefIndex::new();
        idx.insert(Lba::new(1), &sig([1, 1, 1, 9, 9, 9, 9, 9]));
        assert!(idx.candidates(&sig([1; 8]), 4, 10).is_empty());
        assert_eq!(idx.candidates(&sig([1; 8]), 3, 10), vec![Lba::new(1)]);
    }

    #[test]
    #[should_panic(expected = "min_votes 2 < 3")]
    fn fewer_than_three_votes_is_refused() {
        RefIndex::new().candidates(&sig([1; 8]), 2, 10);
    }

    #[test]
    fn remove_unindexes() {
        let mut idx = RefIndex::new();
        let s = sig([3; 8]);
        idx.insert(Lba::new(5), &s);
        assert_eq!(idx.len(), 1);
        idx.remove(Lba::new(5), &s);
        assert!(idx.is_empty());
        assert!(idx.candidates(&s, 3, 1).is_empty());
    }

    #[test]
    fn a_mismatched_remove_removes_nothing() {
        let mut idx = RefIndex::new();
        idx.insert(Lba::new(5), &sig([3; 8]));
        // Not indexed at all, and indexed under another signature (one
        // that shares the chain of the first pair, too).
        idx.remove(Lba::new(6), &sig([3; 8]));
        idx.remove(Lba::new(5), &sig([4; 8]));
        idx.remove(Lba::new(5), &sig([3, 3, 9, 9, 9, 9, 9, 9]));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.candidates(&sig([3; 8]), 8, 1), vec![Lba::new(5)]);
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

    /// A probe and a reference agreeing exactly at `positions`.
    fn agreeing_at(positions: &[usize]) -> (BlockSignature, BlockSignature) {
        let probe = [1, 2, 3, 4, 5, 6, 7, 8];
        let mut other = [101, 102, 103, 104, 105, 106, 107, 108];
        for &k in positions {
            other[k] = probe[k];
        }
        (sig(probe), sig(other))
    }

    #[test]
    fn three_matches_are_found_however_the_halves_split_them() {
        for positions in [
            [0, 1, 4],
            [0, 4, 5],
            [0, 1, 2],
            [4, 5, 6],
            [3, 6, 7],
            [1, 3, 5],
        ] {
            let (probe, other) = agreeing_at(&positions);
            let mut idx = RefIndex::new();
            idx.insert(Lba::new(7), &other);
            assert_eq!(
                idx.candidates(&probe, 3, 4),
                vec![Lba::new(7)],
                "{positions:?}"
            );
        }
    }

    #[test]
    fn two_matches_are_never_returned() {
        // In one half (an indexed pair, walked) and across the halves (not
        // indexed, never walked).
        for positions in [[0, 1], [2, 3], [4, 7], [0, 4], [3, 7]] {
            let (probe, other) = agreeing_at(&positions);
            let mut idx = RefIndex::new();
            idx.insert(Lba::new(7), &other);
            assert!(idx.candidates(&probe, 3, 4).is_empty(), "{positions:?}");
        }
    }

    #[test]
    fn a_reference_with_nodes_sharing_a_chain_is_returned_once() {
        // Two heads: at least six of a reference's 12 nodes share one.
        let mut idx = RefIndex::with_head_bits(1);
        idx.insert(Lba::new(4), &sig([6; 8]));
        assert_eq!(idx.candidates(&sig([6; 8]), 3, 10), vec![Lba::new(4)]);
    }

    #[test]
    fn a_node_in_the_middle_of_a_chain_is_removed() {
        let mut idx = RefIndex::with_head_bits(1);
        for lba in 1..=3 {
            idx.insert(Lba::new(lba), &sig([6; 8]));
        }
        // Inserted second, so neither first nor last in its chains.
        idx.remove(Lba::new(2), &sig([6; 8]));
        assert_eq!(idx.len(), 2);
        assert_eq!(
            idx.candidates(&sig([6; 8]), 3, 10),
            vec![Lba::new(1), Lba::new(3)]
        );
        idx.insert(Lba::new(5), &sig([6; 8]));
        assert_eq!(
            idx.candidates(&sig([6; 8]), 3, 10),
            vec![Lba::new(1), Lba::new(3), Lba::new(5)]
        );
    }

    #[test]
    fn every_three_positions_hold_an_indexed_pair() {
        for (mask, &first) in FIRST_PAIR.iter().enumerate() {
            let holds = |&(i, j): &(usize, usize)| mask & (1 << i) != 0 && mask & (1 << j) != 0;
            let expected = PAIRS.iter().position(holds).unwrap_or(PAIRS.len());
            assert_eq!(first as usize, expected, "{mask:08b}");
            if mask.count_ones() >= 3 {
                assert!(expected < PAIRS.len(), "{mask:08b} holds no indexed pair");
            }
        }
    }

    #[test]
    fn the_match_mask_marks_equal_sub_signatures() {
        let a = sig([0, 1, 2, 3, 4, 5, 6, 7]);
        let b = sig([0, 9, 2, 9, 4, 9, 6, 0x80]);
        assert_eq!(match_mask(&a, &b), 0b0101_0101);
        assert_eq!(match_mask(&a, &a), 0xff);
        assert_eq!(match_mask(&sig([0; 8]), &sig([0x80; 8])), 0);
        assert_eq!(match_mask(&sig([1; 8]), &sig([0x81; 8])), 0);
    }

    /// Every live entry with at least `min_votes` matching sub-signatures,
    /// ranked by a full scan. The oracle reads no chain.
    fn candidates_by_linear_scan(
        index: &RefIndex,
        sig: &BlockSignature,
        min_votes: usize,
        limit: usize,
    ) -> Vec<Lba> {
        let mut ranked: Vec<(usize, Lba)> = index
            .entries
            .iter()
            .flatten()
            .map(|(lba, other)| (SUB_BLOCKS - sig.distance(other), *lba))
            .filter(|&(votes, _)| votes >= min_votes)
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked.truncate(limit);
        ranked.into_iter().map(|(_, lba)| lba).collect()
    }

    proptest::proptest! {
        /// Same candidates in the same order as a linear scan, over
        /// signatures drawn from a 3-value alphabet so that references
        /// cluster and tie on votes, with removals mixed in: on the product
        /// index, and on one of sixteen chain heads, where every chain mixes
        /// pairs and values.
        #[test]
        fn candidates_equal_a_linear_scan(
            refs in proptest::collection::vec(
                (0u64..40, proptest::collection::vec(0u8..3, 8..9)), 0..48),
            removed in proptest::collection::vec(0usize..48, 0..8),
            probe in proptest::collection::vec(0u8..3, 8..9),
            min_votes in 3usize..9,
            limit in 0usize..6,
        ) {
            let raw = |v: &[u8]| sig(v.try_into().expect("eight sub-signatures"));
            // One signature per LBA, as the controller maintains it.
            let mut by_lba: HashMap<u64, BlockSignature> = HashMap::new();
            let mut small = RefIndex::with_head_bits(4);
            let mut product = RefIndex::new();
            for (lba, v) in &refs {
                if !by_lba.contains_key(lba) {
                    by_lba.insert(*lba, raw(v));
                    small.insert(Lba::new(*lba), &raw(v));
                    product.insert(Lba::new(*lba), &raw(v));
                }
            }
            for i in removed {
                if let Some((lba, _)) = refs.get(i) {
                    if let Some(s) = by_lba.remove(lba) {
                        small.remove(Lba::new(*lba), &s);
                        product.remove(Lba::new(*lba), &s);
                    }
                }
            }
            let probe = raw(&probe);
            for idx in [&small, &product] {
                proptest::prop_assert_eq!(idx.len(), by_lba.len());
                proptest::prop_assert_eq!(
                    idx.candidates(&probe, min_votes, limit),
                    candidates_by_linear_scan(idx, &probe, min_votes, limit)
                );
            }
        }
    }

    #[test]
    fn no_votes_no_candidates() {
        let mut idx = RefIndex::new();
        idx.insert(Lba::new(1), &sig([1; 8]));
        assert!(idx.candidates(&sig([200; 8]), 3, 10).is_empty());
    }
}
