//! The popularity Heatmap (paper §4.2, Figure 4, Tables 1–2).
//!
//! The Heatmap is a small two-dimensional array of popularity counters:
//! one row per sub-block position, one column per possible sub-signature
//! value. Every time a block is accessed, the counter at
//! `(row = sub-block index, column = that sub-block's signature)` is
//! incremented. A block's *popularity* is the sum of the counters its 8
//! sub-signatures select — it captures temporal locality (the same block
//! accessed twice bumps its own counters) *and* content locality (two
//! different but similar blocks bump the same counters), which is exactly
//! the signal used to pick reference blocks.

use crate::signature::{BlockSignature, SUB_BLOCKS};
use serde::{Deserialize, Serialize};

/// A popularity Heatmap with `rows × cols` counters.
///
/// The production shape is 8×256 ([`Heatmap::standard`]): 8 sub-blocks, one
/// column per possible one-byte sub-signature. Smaller shapes exist for the
/// paper's worked example (Table 1 uses 2×4).
///
/// # Examples
///
/// ```
/// use icash_delta::heatmap::Heatmap;
/// use icash_delta::signature::BlockSignature;
///
/// let mut map = Heatmap::standard();
/// let sig = BlockSignature::from_raw([5, 5, 5, 5, 5, 5, 5, 5]);
/// map.record(&sig);
/// map.record(&sig);
/// assert_eq!(map.popularity(&sig), 16); // 8 rows × count 2
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Heatmap {
    rows: usize,
    cols: usize,
    counts: Vec<u64>,
}

impl Heatmap {
    /// Creates a zeroed `rows × cols` Heatmap.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "heatmap dimensions must be nonzero");
        Heatmap {
            rows,
            cols,
            counts: vec![0; rows * cols],
        }
    }

    /// The production 8×256 shape: 8 sub-blocks × 256 one-byte signatures.
    pub fn standard() -> Self {
        Self::new(SUB_BLOCKS, 256)
    }

    /// Rows (sub-blocks per block).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns (possible sub-signature values).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Increments the counters selected by each sub-signature of `sig`.
    ///
    /// # Panics
    ///
    /// Panics if a sub-signature value is out of column range, or if the
    /// signature has fewer sub-signatures than the map has rows.
    pub fn record(&mut self, sig: &BlockSignature) {
        self.record_raw(&sig.sub_signatures()[..self.rows]);
    }

    /// [`Heatmap::record`] over raw sub-signature values (worked examples
    /// with non-standard shapes).
    ///
    /// # Panics
    ///
    /// Panics if `subs.len() != rows` or a value is out of column range.
    pub fn record_raw(&mut self, subs: &[u8]) {
        assert_eq!(subs.len(), self.rows, "one sub-signature per row");
        for (row, &v) in subs.iter().enumerate() {
            assert!((v as usize) < self.cols, "sub-signature {v} out of range");
            self.counts[row * self.cols + v as usize] += 1;
        }
    }

    /// The popularity of a block: the sum of the counters its sub-signatures
    /// select (Table 2's "block popularity").
    pub fn popularity(&self, sig: &BlockSignature) -> u64 {
        self.popularity_raw(&sig.sub_signatures()[..self.rows])
    }

    /// [`Heatmap::popularity`] over raw sub-signature values.
    ///
    /// # Panics
    ///
    /// Panics if `subs.len() != rows` or a value is out of column range.
    pub fn popularity_raw(&self, subs: &[u8]) -> u64 {
        assert_eq!(subs.len(), self.rows, "one sub-signature per row");
        subs.iter()
            .enumerate()
            .map(|(row, &v)| {
                assert!((v as usize) < self.cols, "sub-signature {v} out of range");
                self.counts[row * self.cols + v as usize]
            })
            .sum()
    }

    /// One counter cell (row = sub-block index, col = signature value).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn cell(&self, row: usize, col: usize) -> u64 {
        assert!(row < self.rows && col < self.cols, "cell out of range");
        self.counts[row * self.cols + col]
    }

    /// Halves every counter. Called between scan phases so popularity tracks
    /// the *recent* access mix instead of growing without bound.
    pub fn decay(&mut self) {
        for c in &mut self.counts {
            *c >>= 1;
        }
    }

    /// Zeroes every counter.
    pub fn reset(&mut self) {
        self.counts.fill(0);
    }

    /// Sum of all counters (diagnostics).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl Default for Heatmap {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
fn row(map: &Heatmap, r: usize) -> [u64; 4] {
    [
        map.cell(r, 0),
        map.cell(r, 1),
        map.cell(r, 2),
        map.cell(r, 3),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table 1: 2 sub-blocks, 4 possible signature values
    /// (a=0, b=1, c=2, d=3); accesses LBA1(A,B), LBA2(C,D), LBA3(A,D),
    /// LBA4(B,D) produce Heatmap {(2,1,1,0),(0,1,0,3)}.
    #[test]
    fn paper_table_1_buildup() {
        let (a, b, c, d) = (0u8, 1u8, 2u8, 3u8);
        let mut map = Heatmap::new(2, 4);
        map.record_raw(&[a, b]); // LBA1 (A,B)
        assert_eq!(row(&map, 0), [1, 0, 0, 0]);
        assert_eq!(row(&map, 1), [0, 1, 0, 0]);
        map.record_raw(&[c, d]); // LBA2 (C,D)
        assert_eq!(row(&map, 0), [1, 0, 1, 0]);
        assert_eq!(row(&map, 1), [0, 1, 0, 1]);
        map.record_raw(&[a, d]); // LBA3 (A,D)
        assert_eq!(row(&map, 0), [2, 0, 1, 0]);
        assert_eq!(row(&map, 1), [0, 1, 0, 2]);
        map.record_raw(&[b, d]); // LBA4 (B,D)
        assert_eq!(row(&map, 0), [2, 1, 1, 0]);
        assert_eq!(row(&map, 1), [0, 1, 0, 3]);
    }

    /// The paper's Table 2: block popularities under the Table 1 Heatmap are
    /// LBA1(A,B)=3, LBA2(C,D)=4, LBA3(A,D)=5, LBA4(B,D)=4, so (A,D) is the
    /// reference block.
    #[test]
    fn paper_table_2_popularity() {
        let (a, b, c, d) = (0u8, 1u8, 2u8, 3u8);
        let mut map = Heatmap::new(2, 4);
        for subs in [[a, b], [c, d], [a, d], [b, d]] {
            map.record_raw(&subs);
        }
        assert_eq!(map.popularity_raw(&[a, b]), 3);
        assert_eq!(map.popularity_raw(&[c, d]), 4);
        assert_eq!(map.popularity_raw(&[a, d]), 5);
        assert_eq!(map.popularity_raw(&[b, d]), 4);
        // (A, D) wins.
        let best = [[a, b], [c, d], [a, d], [b, d]]
            .into_iter()
            .max_by_key(|s| map.popularity_raw(s))
            .unwrap();
        assert_eq!(best, [a, d]);
    }

    #[test]
    fn content_locality_is_captured() {
        // Two *different* blocks with the same signatures accumulate shared
        // popularity — the content-locality signal.
        let mut map = Heatmap::standard();
        let sig = BlockSignature::from_raw([7; 8]);
        map.record(&sig);
        map.record(&sig);
        assert_eq!(map.popularity(&sig), 16);
        let unrelated = BlockSignature::from_raw([9; 8]);
        assert_eq!(map.popularity(&unrelated), 0);
    }

    #[test]
    fn decay_halves_counters() {
        let mut map = Heatmap::standard();
        let sig = BlockSignature::from_raw([3; 8]);
        for _ in 0..4 {
            map.record(&sig);
        }
        map.decay();
        assert_eq!(map.popularity(&sig), 16);
        map.reset();
        assert_eq!(map.total(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_signature_rejected() {
        let mut map = Heatmap::new(2, 4);
        map.record_raw(&[0, 4]);
    }

    #[test]
    #[should_panic(expected = "one sub-signature per row")]
    fn wrong_arity_rejected() {
        let map = Heatmap::new(2, 4);
        let _ = map.popularity_raw(&[0, 1, 2]);
    }
}
