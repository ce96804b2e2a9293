//! Reusable rolling-hash index over a reference block.
//!
//! The chunk codec matches target spans against a reference by hashing every
//! [`WINDOW`]-byte window of the reference at stride [`STRIDE`] and probing
//! target windows against that index. In I-CASH one *reference* block serves
//! many associate writes, so the index is worth keeping around.
//! [`ChunkIndex`] is that reusable artifact.
//!
//! Two properties matter for callers:
//!
//! * **Bit-compatibility.** A lookup yields, per distinct 64-bit window
//!   hash, the first [`MAX_CANDIDATES`] positions in ascending order —
//!   exactly the candidates the original `HashMap<u64, Vec<usize>>` encoder
//!   inspected (it capped probing with `take(8)`). Encoding through a cached
//!   index is therefore byte-identical to the historical single-shot
//!   encoder; a golden-vector test pins this.
//! * **Small and flat.** What an encode costs in the controller is set by
//!   the memory the index touches, not by its arithmetic: most encodes meet
//!   a reference whose index is not in the CPU cache, and many have to build
//!   it first. The index is ≈ 16 KB for a 4 KB block, in two allocations.
//!
//! ## Layout
//!
//! Stride window `w` starts at byte `w · STRIDE`. A hash's high bits name
//! one of at least `2 · windows` slots. Per window the index keeps its hash
//! (`u64`) and the id of the next higher window in the *same slot* (`u16`,
//! a chain); a slot table (`u16`) holds each slot's lowest window. Windows
//! are inserted from the last to the first, each becoming the new head of
//! its slot's chain, so building never compares or branches on content,
//! and a chain reads in ascending position order. A lookup walks its
//! slot's chain and keeps the windows whose full 64-bit hash matches,
//! stopping at [`MAX_CANDIDATES`] — the bounded probe. Chains average
//! little more than one window; a long one means the reference repeats
//! itself, and then its windows match the lookups that reach it.
//!
//! In front of the slot table sits a bitmap with eight bits per slot, one
//! bit set per distinct hash. A target window whose bit is clear is in no
//! reference window: the scan moves on after one predictable branch
//! instead of loading a slot that is as likely full as empty. In ADD
//! regions nearly every position is such a miss. The bitmap only ever
//! rules out hashes that are definitely absent, so it cannot change which
//! candidates a lookup returns.
//!
//! ## Rolling-hash window math
//!
//! The window hash is the polynomial `h(w) = Σ w[j]·P^(W-1-j) (mod 2^64)`
//! with `P = 1_000_003` and `W = 16`. Wrapping `u64` arithmetic *is*
//! arithmetic mod 2^64, so every identity below is exact.
//!
//! Sliding the window one byte right — dropping `b_out`, admitting `b_in`:
//!
//! ```text
//! h' = h·P + (b_in − b_out·P^W)
//! ```
//!
//! The bracket does not depend on `h`, so the serial chain the target scan
//! in `chunk::encode_with_index` carries is one multiply and one add per
//! byte.
//!
//! [`build`](ChunkIndex::build) needs only every `STRIDE`-th hash, and a
//! window is four `STRIDE`-byte groups. With `g_k` the hash of group `k`,
//!
//! ```text
//! h_w = g_w·P^12 + g_{w+1}·P^8 + g_{w+2}·P^4 + g_{w+3}
//! ```
//!
//! so the windows are hashed from independent group hashes, with no chain
//! from one window to the next.

use crate::codec::scan::common_prefix_len;

/// Rolling-hash window width. Matches shorter than this are invisible.
pub const WINDOW: usize = 16;

/// Reference positions are indexed at this stride (denser = better matches,
/// bigger index).
pub const STRIDE: usize = 4;

// `build` hashes a window as four whole groups.
const _: () = assert!(WINDOW == 4 * STRIDE);

/// Maximum candidate positions yielded per window hash; mirrors the
/// original encoder's bounded probe (`take(8)`) so a lookup verifies a
/// bounded number of windows and encodings stay byte-identical.
pub const MAX_CANDIDATES: usize = 8;

/// Polynomial base of the window hash.
const P: u64 = 1_000_003;

/// `P^WINDOW mod 2^64`, the weight of the outgoing byte when rolling.
const P_POW_W: u64 = pow_p(WINDOW);

/// `P^STRIDE`, `P^(2·STRIDE)`, `P^(3·STRIDE)`: a group's weight by its place
/// in a window, last group but one first.
const GROUP_WEIGHTS: [u64; 3] = [pow_p(STRIDE), pow_p(2 * STRIDE), pow_p(3 * STRIDE)];

const fn pow_p(mut e: usize) -> u64 {
    let mut acc = 1u64;
    while e > 0 {
        acc = acc.wrapping_mul(P);
        e -= 1;
    }
    acc
}

/// Hash of one full window, by Horner's rule.
#[inline]
pub(crate) fn window_hash(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0u64, |h, &b| h.wrapping_mul(P).wrapping_add(b as u64))
}

/// Rolls `h` (hash of a window starting at some position `i`) one byte to
/// the right: `out` is the byte leaving at `i`, `inn` the byte entering at
/// `i + WINDOW`.
#[inline]
pub(crate) fn roll(h: u64, out: u8, inn: u8) -> u64 {
    h.wrapping_mul(P)
        .wrapping_add((inn as u64).wrapping_sub((out as u64).wrapping_mul(P_POW_W)))
}

/// Hash of one `STRIDE`-byte group; the terms are independent, so the
/// multiplies overlap.
#[inline]
fn group_hash(group: &[u8]) -> u64 {
    const P2: u64 = pow_p(2);
    const P3: u64 = pow_p(3);
    (group[0] as u64)
        .wrapping_mul(P3)
        .wrapping_add((group[1] as u64).wrapping_mul(P2))
        .wrapping_add((group[2] as u64).wrapping_mul(P))
        .wrapping_add(group[3] as u64)
}

/// Empty slot in the table, end of a chain.
const NONE: u16 = u16::MAX;

/// Filter bits per table slot.
const FILTER_BITS_PER_SLOT_LOG2: u32 = 3;

/// A reusable window-hash index over one reference block.
///
/// Build once with [`ChunkIndex::build`], probe many times via
/// `chunk::encode_with_index`. See the module docs for the layout and the
/// compatibility contract.
#[derive(Debug, Clone)]
pub struct ChunkIndex {
    /// The absent-hash bitmap (`filter_words` words), then one hash per
    /// stride window.
    words: Box<[u64]>,
    /// The slot table (`slots` entries: lowest window of each slot), then
    /// per window the next higher window of the same slot.
    links: Box<[u16]>,
    filter_words: usize,
    slots: usize,
    /// A scrambled hash shifted right by this is its filter bit; that
    /// shifted by [`FILTER_BITS_PER_SLOT_LOG2`] more is its slot.
    shift: u32,
    /// Length of the indexed reference, for cache-coherence checks.
    ref_len: usize,
}

impl ChunkIndex {
    /// Indexes every stride-aligned window of `reference`.
    ///
    /// # Panics
    ///
    /// Panics if `reference` has more stride windows than a `u16` can name
    /// (≈ 256 KB; the codec works on 4 KB blocks).
    pub fn build(reference: &[u8]) -> Self {
        let windows = if reference.len() >= WINDOW {
            (reference.len() - WINDOW) / STRIDE + 1
        } else {
            0
        };
        assert!(
            windows < NONE as usize,
            "reference of {} bytes is too long for a chunk index",
            reference.len()
        );
        let slots = (windows * 2).next_power_of_two().max(16);
        let filter_bits = slots << FILTER_BITS_PER_SLOT_LOG2;
        let filter_words = filter_bits / 64;
        let mut words = vec![0u64; filter_words + windows].into_boxed_slice();
        let mut links = vec![NONE; slots + windows].into_boxed_slice();
        let shift = 64 - filter_bits.trailing_zeros();

        let (filter, hashes) = words.split_at_mut(filter_words);
        let mut groups = reference.chunks_exact(STRIDE).map(group_hash);
        if let (Some(mut a), Some(mut b), Some(mut c)) =
            (groups.next(), groups.next(), groups.next())
        {
            for (hash, d) in hashes.iter_mut().zip(groups) {
                *hash = a
                    .wrapping_mul(GROUP_WEIGHTS[2])
                    .wrapping_add(b.wrapping_mul(GROUP_WEIGHTS[1]))
                    .wrapping_add(c.wrapping_mul(GROUP_WEIGHTS[0]))
                    .wrapping_add(d);
                (a, b, c) = (b, c, d);
            }
        }

        // Last window first: each becomes its chain's head, so chains end
        // up ascending without ever being walked here.
        let (table, next) = links.split_at_mut(slots);
        for ((w, &hash), link) in hashes.iter().enumerate().zip(next.iter_mut()).rev() {
            let bit = scramble(hash) >> shift;
            filter[(bit >> 6) as usize] |= 1 << (bit & 63);
            let head = &mut table[(bit >> FILTER_BITS_PER_SLOT_LOG2) as usize];
            *link = std::mem::replace(head, w as u16);
        }

        ChunkIndex {
            words,
            links,
            filter_words,
            slots,
            shift,
            ref_len: reference.len(),
        }
    }

    /// Length of the reference this index was built over.
    #[inline]
    pub fn ref_len(&self) -> usize {
        self.ref_len
    }

    /// Heap footprint in bytes, for cache accounting.
    pub fn heap_size(&self) -> usize {
        std::mem::size_of_val(&*self.words) + std::mem::size_of_val(&*self.links)
    }

    /// The slot of `hash` if its filter bit is set; `None` means no
    /// reference window has this hash.
    #[inline]
    fn slot_of(&self, hash: u64) -> Option<usize> {
        let bit = scramble(hash) >> self.shift;
        let set = self.words[(bit >> 6) as usize] & (1 << (bit & 63)) != 0;
        set.then_some((bit >> FILTER_BITS_PER_SLOT_LOG2) as usize)
    }

    /// Whether some reference window may hash to `hash`; `false` is
    /// definite. The scan's first test at every target position.
    #[inline]
    pub(crate) fn may_contain(&self, hash: u64) -> bool {
        self.slot_of(hash).is_some()
    }

    /// Reference positions whose window hashes to `hash` (ascending, at most
    /// [`MAX_CANDIDATES`]).
    pub fn candidates(&self, hash: u64) -> impl Iterator<Item = u32> + '_ {
        let hashes = &self.words[self.filter_words..];
        let (table, next) = self.links.split_at(self.slots);
        let mut window = self.slot_of(hash).map_or(NONE, |slot| table[slot]);
        std::iter::from_fn(move || {
            while window != NONE {
                let w = window as usize;
                window = next[w];
                if hashes[w] == hash {
                    return Some((w * STRIDE) as u32);
                }
            }
            None
        })
        .take(MAX_CANDIDATES)
    }

    /// Best verified match for the window starting at `target[i]` whose hash
    /// is `h`: checks each candidate, extends verified windows forward
    /// word-at-a-time, and returns `(ref_offset, len)` of the longest
    /// (earliest candidate wins ties, as the seed encoder did).
    pub(crate) fn best_match(
        &self,
        reference: &[u8],
        target: &[u8],
        i: usize,
        h: u64,
    ) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize)> = None;
        for cand in self.candidates(h) {
            let cand = cand as usize;
            if reference[cand..cand + WINDOW] != target[i..i + WINDOW] {
                continue; // hash collision
            }
            let len =
                WINDOW + common_prefix_len(&reference[cand + WINDOW..], &target[i + WINDOW..]);
            if best.is_none_or(|(_, bl)| len > bl) {
                best = Some((cand, len));
            }
        }
        best
    }
}

/// Fibonacci multiplier: spreads the polynomial hash into the high bits
/// the filter bit and the slot are taken from.
#[inline]
fn scramble(hash: u64) -> u64 {
    hash.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolled_hash_equals_recomputed() {
        let data: Vec<u8> = (0..256u32)
            .map(|i| (i.wrapping_mul(97) % 256) as u8)
            .collect();
        let mut h = window_hash(&data[..WINDOW]);
        for pos in 0..data.len() - WINDOW {
            assert_eq!(h, window_hash(&data[pos..pos + WINDOW]), "at {pos}");
            h = roll(h, data[pos], data[pos + WINDOW]);
        }
    }

    #[test]
    fn group_hashed_windows_equal_recomputed() {
        // Lengths that are not a multiple of the stride leave a tail no
        // window covers; it must not shift any hash.
        for len in [WINDOW, WINDOW + 1, 255, 4096] {
            let data: Vec<u8> = (0..len as u32)
                .map(|i| (i.wrapping_mul(131) >> 3) as u8)
                .collect();
            let index = ChunkIndex::build(&data);
            let hashes = &index.words[index.filter_words..];
            assert_eq!(hashes.len(), (len - WINDOW) / STRIDE + 1);
            for (w, &h) in hashes.iter().enumerate() {
                let pos = w * STRIDE;
                assert_eq!(
                    h,
                    window_hash(&data[pos..pos + WINDOW]),
                    "len {len} at {pos}"
                );
            }
        }
    }

    #[test]
    fn short_reference_builds_empty_index() {
        let index = ChunkIndex::build(&[1, 2, 3]);
        assert_eq!(index.ref_len(), 3);
        assert_eq!(index.candidates(window_hash(&[0u8; WINDOW])).count(), 0);
    }

    #[test]
    fn repeated_content_caps_candidates() {
        // An all-equal block has one distinct window hash with ~1000
        // positions; only the first MAX_CANDIDATES survive, ascending.
        let reference = vec![7u8; 4096];
        let index = ChunkIndex::build(&reference);
        let h = window_hash(&reference[..WINDOW]);
        let cands: Vec<u32> = index.candidates(h).collect();
        let want: Vec<u32> = (0..MAX_CANDIDATES as u32)
            .map(|i| i * STRIDE as u32)
            .collect();
        assert_eq!(cands, want);
    }

    #[test]
    fn a_block_index_fits_in_16_kib() {
        let index = ChunkIndex::build(&[0u8; 4096]);
        assert!(index.heap_size() <= 16 << 10, "got {}", index.heap_size());
    }
}
