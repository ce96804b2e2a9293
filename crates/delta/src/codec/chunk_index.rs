//! Reusable window-hash index over a reference block.
//!
//! The chunk codec matches target spans against a reference by hashing every
//! [`WINDOW`]-byte window of the reference at stride [`STRIDE`] and looking
//! target windows up in that index. In I-CASH one *reference* block serves
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
//! * **Small and flat.** Most encodes meet a reference whose index is not in
//!   the CPU cache, and many have to build it first. The index is ≈ 16 KB
//!   for a 4 KB block, in two allocations, filled in one pass.
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
//! stopping at [`MAX_CANDIDATES`] — the bounded probe.
//!
//! In front of the hashes sits the **group bitmap**, eight bits per slot:
//! one bit per distinct aligned [`STRIDE`]-byte group of the reference, so
//! at most one bit in sixteen is set. It is what the target scan reads
//! instead of hashing (`chunk` has the argument): a lookup the bitmap
//! spares the scan is one that could not have produced a COPY. Lookups
//! themselves never consult it.
//!
//! ## Hash math
//!
//! The window hash is the polynomial `h(w) = Σ w[j]·P^(W-1-j) (mod 2^64)`
//! with `P = 1_000_003` and `W = 16`; wrapping `u64` arithmetic *is*
//! arithmetic mod 2^64. With `g_k` the same polynomial over the four bytes
//! of group `k`, `H_k = g_k·P^4 + g_{k+1}` and `h_w = H_w·P^8 + H_{w+2}`:
//! [`build`](ChunkIndex::build) gets every window from one new group hash
//! and two multiplies, with no chain from window to window. A group's bitmap
//! bit is one multiply of its bytes read as a `u32`.

use crate::codec::scan::common_prefix_len;

/// Window width of the hash. Matches shorter than this are invisible.
pub const WINDOW: usize = 16;

/// Reference positions are indexed at this stride (denser = better matches,
/// bigger index).
pub const STRIDE: usize = 4;

// A window is hashed as four whole groups.
const _: () = assert!(WINDOW == 4 * STRIDE);

/// Maximum candidate positions yielded per window hash; mirrors the
/// original encoder's bounded probe (`take(8)`) so a lookup verifies a
/// bounded number of windows and encodings stay byte-identical.
pub const MAX_CANDIDATES: usize = 8;

/// Polynomial base of the window hash.
const P: u64 = 1_000_003;

/// What a group and a half window weigh one place further left.
const P4: u64 = P.wrapping_pow(STRIDE as u32);
const P8: u64 = P.wrapping_pow(2 * STRIDE as u32);

/// Hash of one `STRIDE`-byte group; the multiplies are independent.
#[inline]
fn group_hash(group: &[u8]) -> u64 {
    const P2: u64 = P.wrapping_pow(2);
    const P3: u64 = P.wrapping_pow(3);
    (group[0] as u64)
        .wrapping_mul(P3)
        .wrapping_add((group[1] as u64).wrapping_mul(P2))
        .wrapping_add((group[2] as u64).wrapping_mul(P))
        .wrapping_add(group[3] as u64)
}

/// Hash of one full window, from its four groups.
#[inline]
pub(crate) fn window_hash(window: &[u8]) -> u64 {
    debug_assert_eq!(window.len(), WINDOW);
    let groups = window.chunks_exact(STRIDE).map(group_hash);
    groups.fold(0, |h, group| h.wrapping_mul(P4).wrapping_add(group))
}

/// Empty slot in the table, end of a chain.
const NONE: u16 = u16::MAX;

/// Group-bitmap bits per table slot.
const GROUP_BITS_PER_SLOT_LOG2: u32 = 3;

/// A reusable window-hash index over one reference block.
///
/// Build once with [`ChunkIndex::build`], probe many times via
/// `chunk::encode_with_index`. The module docs have the layout.
#[derive(Debug, Clone)]
pub struct ChunkIndex {
    /// The group bitmap (`bitmap_words` words), then one hash per stride
    /// window.
    words: Box<[u64]>,
    /// The slot table (`slots` entries: lowest window of each slot), then
    /// per window the next higher window of the same slot.
    links: Box<[u16]>,
    bitmap_words: usize,
    slots: usize,
    /// A scrambled group shifted right by this is its bitmap bit.
    group_shift: u32,
    /// A scrambled window hash shifted right by this is its slot.
    slot_shift: u32,
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
        let bitmap_bits = slots << GROUP_BITS_PER_SLOT_LOG2;
        let bitmap_words = bitmap_bits / 64;
        let mut words = vec![0u64; bitmap_words + windows].into_boxed_slice();
        let mut links = vec![NONE; slots + windows].into_boxed_slice();
        let group_shift = u32::BITS - bitmap_bits.trailing_zeros();
        let slot_shift = u64::BITS - slots.trailing_zeros();

        // One pass, last group first. A group sets its bitmap bit; its hash
        // joins the next group's into a half-window hash, and that joins
        // the half two groups on into the hash of the window the group
        // starts. Each window becomes its chain's head, so chains end up
        // ascending without ever being walked here.
        let (bitmap, hashes) = words.split_at_mut(bitmap_words);
        let (table, next) = links.split_at_mut(slots);
        let (mut next_group, mut next_half, mut second_half) = (0u64, 0u64, 0u64);
        let mut window_at = |group: &[u8]| {
            let as_word = u32::from_le_bytes(group.try_into().expect("a whole group"));
            let bit = group_bit(as_word, group_shift);
            bitmap[bit >> 6] |= 1 << (bit & 63);
            let group = group_hash(group);
            let half = group.wrapping_mul(P4).wrapping_add(next_group);
            let hash = half.wrapping_mul(P8).wrapping_add(second_half);
            (next_group, next_half, second_half) = (group, half, next_half);
            hash
        };
        // The last three groups start no window.
        let (starts, rest) = reference.split_at(windows * STRIDE);
        for group in rest.chunks_exact(STRIDE).rev() {
            window_at(group);
        }
        for w in (0..windows).rev() {
            let hash = window_at(&starts[w * STRIDE..][..STRIDE]);
            hashes[w] = hash;
            let head = &mut table[(scramble(hash) >> slot_shift) as usize];
            next[w] = std::mem::replace(head, w as u16);
        }

        ChunkIndex {
            words,
            links,
            bitmap_words,
            slots,
            group_shift,
            slot_shift,
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

    /// Whether `group` may be one of the reference's aligned groups;
    /// `false` is definite. The scan's test at a target position.
    #[inline]
    pub fn may_have_group(&self, group: [u8; STRIDE]) -> bool {
        let bit = group_bit(u32::from_le_bytes(group), self.group_shift);
        self.words[bit >> 6] & (1 << (bit & 63)) != 0
    }

    /// Reference positions whose window hashes to `hash` (ascending, at most
    /// [`MAX_CANDIDATES`]).
    pub fn candidates(&self, hash: u64) -> impl Iterator<Item = u32> + '_ {
        let hashes = &self.words[self.bitmap_words..];
        let (table, next) = self.links.split_at(self.slots);
        let mut window = table[(scramble(hash) >> self.slot_shift) as usize];
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
/// the slot is taken from.
#[inline]
fn scramble(hash: u64) -> u64 {
    hash.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Bitmap bit of a group (its bytes as a little-endian `u32`): the same
/// multiplier, 32 bits wide.
#[inline]
fn group_bit(group: u32, shift: u32) -> usize {
    (group.wrapping_mul(0x9E37_79B1) >> shift) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The window hash by its definition (Horner's rule over the bytes).
    fn horner(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0u64, |h, &b| h.wrapping_mul(P).wrapping_add(b as u64))
    }

    #[test]
    fn group_hashed_windows_equal_the_definition() {
        // Lengths that are not a multiple of the stride leave a tail no
        // window covers; it must not shift any hash.
        for len in [WINDOW, WINDOW + 1, 255, 4096] {
            let data: Vec<u8> = (0..len as u32)
                .map(|i| (i.wrapping_mul(131) >> 3) as u8)
                .collect();
            let index = ChunkIndex::build(&data);
            let hashes = &index.words[index.bitmap_words..];
            assert_eq!(hashes.len(), (len - WINDOW) / STRIDE + 1);
            for (w, &h) in hashes.iter().enumerate() {
                let window = &data[w * STRIDE..][..WINDOW];
                assert_eq!(h, horner(window), "len {len} at {}", w * STRIDE);
                assert_eq!(h, window_hash(window));
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
