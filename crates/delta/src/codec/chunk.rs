//! Chunk-match delta codec (the shifted-content path).
//!
//! The skip/literal codec fails when content moves *within* a block (an
//! insertion early in the block misaligns every later byte). This codec is a
//! small vcdiff-style differ: it indexes the reference block by the hash of
//! its fixed windows (see [`chunk_index`](super::chunk_index)), then
//! greedily emits `COPY(offset, len)` instructions for target spans found in
//! the reference and `ADD(bytes)` for novel spans — the classic approach of
//! the delta-encoding literature the paper cites (Ajtai et al.).
//!
//! The original encoder hashed the window at every target position and
//! looked each hash up; this one emits the same bytes without hashing where
//! it cannot matter. A COPY is emitted from [`MIN_MATCH`] = 24 bytes and the
//! index holds windows at [`STRIDE`]-aligned reference offsets only, so a
//! COPY at target position `i` means the six groups `target[i + 4k..][..4]`
//! *are* six consecutive aligned groups of the reference. The index keeps a
//! bitmap of the reference's aligned groups. Where one of a position's six
//! is absent from it, no lookup could have verified 24 bytes, whatever the
//! window there hashed to or collided with, and the original emitted
//! nothing; only a position whose six groups all pass is hashed and looked
//! up, exactly as before. One absent group settles all (up to six)
//! positions it is a group of, so novel content is crossed at four tests to
//! 24 bytes. Output is byte-identical to the original scalar encoder
//! (`tests/golden.rs`) and to the rolling-hash scan this one replaced, kept
//! as `tests/oracle.rs`.
//!
//! Wire format, repeated until the target is covered:
//! `0x00 varint(len) bytes…` (ADD) | `0x01 varint(offset) varint(len)` (COPY).

use crate::codec::chunk_index::{window_hash, ChunkIndex, STRIDE, WINDOW};
use crate::varint::{self, Reader};

/// Minimum match length worth a COPY instruction (a COPY costs ~4 bytes).
pub const MIN_MATCH: usize = 24;

/// Groups a COPY covers from its first byte at the least, and bit
/// `STRIDE · k` for each: where positions sharing a group start, counted
/// from the first.
const MATCH_GROUPS: usize = MIN_MATCH / STRIDE;
const GROUP_STARTS: u32 = 0x0011_1111;
const _: () = assert!(MIN_MATCH >= WINDOW && MATCH_GROUPS == 6 && STRIDE == 4);

const OP_ADD: u8 = 0x00;
const OP_COPY: u8 = 0x01;

/// Encodes `target` relative to `reference` (the blocks may differ in
/// length; the target length is implicit in the instruction stream).
///
/// Builds a throwaway [`ChunkIndex`]; callers encoding many targets against
/// one reference should build it once and use [`encode_with_index`].
pub fn encode(reference: &[u8], target: &[u8]) -> Vec<u8> {
    encode_with_index(&ChunkIndex::build(reference), reference, target)
}

/// Encodes `target` relative to `reference` through a prebuilt index.
///
/// `index` must have been built over this `reference`; the output is
/// byte-identical to [`encode`].
pub fn encode_with_index(index: &ChunkIndex, reference: &[u8], target: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_with_index_into(index, reference, target, &mut out);
    out
}

/// [`encode_with_index`] into a caller-owned buffer, which is cleared first:
/// a caller that keeps `out` across calls pays for its growth once.
pub fn encode_with_index_into(
    index: &ChunkIndex,
    reference: &[u8],
    target: &[u8],
    out: &mut Vec<u8>,
) {
    debug_assert_eq!(
        index.ref_len(),
        reference.len(),
        "chunk index was built over a different reference"
    );
    out.clear();
    let mut pending_add_start = 0usize;

    let flush_add = |out: &mut Vec<u8>, start: usize, end: usize| {
        if end > start {
            out.push(OP_ADD);
            varint::encode((end - start) as u64, out);
            out.extend_from_slice(&target[start..end]);
        }
    };

    let mut i = 0usize;
    // Bit `k`: position `i + k` has a group the reference lacks. Bit 0 is
    // clear whenever the loop tests it.
    let mut ruled_out = 0u32;
    while i + MIN_MATCH <= target.len() {
        // Furthest group first: an absent one takes the most positions.
        let absent = target[i..i + MIN_MATCH]
            .chunks_exact(STRIDE)
            .rposition(|group| !index.may_have_group(group.try_into().expect("a whole group")));
        if let Some(k) = absent {
            ruled_out |= GROUP_STARTS >> (STRIDE * (MATCH_GROUPS - 1 - k));
        } else {
            let h = window_hash(&target[i..i + WINDOW]);
            match index.best_match(reference, target, i, h) {
                Some((off, len)) if len >= MIN_MATCH => {
                    flush_add(out, pending_add_start, i);
                    out.push(OP_COPY);
                    varint::encode(off as u64, out);
                    varint::encode(len as u64, out);
                    i += len;
                    pending_add_start = i;
                    ruled_out = 0;
                    continue;
                }
                _ => ruled_out |= 1,
            }
        }
        let skip = ruled_out.trailing_ones();
        ruled_out >>= skip;
        i += skip as usize;
    }
    flush_add(out, pending_add_start, target.len());
}

/// Reconstructs the target from `reference` and an encoding produced by
/// [`encode`].
///
/// Returns `None` if the encoding is malformed.
pub fn decode(reference: &[u8], delta: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    spans(reference, delta, |span| {
        out.extend_from_slice(span);
        Some(())
    })?;
    Some(out)
}

/// [`decode`] into a caller-owned buffer for a target of exactly
/// `out.len()` bytes.
///
/// Returns `None` if the encoding is malformed or describes a target of any
/// other length, leaving `out` partly written.
pub fn decode_into(reference: &[u8], delta: &[u8], out: &mut [u8]) -> Option<()> {
    let mut filled = 0usize;
    spans(reference, delta, |span| {
        let end = filled.checked_add(span.len())?;
        out.get_mut(filled..end)?.copy_from_slice(span);
        filled = end;
        Some(())
    })?;
    (filled == out.len()).then_some(())
}

/// Walks the instruction stream, handing `emit` the bytes each instruction
/// contributes to the target, in target order.
fn spans<'a>(
    reference: &'a [u8],
    delta: &'a [u8],
    mut emit: impl FnMut(&'a [u8]) -> Option<()>,
) -> Option<()> {
    let mut r = Reader::new(delta);
    while !r.is_empty() {
        match r.bytes(1)?[0] {
            OP_ADD => {
                let len = r.varint()? as usize;
                emit(r.bytes(len)?)?;
            }
            OP_COPY => {
                let off = r.varint()? as usize;
                let len = r.varint()? as usize;
                emit(reference.get(off..off.checked_add(len)?)?)?;
            }
            _ => return None,
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 31 + i / 7) % 256) as u8).collect()
    }

    #[test]
    fn identical_blocks_become_one_copy() {
        let a = patterned(4096);
        let d = encode(&a, &a);
        assert!(d.len() < 8, "got {}", d.len());
        assert_eq!(decode(&a, &d).unwrap(), a);
    }

    #[test]
    fn insertion_shift_compresses() {
        // Insert 16 bytes at the front and truncate: every byte moves, which
        // defeats the sparse codec but not this one.
        let a = patterned(4096);
        let mut b = vec![0xEEu8; 16];
        b.extend_from_slice(&a[..4080]);
        let sparse = crate::codec::sparse::encode(&a, &b);
        let chunked = encode(&a, &b);
        assert!(
            chunked.len() < sparse.len() / 4,
            "chunk {} vs sparse {}",
            chunked.len(),
            sparse.len()
        );
        assert_eq!(decode(&a, &chunked).unwrap(), b);
    }

    #[test]
    fn novel_content_roundtrips_as_adds() {
        let a = patterned(4096);
        let b: Vec<u8> = (0..4096).map(|i| ((i * 7919 + 13) % 251) as u8).collect();
        let d = encode(&a, &b);
        assert_eq!(decode(&a, &d).unwrap(), b);
    }

    #[test]
    fn rearranged_halves_compress() {
        let a = patterned(4096);
        let mut b = Vec::with_capacity(4096);
        b.extend_from_slice(&a[2048..]);
        b.extend_from_slice(&a[..2048]);
        let d = encode(&a, &b);
        assert!(d.len() < 64, "two COPYs expected, got {} bytes", d.len());
        assert_eq!(decode(&a, &d).unwrap(), b);
    }

    #[test]
    fn empty_target_is_empty_delta() {
        let a = patterned(4096);
        let d = encode(&a, &[]);
        assert!(d.is_empty());
        assert_eq!(decode(&a, &d).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn short_reference_still_works() {
        let a = vec![1u8; 8]; // shorter than one window
        let b = vec![2u8; 100];
        let d = encode(&a, &b);
        assert_eq!(decode(&a, &d).unwrap(), b);
    }

    #[test]
    fn prebuilt_index_is_equivalent() {
        let a = patterned(4096);
        let index = ChunkIndex::build(&a);
        for target in [
            a.clone(),
            {
                let mut b = vec![0xEEu8; 16];
                b.extend_from_slice(&a[..4080]);
                b
            },
            (0..4096).map(|i| ((i * 7919 + 13) % 251) as u8).collect(),
        ] {
            assert_eq!(encode_with_index(&index, &a, &target), encode(&a, &target));
        }
    }

    #[test]
    fn malformed_deltas_are_rejected() {
        let a = patterned(4096);
        assert_eq!(decode(&a, &[0x02]), None); // unknown opcode
        let mut bad = vec![OP_COPY];
        varint::encode(4000, &mut bad);
        varint::encode(1000, &mut bad); // copy past end of reference
        assert_eq!(decode(&a, &bad), None);
        let mut trunc = vec![OP_ADD];
        varint::encode(50, &mut trunc); // promises 50 literal bytes, has none
        assert_eq!(decode(&a, &trunc), None);
    }
}
