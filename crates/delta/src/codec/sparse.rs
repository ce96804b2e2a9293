//! Skip/literal delta codec (the fast path).
//!
//! The paper's content-locality citations report that a typical block write
//! changes only 5–20 % of the bits in a block, usually in a few clustered
//! spans. This codec captures exactly that case: it encodes the target as a
//! sequence of `(skip over unchanged bytes, literal run of changed bytes)`
//! records relative to the reference block. Unchanged tails cost nothing.
//!
//! Wire format, repeated until the target is covered:
//! `varint(skip) varint(lit_len) lit_bytes…` — decoding fills any remainder
//! from the reference.

use crate::codec::scan;
use crate::varint::{self, Reader};

/// Nearby literal runs separated by a gap shorter than this are merged:
/// two varints cost more than re-sending a few unchanged bytes.
const MERGE_GAP: usize = 4;

/// Encodes `target` relative to `reference`.
///
/// Returns the encoded bytes; an empty vector means the blocks are
/// identical.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn encode(reference: &[u8], target: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(reference, target, &mut out);
    out
}

/// [`encode`] into a caller-owned buffer, which is cleared first: a caller
/// that keeps `out` across calls pays for its growth once.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn encode_into(reference: &[u8], target: &[u8], out: &mut Vec<u8>) {
    assert_eq!(
        reference.len(),
        target.len(),
        "sparse deltas require equal-length blocks"
    );
    out.clear();
    let n = target.len();
    // End of the last record written; skips count from here.
    let mut pos = 0usize;
    let mut emit = |start: usize, end: usize| {
        varint::encode((start - pos) as u64, out);
        varint::encode((end - start) as u64, out);
        out.extend_from_slice(&target[start..end]);
        pos = end;
    };
    // Walk the difference runs, holding the latest one back so a run that
    // follows it after a tiny gap can be merged into it. The scans are
    // word-at-a-time: unchanged spans (the common case — the paper's
    // workloads change 5–20% of a block) cost one XOR per 8 bytes.
    let mut held: Option<(usize, usize)> = None; // (start, end)
    let mut i = scan::mismatch_from(reference, target, 0);
    while i < n {
        let start = i;
        i = scan::match_from(reference, target, i);
        held = match held {
            Some((held_start, held_end)) if start - held_end < MERGE_GAP => Some((held_start, i)),
            Some((held_start, held_end)) => {
                emit(held_start, held_end);
                Some((start, i))
            }
            None => Some((start, i)),
        };
        i = scan::mismatch_from(reference, target, i);
    }
    if let Some((start, end)) = held {
        emit(start, end);
    }
}

/// Reconstructs the target from `reference` and an encoding produced by
/// [`encode`].
///
/// Returns `None` if the encoding is malformed (truncated varint, run past
/// the end of the block).
pub fn decode(reference: &[u8], delta: &[u8]) -> Option<Vec<u8>> {
    let mut out = reference.to_vec();
    patch(&mut out, delta)?;
    Some(out)
}

/// Turns `block`, which holds the reference, into the target by writing the
/// literal runs of `delta` over it: the decoder for a caller that already
/// has the reference copied to where the target is to be.
///
/// Returns `None` if the encoding is malformed, leaving `block` partly
/// patched.
pub fn patch(block: &mut [u8], delta: &[u8]) -> Option<()> {
    let mut r = Reader::new(delta);
    let mut pos = 0usize;
    while !r.is_empty() {
        let skip = r.varint()? as usize;
        let len = r.varint()? as usize;
        pos = pos.checked_add(skip)?;
        let end = pos.checked_add(len)?;
        block.get_mut(pos..end)?.copy_from_slice(r.bytes(len)?);
        pos = end;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(f: impl Fn(usize) -> u8) -> Vec<u8> {
        (0..4096).map(f).collect()
    }

    #[test]
    fn identical_blocks_encode_empty() {
        let a = block(|i| (i % 256) as u8);
        let d = encode(&a, &a);
        assert!(d.is_empty());
        assert_eq!(decode(&a, &d).unwrap(), a);
    }

    #[test]
    fn single_byte_change_is_tiny() {
        let a = block(|i| (i % 256) as u8);
        let mut b = a.clone();
        b[2000] ^= 0xFF;
        let d = encode(&a, &b);
        assert!(
            d.len() <= 8,
            "one changed byte should cost a few bytes, got {}",
            d.len()
        );
        assert_eq!(decode(&a, &d).unwrap(), b);
    }

    #[test]
    fn clustered_changes_stay_small() {
        let a = block(|i| (i % 256) as u8);
        let mut b = a.clone();
        // 5% of the block changed in 4 clusters — the paper's typical write.
        for cluster in 0..4usize {
            let base = cluster * 1000 + 100;
            for i in 0..50 {
                b[base + i] = b[base + i].wrapping_add(13);
            }
        }
        let d = encode(&a, &b);
        assert!(d.len() < 250, "got {}", d.len());
        assert_eq!(decode(&a, &d).unwrap(), b);
    }

    #[test]
    fn tiny_gaps_are_merged() {
        let a = block(|_| 0);
        let mut b = a.clone();
        // Changes at i and i+2 (gap of 1 unchanged byte) merge into one run.
        b[100] = 1;
        b[102] = 1;
        let d = encode(&a, &b);
        // One record: skip varint + len varint + 3 literal bytes.
        assert!(d.len() <= 6, "got {}", d.len());
        assert_eq!(decode(&a, &d).unwrap(), b);
    }

    #[test]
    fn completely_different_blocks_roundtrip() {
        let a = block(|_| 0x00);
        let b = block(|_| 0xFF);
        let d = encode(&a, &b);
        assert!(d.len() >= 4096, "fully-different blocks cannot compress");
        assert_eq!(decode(&a, &d).unwrap(), b);
    }

    #[test]
    fn malformed_deltas_are_rejected() {
        let a = block(|_| 0);
        // Truncated literal run.
        let mut bad = Vec::new();
        crate::varint::encode(0, &mut bad);
        crate::varint::encode(100, &mut bad);
        bad.extend_from_slice(&[1, 2, 3]); // promises 100, delivers 3
        assert_eq!(decode(&a, &bad), None);
        // Run past the end of the block.
        let mut overrun = Vec::new();
        crate::varint::encode(4090, &mut overrun);
        crate::varint::encode(100, &mut overrun);
        overrun.extend_from_slice(&[0u8; 100]);
        assert_eq!(decode(&a, &overrun), None);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_panic() {
        let _ = encode(&[0u8; 100], &[0u8; 200]);
    }
}
