//! Delta compression front-end.
//!
//! [`DeltaCodec::encode`] derives the smallest delta it can between a
//! reference block and a target block, choosing between the skip/literal
//! codec ([`sparse`]) for in-place changes, the chunk-match codec
//! ([`chunk`]) for shifted content, and raw storage when the blocks share
//! nothing. [`DeltaCodec::decode`] reconstructs the target exactly, and
//! [`DeltaCodec::decode_into`] does so in the caller's copy of the
//! reference, so a read that decodes allocates and copies its 4 KB once.
//!
//! Hot-path variants: [`DeltaCodec::encode_cached`] reuses (and lazily
//! populates) a per-reference [`ChunkIndex`] so the chunk codec does not
//! re-index the reference block on every call, and
//! [`DeltaCodec::encode_shared`] additionally takes the target as a
//! [`Bytes`] buffer so a raw fallback clones a refcount instead of 4 KB.
//! All variants produce identical [`Delta`]s.
//!
//! Both codecs write into scratch buffers the [`DeltaCodec`] keeps, and the
//! winning payload is copied out once into an allocation of exactly its
//! size. Growing a fresh `Vec` per encode and converting it costs a ladder
//! of reallocations plus a shrinking copy, and over-sized payloads would
//! sit in the controller's RAM buffer for as long as the delta does.

pub mod chunk;
pub mod chunk_index;
pub(crate) mod scan;
pub mod sparse;

pub use chunk_index::ChunkIndex;

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// How a [`Delta`]'s payload is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Encoding {
    /// Target is byte-identical to the reference; no payload.
    Identity,
    /// Skip/literal records ([`sparse`]).
    Sparse,
    /// COPY/ADD instructions ([`chunk`]).
    Chunk,
    /// The target itself, uncompressed (no useful similarity).
    Raw,
}

/// A compressed difference between a target block and its reference block.
///
/// The payload is a [`Bytes`] buffer, so cloning a `Delta` — which the
/// controller does when packing segments, appending to the delta log, and
/// unpacking log segments — bumps a refcount instead of copying the bytes.
///
/// # Examples
///
/// ```
/// use icash_delta::codec::DeltaCodec;
///
/// let reference = vec![7u8; 4096];
/// let mut target = reference.clone();
/// target[100] = 42;
///
/// let codec = DeltaCodec::default();
/// let delta = codec.encode(&reference, &target);
/// assert!(delta.len() < 16);
/// assert_eq!(codec.decode(&reference, &delta).unwrap(), target);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delta {
    encoding: Encoding,
    payload: Bytes,
}

impl Delta {
    /// An identity delta (target equals reference).
    pub fn identity() -> Self {
        Delta {
            encoding: Encoding::Identity,
            payload: Bytes::new(),
        }
    }

    /// The payload encoding.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Encoded payload size in bytes — the quantity compared against the
    /// paper's 2048-byte delta threshold and packed into delta blocks.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty (identity deltas).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// The raw payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The payload as a shared buffer (clone to share, never to copy).
    pub fn payload_bytes(&self) -> &Bytes {
        &self.payload
    }

    /// Total wire size including the 1-byte encoding tag.
    pub fn wire_len(&self) -> usize {
        1 + self.payload.len()
    }
}

/// Errors from [`DeltaCodec::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError;

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "malformed delta payload")
    }
}

impl std::error::Error for DecodeError {}

/// The delta compression engine.
#[derive(Debug, Clone)]
pub struct DeltaCodec {
    /// Sparse encodings at or below this size are accepted without trying
    /// the (more expensive) chunk codec.
    sparse_good_enough: usize,
    /// Encode buffers reused across calls; each encoder clears its own
    /// before writing, so nothing of one call is visible to the next.
    scratch: RefCell<Scratch>,
}

#[derive(Debug, Clone, Default)]
struct Scratch {
    sparse: Vec<u8>,
    chunk: Vec<u8>,
}

impl DeltaCodec {
    /// Creates a codec; `sparse_good_enough` is the sparse-encoding size (in
    /// bytes) below which the chunk codec is not attempted.
    pub fn new(sparse_good_enough: usize) -> Self {
        DeltaCodec {
            sparse_good_enough,
            scratch: RefCell::default(),
        }
    }

    /// Derives the smallest delta from `reference` to `target`.
    ///
    /// Both slices must be the same length (one block). The result always
    /// decodes back to `target` exactly; if neither codec beats raw storage
    /// the delta is stored [`Encoding::Raw`].
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn encode(&self, reference: &[u8], target: &[u8]) -> Delta {
        self.encode_cached(reference, target, &mut None)
    }

    /// Like [`encode`](Self::encode), but reuses `index` across calls that
    /// share a reference block.
    ///
    /// If the chunk codec runs and `index` is `None`, the reference is
    /// indexed and the index stored back for the next caller; sparse-only
    /// encodes never pay for it. The caller owns invalidation: `index` must
    /// either be `None` or have been built over this exact `reference`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn encode_cached(
        &self,
        reference: &[u8],
        target: &[u8],
        index: &mut Option<ChunkIndex>,
    ) -> Delta {
        self.encode_inner(reference, target, index, Bytes::copy_from_slice)
    }

    /// Like [`encode_cached`](Self::encode_cached), but takes the target as
    /// a shared [`Bytes`] buffer so a raw fallback reuses the caller's
    /// allocation instead of copying 4 KB.
    ///
    /// # Panics
    ///
    /// Panics if the buffers differ in length.
    pub fn encode_shared(
        &self,
        reference: &[u8],
        target: &Bytes,
        index: &mut Option<ChunkIndex>,
    ) -> Delta {
        self.encode_inner(reference, target, index, |_| target.clone())
    }

    fn encode_inner(
        &self,
        reference: &[u8],
        target: &[u8],
        index: &mut Option<ChunkIndex>,
        raw_payload: impl FnOnce(&[u8]) -> Bytes,
    ) -> Delta {
        assert_eq!(
            reference.len(),
            target.len(),
            "deltas are derived between equal-sized blocks"
        );
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { sparse, chunk } = &mut *scratch;
        sparse::encode_into(reference, target, sparse);
        if sparse.is_empty() {
            // No literal run: the blocks are equal.
            return Delta::identity();
        }
        if sparse.len() <= self.sparse_good_enough {
            return Delta {
                encoding: Encoding::Sparse,
                payload: Bytes::copy_from_slice(sparse),
            };
        }
        let index = index.get_or_insert_with(|| ChunkIndex::build(reference));
        chunk::encode_with_index_into(index, reference, target, chunk);
        let (encoding, payload) = if chunk.len() < sparse.len() {
            (Encoding::Chunk, chunk)
        } else {
            (Encoding::Sparse, sparse)
        };
        if payload.len() >= target.len() {
            return Delta {
                encoding: Encoding::Raw,
                payload: raw_payload(target),
            };
        }
        Delta {
            encoding,
            payload: Bytes::copy_from_slice(payload),
        }
    }

    /// Reconstructs the target block from `reference` and `delta`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the payload is malformed or does not
    /// reconstruct a block of the reference's size.
    pub fn decode(&self, reference: &[u8], delta: &Delta) -> Result<Vec<u8>, DecodeError> {
        let mut out = reference.to_vec();
        self.decode_into(reference, delta, &mut out)?;
        Ok(out)
    }

    /// [`decode`](Self::decode) in the block the caller is building, which
    /// starts as its copy of the reference: `out` must arrive holding
    /// `reference`'s bytes and leaves holding the target's. An identity or
    /// sparse delta — nearly every delta the controller stores — then costs
    /// no copy beyond the caller's one: the literal runs are written over
    /// it. Chunk and raw deltas overwrite `out` whole.
    ///
    /// # Errors
    ///
    /// As for [`decode`](Self::decode); `out` is then partly written and
    /// must not be used as a block.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `reference` differ in length.
    pub fn decode_into(
        &self,
        reference: &[u8],
        delta: &Delta,
        out: &mut [u8],
    ) -> Result<(), DecodeError> {
        assert_eq!(
            reference.len(),
            out.len(),
            "deltas are applied between equal-sized blocks"
        );
        debug_assert!(out == reference, "`out` starts as a copy of the reference");
        let payload = &delta.payload[..];
        let decoded = match delta.encoding {
            Encoding::Identity => Some(()),
            Encoding::Sparse => sparse::patch(out, payload),
            Encoding::Chunk => chunk::decode_into(reference, payload, out),
            Encoding::Raw => (payload.len() == out.len()).then(|| out.copy_from_slice(payload)),
        };
        decoded.ok_or(DecodeError)
    }
}

impl Default for DeltaCodec {
    /// A codec tuned for I-CASH: sparse encodings under 512 bytes (an
    /// eighth of a block) skip the chunk attempt.
    fn default() -> Self {
        DeltaCodec::new(512)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 31 + i / 7) % 256) as u8).collect()
    }

    #[test]
    fn identity_for_equal_blocks() {
        let a = patterned(4096);
        let codec = DeltaCodec::default();
        let d = codec.encode(&a, &a);
        assert_eq!(d.encoding(), Encoding::Identity);
        assert_eq!(d.len(), 0);
        assert_eq!(codec.decode(&a, &d).unwrap(), a);
    }

    #[test]
    fn small_changes_choose_sparse() {
        let a = patterned(4096);
        let mut b = a.clone();
        b[10] ^= 1;
        b[3000] ^= 1;
        let codec = DeltaCodec::default();
        let d = codec.encode(&a, &b);
        assert_eq!(d.encoding(), Encoding::Sparse);
        assert!(d.len() < 32);
        assert_eq!(codec.decode(&a, &d).unwrap(), b);
    }

    #[test]
    fn shifted_content_chooses_chunk() {
        let a = patterned(4096);
        let mut b = vec![0xEEu8; 16];
        b.extend_from_slice(&a[..4080]);
        let codec = DeltaCodec::default();
        let d = codec.encode(&a, &b);
        assert_eq!(d.encoding(), Encoding::Chunk);
        assert!(d.len() < 256);
        assert_eq!(codec.decode(&a, &d).unwrap(), b);
    }

    #[test]
    fn unrelated_content_falls_back_to_raw() {
        let a = vec![0u8; 4096];
        let b: Vec<u8> = (0..4096).map(|i| ((i * 7919 + 13) % 251) as u8).collect();
        let codec = DeltaCodec::default();
        let d = codec.encode(&a, &b);
        assert_eq!(d.encoding(), Encoding::Raw);
        assert_eq!(d.len(), 4096);
        assert_eq!(codec.decode(&a, &d).unwrap(), b);
    }

    #[test]
    fn cached_index_is_populated_lazily_and_reused() {
        let a = patterned(4096);
        let codec = DeltaCodec::default();
        let mut index = None;

        // Sparse-only encode: the chunk index is never built.
        let mut b = a.clone();
        b[100] ^= 0xFF;
        let d = codec.encode_cached(&a, &b, &mut index);
        assert_eq!(d.encoding(), Encoding::Sparse);
        assert!(index.is_none(), "sparse path must not build the index");

        // Chunk encode: builds the index, result identical to uncached.
        let mut shifted = vec![0xEEu8; 16];
        shifted.extend_from_slice(&a[..4080]);
        let cached = codec.encode_cached(&a, &shifted, &mut index);
        assert!(index.is_some(), "chunk path populates the index");
        assert_eq!(cached, codec.encode(&a, &shifted));

        // Reuse: same answer through the now-warm index.
        assert_eq!(codec.encode_cached(&a, &shifted, &mut index), cached);
    }

    #[test]
    fn shared_raw_payload_reuses_target_buffer() {
        let a = vec![0u8; 4096];
        let b: Bytes = (0..4096u32)
            .map(|i| ((i * 7919 + 13) % 251) as u8)
            .collect();
        let codec = DeltaCodec::default();
        let d = codec.encode_shared(&a, &b, &mut None);
        assert_eq!(d.encoding(), Encoding::Raw);
        assert!(
            std::ptr::eq(d.payload().as_ptr(), b.as_ptr()),
            "raw payload must share the target allocation"
        );
        assert_eq!(codec.decode(&a, &d).unwrap(), &b[..]);
    }

    /// `decode` as it was before `decode_into`: each encoding decoded into a
    /// `Vec` of its own, the length checked afterwards. Kept as the oracle.
    fn decode_to_vec(reference: &[u8], delta: &Delta) -> Result<Vec<u8>, DecodeError> {
        let out = match delta.encoding {
            Encoding::Identity => reference.to_vec(),
            Encoding::Sparse => sparse::decode(reference, &delta.payload).ok_or(DecodeError)?,
            Encoding::Chunk => chunk::decode(reference, &delta.payload).ok_or(DecodeError)?,
            Encoding::Raw => delta.payload.to_vec(),
        };
        if out.len() != reference.len() {
            return Err(DecodeError);
        }
        Ok(out)
    }

    /// Targets that land on each encoding, from a seed.
    fn target_of(reference: &[u8], kind: u8, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut target = reference.to_vec();
        match kind {
            0 => {}
            1 => (0..4).for_each(|_| target[next() as usize % 4096] ^= 0x55),
            2 => (0..700).for_each(|_| target[next() as usize % 4096] = next() as u8),
            3 => {
                let shift = 1 + next() as usize % 200;
                target = vec![0xA5; shift];
                target.extend_from_slice(&reference[..4096 - shift]);
            }
            _ => target.iter_mut().for_each(|b| *b = next() as u8),
        }
        target
    }

    proptest::proptest! {
        /// Whatever the codec emits, and whatever a corrupted log could
        /// hold in its place (any tag over a truncated, spliced or
        /// arbitrary payload), `decode_into` and the `Vec` decoder agree:
        /// the same block, or the same refusal.
        #[test]
        fn decode_into_equals_decode_to_vec(
            kind in 0u8..5,
            seed in proptest::strategy::any::<u64>(),
            damage in 0u8..4,
            tag in 0usize..4,
            cut in 0usize..4200,
            garbage in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..64),
        ) {
            let reference = patterned(4096);
            let codec = DeltaCodec::default();
            let emitted = codec.encode(&reference, &target_of(&reference, kind, seed));
            let mut payload = emitted.payload().to_vec();
            let mut encoding = emitted.encoding();
            match damage {
                0 => {} // as emitted
                1 => payload.truncate(cut % (payload.len() + 1)),
                2 => {
                    let at = cut % (payload.len() + 1);
                    payload.splice(at..at, garbage.iter().copied());
                }
                _ => {
                    let tags = [Encoding::Identity, Encoding::Sparse, Encoding::Chunk, Encoding::Raw];
                    encoding = tags[tag];
                }
            }
            let delta = Delta { encoding, payload: Bytes::from(payload) };

            let mut out = reference.clone();
            let into = codec.decode_into(&reference, &delta, &mut out).map(|()| out);
            proptest::prop_assert_eq!(&into, &decode_to_vec(&reference, &delta));
            proptest::prop_assert_eq!(&into, &codec.decode(&reference, &delta));
            if damage == 0 {
                proptest::prop_assert!(into.is_ok(), "the codec's own deltas decode");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-sized")]
    fn decode_into_a_wrong_sized_block_panics() {
        let a = patterned(4096);
        let codec = DeltaCodec::default();
        let _ = codec.decode_into(&a, &Delta::identity(), &mut [0u8; 100]);
    }

    #[test]
    fn wire_len_includes_tag() {
        let d = Delta::identity();
        assert_eq!(d.wire_len(), 1);
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "equal-sized")]
    fn size_mismatch_panics() {
        let codec = DeltaCodec::default();
        let _ = codec.encode(&[0u8; 4096], &[0u8; 100]);
    }
}
