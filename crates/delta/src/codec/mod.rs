//! Delta compression front-end.
//!
//! [`DeltaCodec::encode`] derives a delta between a reference block and a
//! target block the way the paper's §3.1 does — changed bytes where they
//! sit: skip/literal records ([`sparse`]), nothing at all when the blocks
//! are equal, and the target itself (raw) when the records would reach a
//! block. [`DeltaCodec::decode`] reconstructs the target exactly, and
//! [`DeltaCodec::decode_into`] does so in the caller's copy of the
//! reference, so a read that decodes allocates and copies its 4 KB once.
//!
//! [`DeltaCodec::encode_shared`] takes the target as a [`Bytes`] buffer so
//! a raw fallback clones a refcount instead of 4 KB; it produces the same
//! [`Delta`] as [`DeltaCodec::encode`].
//!
//! The encoder writes into a scratch buffer the [`DeltaCodec`] keeps, and
//! the payload is copied out once into an allocation of exactly its size.
//! Growing a fresh `Vec` per encode and converting it costs a ladder of
//! reallocations plus a shrinking copy, and over-sized payloads would sit in
//! the controller's RAM buffer for as long as the delta does.

pub(crate) mod scan;
pub mod sparse;

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// How a [`Delta`]'s payload is encoded.
///
/// The discriminant is the 1-byte tag a stored delta is framed with. Tag 2
/// belonged to a retired encoding: nothing writes it, and
/// [`Encoding::try_from`] refuses it like any other unknown tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Encoding {
    /// Target is byte-identical to the reference; no payload.
    Identity = 0,
    /// Skip/literal records ([`sparse`]).
    Sparse = 1,
    /// The target itself, uncompressed (no useful similarity).
    Raw = 3,
}

impl TryFrom<u8> for Encoding {
    type Error = DecodeError;

    fn try_from(tag: u8) -> Result<Self, DecodeError> {
        [Encoding::Identity, Encoding::Sparse, Encoding::Raw]
            .into_iter()
            .find(|&encoding| encoding as u8 == tag)
            .ok_or(DecodeError)
    }
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
#[derive(Debug, Clone, Default)]
pub struct DeltaCodec {
    /// The encode buffer, reused across calls; the encoder clears it before
    /// writing, so nothing of one call is visible to the next.
    scratch: RefCell<Vec<u8>>,
}

impl DeltaCodec {
    /// Derives the delta from `reference` to `target`.
    ///
    /// Both slices must be the same length (one block). The result always
    /// decodes back to `target` exactly; if the skip/literal records would
    /// not be smaller than the block the delta is stored [`Encoding::Raw`].
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn encode(&self, reference: &[u8], target: &[u8]) -> Delta {
        self.encode_inner(reference, target, Bytes::copy_from_slice)
    }

    /// Like [`encode`](Self::encode), but takes the target as a shared
    /// [`Bytes`] buffer so a raw fallback reuses the caller's allocation
    /// instead of copying 4 KB.
    ///
    /// # Panics
    ///
    /// Panics if the buffers differ in length.
    pub fn encode_shared(&self, reference: &[u8], target: &Bytes) -> Delta {
        self.encode_inner(reference, target, |_| target.clone())
    }

    fn encode_inner(
        &self,
        reference: &[u8],
        target: &[u8],
        raw_payload: impl FnOnce(&[u8]) -> Bytes,
    ) -> Delta {
        assert_eq!(
            reference.len(),
            target.len(),
            "deltas are derived between equal-sized blocks"
        );
        let mut sparse = self.scratch.borrow_mut();
        sparse::encode_into(reference, target, &mut sparse);
        let (encoding, payload) = match sparse.len() {
            // No literal run: the blocks are equal.
            0 => return Delta::identity(),
            n if n >= target.len() => (Encoding::Raw, raw_payload(target)),
            _ => (Encoding::Sparse, Bytes::copy_from_slice(&sparse)),
        };
        Delta { encoding, payload }
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
    /// it. A raw delta overwrites `out` whole.
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
            Encoding::Raw => (payload.len() == out.len()).then(|| out.copy_from_slice(payload)),
        };
        decoded.ok_or(DecodeError)
    }
}

// What `benchmark/`, which did not change with the encoder, still compiles
// against: the retired reference index and the encode that took one.

/// Nothing is left of it; ROADMAP item 1(g) deletes it.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct ChunkIndex;

impl ChunkIndex {
    /// Builds nothing; ROADMAP item 1(g) deletes it.
    #[doc(hidden)]
    pub fn build(_reference: &[u8]) -> Self {
        ChunkIndex
    }
}

impl DeltaCodec {
    /// [`encode`](Self::encode); ROADMAP item 1(g) deletes it.
    #[doc(hidden)]
    pub fn encode_cached(
        &self,
        reference: &[u8],
        target: &[u8],
        _index: &mut Option<ChunkIndex>,
    ) -> Delta {
        self.encode(reference, target)
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
    fn unrelated_content_falls_back_to_raw() {
        let a = vec![0u8; 4096];
        let b: Vec<u8> = (0..4096).map(|i| ((i * 7919 + 13) % 251) as u8).collect();
        let codec = DeltaCodec::default();
        let d = codec.encode(&a, &b);
        assert_eq!(d.encoding(), Encoding::Raw);
        assert_eq!(d.len(), 4096);
        assert_eq!(codec.decode(&a, &d).unwrap(), b);
    }

    /// `benchmark/` compiles against these names; breaking them fails here
    /// before it fails `benchmark/smoke.sh`.
    #[test]
    fn the_compatibility_surface_forwards_to_encode() {
        let a = patterned(4096);
        let codec = DeltaCodec::default();
        let mut index = Some(ChunkIndex::build(&a));
        for kind in 0..5 {
            let b = target_of(&a, kind, 7);
            let plain = codec.encode(&a, &b);
            assert_eq!(codec.encode_cached(&a, &b, &mut index), plain);
            assert_eq!(codec.encode_cached(&a, &b, &mut None), plain);
        }
    }

    #[test]
    fn shared_raw_payload_reuses_target_buffer() {
        let a = vec![0u8; 4096];
        let b: Bytes = (0..4096u32)
            .map(|i| ((i * 7919 + 13) % 251) as u8)
            .collect();
        let codec = DeltaCodec::default();
        let d = codec.encode_shared(&a, &b);
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
            Encoding::Raw => delta.payload.to_vec(),
        };
        if out.len() != reference.len() {
            return Err(DecodeError);
        }
        Ok(out)
    }

    /// Targets that land on each encoding — 2 is a long sparse payload, 3 a
    /// shifted block no in-place record can describe — from a seed.
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
        /// the same block, or the same refusal. A tag byte that names no
        /// encoding — the retired 2 among them — is refused before that.
        #[test]
        fn decode_into_equals_decode_to_vec(
            kind in 0u8..5,
            seed in proptest::strategy::any::<u64>(),
            damage in 0u8..4,
            tag in 0u8..5,
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
                _ => match Encoding::try_from(tag) {
                    Ok(other) => encoding = other,
                    // No such delta can be built: it stays as emitted.
                    Err(DecodeError) => proptest::prop_assert!(tag == 2 || tag == 4),
                },
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

    /// The tags a log frame's CRC covers stay where stored frames have
    /// them, and the retired one names nothing.
    #[test]
    fn wire_tags_are_pinned() {
        let tags = [Encoding::Identity, Encoding::Sparse, Encoding::Raw];
        assert_eq!(tags.map(|encoding| encoding as u8), [0, 1, 3]);
        assert_eq!(
            tags.map(|encoding| Encoding::try_from(encoding as u8)),
            tags.map(Ok)
        );
        assert_eq!(Encoding::try_from(2), Err(DecodeError));
    }

    #[test]
    fn an_identity_delta_is_empty() {
        let d = Delta::identity();
        assert_eq!(d.len(), 0);
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "equal-sized")]
    fn size_mismatch_panics() {
        let codec = DeltaCodec::default();
        let _ = codec.encode(&[0u8; 4096], &[0u8; 100]);
    }
}
