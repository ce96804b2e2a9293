//! Property-based tests for the delta machinery: whatever the content, the
//! codec must reconstruct targets exactly, signatures must respond to
//! mutations locally, and varints must roundtrip.

use icash_delta::codec::{sparse, DeltaCodec, Encoding};
use icash_delta::signature::{BlockSignature, SUB_BLOCK_SIZE};
use icash_delta::varint;
use proptest::prelude::*;

/// A 4096-byte block built from a compact description (keeps shrinking fast).
fn block_strategy() -> impl Strategy<Value = Vec<u8>> {
    (any::<u64>(), 0u8..4).prop_map(|(seed, kind)| {
        let mut state = seed | 1;
        (0..4096usize)
            .map(|i| match kind {
                0 => 0u8,                        // constant
                1 => (i % 256) as u8,            // ramp
                2 => ((i / 64) % 256) as u8,     // plateaus
                _ => xorshift(&mut state) as u8, // noise
            })
            .collect()
    })
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One step of an encode sequence: a reference/target pair built to land on
/// a given codec outcome.
fn encode_step() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (block_strategy(), any::<u64>(), 0u8..5).prop_map(|(base, seed, kind)| {
        let mut state = seed | 1;
        let mut target = base.clone();
        match kind {
            0 => {} // identity
            1 => {
                // A few changed bytes: a short sparse payload.
                for _ in 0..4 {
                    let pos = xorshift(&mut state) as usize % 4096;
                    target[pos] ^= 0x55;
                }
            }
            2 => {
                // Many scattered changes: a long sparse payload.
                for _ in 0..700 {
                    let pos = xorshift(&mut state) as usize % 4096;
                    target[pos] = target[pos].wrapping_add(1 + (xorshift(&mut state) % 255) as u8);
                }
            }
            3 => {
                // Shifted content: nothing sits where it sat, so nearly
                // the whole block is literal — long sparse, or raw.
                let shift = 1 + xorshift(&mut state) as usize % 200;
                target = vec![0xA5; shift];
                target.extend_from_slice(&base[..4096 - shift]);
            }
            _ => {
                // Unrelated noise: raw.
                target = (0..4096).map(|_| xorshift(&mut state) as u8).collect();
            }
        }
        (base, target)
    })
}

/// A mutation plan: positions and replacement bytes applied to a base block.
fn mutations() -> impl Strategy<Value = Vec<(usize, u8)>> {
    prop::collection::vec((0usize..4096, any::<u8>()), 0..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full codec reconstructs any mutated target exactly.
    #[test]
    fn codec_roundtrip_mutations(base in block_strategy(), muts in mutations()) {
        let mut target = base.clone();
        for (pos, byte) in muts {
            target[pos] = byte;
        }
        let codec = DeltaCodec::default();
        let delta = codec.encode(&base, &target);
        prop_assert_eq!(codec.decode(&base, &delta).unwrap(), target);
    }

    /// The codec reconstructs even unrelated reference/target pairs.
    #[test]
    fn codec_roundtrip_unrelated(a in block_strategy(), b in block_strategy()) {
        let codec = DeltaCodec::default();
        let delta = codec.encode(&a, &b);
        prop_assert_eq!(codec.decode(&a, &delta).unwrap(), b);
        // A delta never costs more than a raw block (plus its tag byte).
        prop_assert!(delta.len() <= 4096);
    }

    /// Sparse codec: standalone roundtrip.
    #[test]
    fn sparse_roundtrip(a in block_strategy(), muts in mutations()) {
        let mut b = a.clone();
        for (pos, byte) in muts {
            b[pos] = byte;
        }
        let d = sparse::encode(&a, &b);
        prop_assert_eq!(sparse::decode(&a, &d).unwrap(), b);
    }

    /// Fewer mutated bytes never produce a *larger* class of signature
    /// change: mutating k sub-blocks changes at most k sub-signatures.
    #[test]
    fn signature_changes_are_local(base in block_strategy(), muts in mutations()) {
        let mut target = base.clone();
        let mut touched = std::collections::HashSet::new();
        for (pos, byte) in muts {
            target[pos] = byte;
            touched.insert(pos / SUB_BLOCK_SIZE);
        }
        let d = BlockSignature::of(&base).distance(&BlockSignature::of(&target));
        prop_assert!(d <= touched.len(),
            "distance {} exceeds {} touched sub-blocks", d, touched.len());
    }

    /// Varint roundtrip over the full u64 range.
    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        varint::encode(v, &mut buf);
        let (back, used) = varint::decode(&buf).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(used, buf.len());
        prop_assert!(buf.len() <= 10);
    }

    /// The one choice the encoder makes: nothing for equal blocks, else the
    /// sparse records if they are smaller than the block, else the block —
    /// the smaller of the two, and never anything else. The shared-buffer
    /// entry point makes the same one.
    #[test]
    fn encode_emits_the_smaller_of_sparse_and_raw((reference, target) in encode_step()) {
        let codec = DeltaCodec::default();
        let delta = codec.encode(&reference, &target);
        let records = sparse::encode(&reference, &target);
        let (encoding, payload) = if records.is_empty() {
            (Encoding::Identity, &[][..])
        } else if records.len() < target.len() {
            (Encoding::Sparse, &records[..])
        } else {
            (Encoding::Raw, &target[..])
        };
        prop_assert_eq!(delta.encoding(), encoding);
        prop_assert_eq!(delta.payload(), payload);
        let shared = codec.encode_shared(&reference, &bytes::Bytes::copy_from_slice(&target));
        prop_assert_eq!(&delta, &shared);
    }

    /// One codec reused across encodes of every outcome, in any order —
    /// long payloads before short ones — yields what a fresh codec yields
    /// for each call: nothing of one encode survives in the scratch buffer
    /// to leak into the next.
    #[test]
    fn reused_codec_encodes_like_a_fresh_one(steps in prop::collection::vec(encode_step(), 1..12)) {
        let reused = DeltaCodec::default();
        for (reference, target) in &steps {
            let delta = reused.encode(reference, target);
            prop_assert_eq!(&delta, &DeltaCodec::default().encode(reference, target));
            prop_assert_eq!(&reused.decode(reference, &delta).unwrap(), target);
        }
    }

    /// Decoding arbitrary garbage never panics (it may error).
    #[test]
    fn decode_never_panics_on_garbage(reference in block_strategy(),
                                      garbage in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = sparse::decode(&reference, &garbage);
    }
}
