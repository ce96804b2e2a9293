//! Property-based tests for the delta machinery: whatever the content, the
//! codec must reconstruct targets exactly, signatures must respond to
//! mutations locally, and varints must roundtrip.

use icash_delta::codec::chunk_index::{MAX_CANDIDATES, STRIDE, WINDOW};
use icash_delta::codec::{chunk, sparse, ChunkIndex, DeltaCodec};
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

/// A reference for the chunk index, of any length: noise, all-equal, a
/// short repeating period (few distinct hashes, long chains), or shorter
/// than one window.
fn reference_strategy() -> impl Strategy<Value = Vec<u8>> {
    (any::<u64>(), 0u8..4, 0usize..4200).prop_map(|(seed, kind, len)| {
        let mut state = seed | 1;
        match kind {
            0 => (0..len).map(|_| xorshift(&mut state) as u8).collect(),
            1 => vec![seed as u8; len],
            2 => {
                let period: Vec<u8> = (0..seed % 23 + 1)
                    .map(|_| xorshift(&mut state) as u8)
                    .collect();
                (0..len).map(|i| period[i % period.len()]).collect()
            }
            _ => (0..len % WINDOW)
                .map(|_| xorshift(&mut state) as u8)
                .collect(),
        }
    })
}

/// The window hash, written out locally (Horner, `P = 1_000_003`, mod 2^64)
/// so the index is checked against the definition, not against itself.
fn window_hash(window: &[u8]) -> u64 {
    window.iter().fold(0u64, |h, &b| {
        h.wrapping_mul(1_000_003).wrapping_add(b as u64)
    })
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
                // A few changed bytes: sparse, accepted outright.
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
                // Shifted content: chunk territory.
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

    /// Chunk codec: standalone roundtrip including shifts.
    #[test]
    fn chunk_roundtrip_with_shift(a in block_strategy(), shift in 0usize..128) {
        let mut b = vec![0x5Au8; shift];
        b.extend_from_slice(&a[..4096 - shift]);
        let d = chunk::encode(&a, &b);
        prop_assert_eq!(chunk::decode(&a, &d).unwrap(), b);
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

    /// Differential: a cached reference index yields byte-identical deltas
    /// to the uncached path — for mutated targets (sparse territory),
    /// through cold and warm indexes, and for shared-buffer raw fallbacks.
    #[test]
    fn cached_index_encodes_identically(base in block_strategy(),
                                        muts in mutations(),
                                        unrelated in block_strategy()) {
        let mut target = base.clone();
        for (pos, byte) in muts {
            target[pos] = byte;
        }
        let codec = DeltaCodec::default();
        let mut index = None;
        for t in [&target, &unrelated] {
            let uncached = codec.encode(&base, t);
            let cached = codec.encode_cached(&base, t, &mut index);
            prop_assert_eq!(&uncached, &cached);
            let shared = codec.encode_shared(
                &base, &bytes::Bytes::copy_from_slice(t), &mut index);
            prop_assert_eq!(&uncached, &shared);
        }
    }

    /// Differential: shifted targets (chunk territory) encode identically
    /// through a prebuilt index and a throwaway one.
    #[test]
    fn chunk_index_reuse_is_exact(a in block_strategy(), shift in 0usize..128) {
        let mut b = vec![0x5Au8; shift];
        b.extend_from_slice(&a[..4096 - shift]);
        let index = ChunkIndex::build(&a);
        prop_assert_eq!(
            chunk::encode_with_index(&index, &a, &b),
            chunk::encode(&a, &b)
        );
    }

    /// The index against the naive `HashMap<hash, Vec<pos>>` it replaced:
    /// every present hash yields its first `MAX_CANDIDATES` positions in
    /// ascending order, and absent hashes — including the few that get past
    /// the bitmap — yield none.
    #[test]
    fn index_matches_naive_candidates(reference in reference_strategy(), probe_seed in any::<u64>()) {
        let mut naive: std::collections::HashMap<u64, Vec<u32>> = Default::default();
        let mut pos = 0;
        while pos + WINDOW <= reference.len() {
            naive
                .entry(window_hash(&reference[pos..pos + WINDOW]))
                .or_default()
                .push(pos as u32);
            pos += STRIDE;
        }
        let index = ChunkIndex::build(&reference);
        prop_assert_eq!(index.ref_len(), reference.len());
        for (hash, positions) in &naive {
            let got: Vec<u32> = index.candidates(*hash).collect();
            let want = &positions[..positions.len().min(MAX_CANDIDATES)];
            prop_assert_eq!(&got[..], want, "candidates for hash {:#x}", hash);
        }
        let mut state = probe_seed | 1;
        for _ in 0..2000 {
            let absent = xorshift(&mut state);
            if !naive.contains_key(&absent) {
                prop_assert_eq!(index.candidates(absent).count(), 0);
            }
        }
    }

    /// One codec reused across encodes of every outcome, in any order —
    /// long payloads before short ones — yields what a fresh codec yields
    /// for each call: nothing of one encode survives in the scratch buffers
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
        let _ = chunk::decode(&reference, &garbage);
    }
}
