//! Golden delta vectors.
//!
//! These hex strings were produced by the original (pre-optimization)
//! scalar codecs: the HashMap-indexed chunk encoder with per-position
//! window-hash recomputation and the byte-at-a-time sparse scanner. The
//! optimized hot path — group-filtered scan, flat [`ChunkIndex`], word-wise
//! scanning, cached reference indexes — must stay **bit-compatible** so
//! that every EXPERIMENTS.md exhibit (delta sizes, SSD write volumes,
//! packing ratios) is unchanged. Any encoder change that shifts a single
//! byte fails here before it can silently shift results.

use icash_delta::codec::{chunk, sparse, ChunkIndex, DeltaCodec, Encoding};

fn patterned(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 31 + i / 7) % 256) as u8).collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Byte-at-a-time FNV-1a, written out locally so the pin does not depend on
/// any production hash implementation.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Encodes through every front-end path — uncached, cold cached index, warm
/// cached index, shared-buffer — and checks they all agree before returning
/// the delta for pinning.
fn encode_all_paths(codec: &DeltaCodec, reference: &[u8], target: &[u8]) -> icash_delta::Delta {
    let uncached = codec.encode(reference, target);
    let mut index = None;
    let cold = codec.encode_cached(reference, target, &mut index);
    let warm = codec.encode_cached(reference, target, &mut index);
    let shared = codec.encode_shared(
        reference,
        &bytes::Bytes::copy_from_slice(target),
        &mut index.clone(),
    );
    assert_eq!(uncached, cold, "cold cached encode diverged");
    assert_eq!(uncached, warm, "warm cached encode diverged");
    assert_eq!(uncached, shared, "shared-buffer encode diverged");
    uncached
}

#[test]
fn identity_vector() {
    let a = patterned(4096);
    let codec = DeltaCodec::default();
    let d = encode_all_paths(&codec, &a, &a.clone());
    assert_eq!(d.encoding(), Encoding::Identity);
    assert!(d.is_empty());
    assert_eq!(codec.decode(&a, &d).unwrap(), a);
}

#[test]
fn sparse_two_bit_flips_vector() {
    let a = patterned(4096);
    let mut b = a.clone();
    b[10] ^= 1;
    b[3000] ^= 1;
    let codec = DeltaCodec::default();
    let d = encode_all_paths(&codec, &a, &b);
    assert_eq!(d.encoding(), Encoding::Sparse);
    assert_eq!(hex(d.payload()), "0a0136ad1701f5");
    assert_eq!(codec.decode(&a, &d).unwrap(), b);
}

#[test]
fn sparse_clustered_writes_vector() {
    // The paper's "typical write": ~5% of the block changed in 4 clusters.
    let a = patterned(4096);
    let mut b = a.clone();
    for cluster in 0..4usize {
        let base = cluster * 1000 + 100;
        for i in 0..50 {
            b[base + i] = b[base + i].wrapping_add(13);
        }
    }
    let codec = DeltaCodec::default();
    let d = encode_all_paths(&codec, &a, &b);
    assert_eq!(d.encoding(), Encoding::Sparse);
    assert_eq!(d.len(), 211);
    assert_eq!(
        hex(d.payload()),
        "643237567594b3d3f211304f6e8dadcceb0a29486787a6c5e403224161809fbe\
         ddfc1b3b5a7998b7d6f51534537291b0cfef0e2db60732defd1c3b5a7999b8d7\
         f61534537392b1d0ef0e2d4d6c8baac9e80727466584a3c2e101203f5e7d9cb\
         bdbfa1938577695b5d4b6073285a4c3e201203f5f7e9dbcdbfa1939587796b5d\
         4f3133251708faecded0c2b4a6988a7c7e60524436281a1c0dffe1d3c5b7bb60\
         7322b4b6a89a8c7e60525446382a1c0dfff1e3d5c7b9ab9d9f81736557493b3d\
         2f1102f4e6d8daccbea0928476786a5c4e30221"
    );
    assert_eq!(codec.decode(&a, &d).unwrap(), b);
}

#[test]
fn chunk_front_insertion_vector() {
    // 16 inserted bytes shift everything: one ADD + one big COPY.
    let a = patterned(4096);
    let mut b = vec![0xEEu8; 16];
    b.extend_from_slice(&a[..4080]);
    let codec = DeltaCodec::default();
    let d = encode_all_paths(&codec, &a, &b);
    assert_eq!(d.encoding(), Encoding::Chunk);
    assert_eq!(
        hex(d.payload()),
        "0010eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee0100f01f"
    );
    assert_eq!(codec.decode(&a, &d).unwrap(), b);
}

#[test]
fn chunk_rearranged_halves_vector() {
    let a = patterned(4096);
    let mut b = Vec::with_capacity(4096);
    b.extend_from_slice(&a[2048..]);
    b.extend_from_slice(&a[..2048]);
    let codec = DeltaCodec::default();
    let d = encode_all_paths(&codec, &a, &b);
    assert_eq!(d.encoding(), Encoding::Chunk);
    assert_eq!(hex(d.payload()), "018002801001008010");
    assert_eq!(codec.decode(&a, &d).unwrap(), b);
}

#[test]
fn raw_unrelated_content_vector() {
    let a = vec![0u8; 4096];
    let b: Vec<u8> = (0..4096).map(|i| ((i * 7919 + 13) % 251) as u8).collect();
    let codec = DeltaCodec::default();
    let d = encode_all_paths(&codec, &a, &b);
    assert_eq!(d.encoding(), Encoding::Raw);
    assert_eq!(d.len(), 4096);
    assert_eq!(d.payload(), &b[..]);
    assert_eq!(fnv1a(d.payload()), 0x83c8_8f2d_bb30_94b8);
    assert_eq!(codec.decode(&a, &d).unwrap(), b);
}

#[test]
fn raw_chunk_codec_vectors_standalone() {
    // The chunk codec's own output (bypassing the front-end) through a
    // prebuilt index, pinned against the seed encoder's bytes.
    let a = patterned(4096);
    let index = ChunkIndex::build(&a);
    let mut b = vec![0xEEu8; 16];
    b.extend_from_slice(&a[..4080]);
    assert_eq!(
        hex(&chunk::encode_with_index(&index, &a, &b)),
        "0010eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee0100f01f"
    );
    assert_eq!(
        hex(&chunk::encode(&a, &b)),
        hex(&chunk::encode_with_index(&index, &a, &b))
    );
}

#[test]
fn sparse_codec_vector_standalone() {
    let a = patterned(4096);
    let mut b = a.clone();
    b[10] ^= 1;
    b[3000] ^= 1;
    assert_eq!(hex(&sparse::encode(&a, &b)), "0a0136ad1701f5");
}
