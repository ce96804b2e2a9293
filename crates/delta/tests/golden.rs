//! Golden delta vectors.
//!
//! These hex strings were produced by the original (pre-optimization)
//! byte-at-a-time sparse scanner. The word-wise scanner on the hot path must
//! stay **bit-compatible** so that every EXPERIMENTS.md exhibit (delta
//! sizes, SSD write volumes, packing ratios) is unchanged. Any encoder
//! change that shifts a single byte fails here before it can silently shift
//! results.

use icash_delta::codec::{sparse, DeltaCodec, Encoding};

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

/// Encodes through both front-end entry points — borrowed target and
/// shared buffer — and checks they agree before returning the delta for
/// pinning.
fn encode_all_paths(codec: &DeltaCodec, reference: &[u8], target: &[u8]) -> icash_delta::Delta {
    let borrowed = codec.encode(reference, target);
    let shared = codec.encode_shared(reference, &bytes::Bytes::copy_from_slice(target));
    assert_eq!(borrowed, shared, "shared-buffer encode diverged");
    borrowed
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
fn sparse_codec_vector_standalone() {
    let a = patterned(4096);
    let mut b = a.clone();
    b[10] ^= 1;
    b[3000] ^= 1;
    assert_eq!(hex(&sparse::encode(&a, &b)), "0a0136ad1701f5");
}
