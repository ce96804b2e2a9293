//! Delta-codec throughput: the computation I-CASH trades for I/O.
//!
//! The paper reports ~15 µs to derive a delta and ~10 µs to combine one on
//! a 1.8 GHz Xeon; these benches measure our codec on the same 4 KB blocks
//! across the content regimes the evaluation generates.

use criterion::{criterion_group, criterion_main, Criterion};
use icash_delta::codec::DeltaCodec;
use icash_delta::signature::BlockSignature;
use icash_storage::block::{BlockBuf, Lba};
use icash_workloads::content::{ContentModel, ContentProfile};
use std::hint::black_box;

fn patterned(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 31 + i / 7) % 256) as u8).collect()
}

fn similar_pair() -> (Vec<u8>, Vec<u8>) {
    let a = patterned(4096);
    let mut b = a.clone();
    // The paper's typical write: ~8 % of the block in a few clusters.
    for cluster in 0..4usize {
        let base = cluster * 1000 + 50;
        for i in 0..80 {
            b[base + i] = b[base + i].wrapping_add(31);
        }
    }
    (a, b)
}

fn unrelated_pair() -> (Vec<u8>, Vec<u8>) {
    let a = patterned(4096);
    let b: Vec<u8> = (0..4096).map(|i| ((i * 7919 + 13) % 251) as u8).collect();
    (a, b)
}

fn bench_codec(c: &mut Criterion) {
    let codec = DeltaCodec::default();
    let mut group = c.benchmark_group("delta_codec");

    for (name, make) in [
        ("similar", similar_pair as fn() -> (Vec<u8>, Vec<u8>)),
        ("unrelated", unrelated_pair),
    ] {
        let (a, b) = make();
        group.bench_function(format!("encode_{name}"), |bench| {
            bench.iter(|| codec.encode(black_box(&a), black_box(&b)))
        });
        let delta = codec.encode(&a, &b);
        group.bench_function(format!("decode_{name}"), |bench| {
            bench.iter(|| codec.decode(black_box(&a), black_box(&delta)).unwrap())
        });
    }

    group.bench_function("signature_4k", |bench| {
        let (a, _) = similar_pair();
        bench.iter(|| BlockSignature::of(black_box(&a)))
    });

    group.bench_function("digest_4k", |bench| {
        let buf = BlockBuf::from_vec(patterned(4096));
        bench.iter(|| black_box(&buf).digest())
    });

    // What an encode costs inside the controller, which the loops above
    // cannot show: they revisit one pair, so both blocks and the output stay
    // in the CPU cache. Here a few families of the Hadoop cell's log text
    // are revisited — a block written against a reference that is another
    // member of its family, as a span write does.
    let model = ContentModel::new(0x1CA5_4001, ContentProfile::log_text());
    let family_blocks = model.profile().family_blocks;
    let families: Vec<(BlockBuf, BlockBuf)> = (0..64u64)
        .map(|family| {
            let first = family * family_blocks;
            (
                model.content_at(Lba::new(first), 0),
                model.content_at(Lba::new(first + 1), 1),
            )
        })
        .collect();

    group.bench_function("encode_inplace_family_warm", |bench| {
        let mut i = 0usize;
        bench.iter(|| {
            let (reference, target) = &families[i % families.len()];
            i += 1;
            codec.encode_shared(black_box(reference.as_slice()), target.as_bytes())
        })
    });

    // A block with no reference worth binding to is encoded against the
    // all-zero block. For unique content that encode finds nothing and ends
    // up raw, sharing the target's buffer.
    group.bench_function("encode_zero_reference_unique", |bench| {
        let unique = ContentModel::new(0x1CA5_4001, ContentProfile::incompressible());
        let targets: Vec<BlockBuf> = (0..512)
            .map(|i| unique.content_at(Lba::new(i), 0))
            .collect();
        let zero_reference = [0u8; 4096];
        let mut i = 0usize;
        bench.iter(|| {
            let target = &targets[i % targets.len()];
            i += 1;
            codec.encode_shared(black_box(&zero_reference), target.as_bytes())
        })
    });

    group.bench_function("encode_roundtrip_batch64", |bench| {
        // A flush-sized batch: 64 similar blocks encoded back to back. The
        // blocks outlive the loop, so only the encodes are timed.
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..64).map(|_| similar_pair()).collect();
        bench.iter(|| {
            for (a, b) in &pairs {
                black_box(codec.encode(a, b));
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
