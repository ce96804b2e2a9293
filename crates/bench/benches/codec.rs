//! Delta-codec throughput: the computation I-CASH trades for I/O.
//!
//! The paper reports ~15 µs to derive a delta and ~10 µs to combine one on
//! a 1.8 GHz Xeon; these benches measure our codec on the same 4 KB blocks
//! across the content regimes the evaluation generates.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use icash_core::index_cache::RefIndexCache;
use icash_delta::codec::{ChunkIndex, DeltaCodec};
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

fn shifted_pair() -> (Vec<u8>, Vec<u8>) {
    let a = patterned(4096);
    let mut b = vec![0xEEu8; 24];
    b.extend_from_slice(&a[..4072]);
    (a, b)
}

/// The reference rotated by `shift` bytes: forces the chunk (COPY) path, so
/// every encode pays for reference-index candidate lookups.
fn rotated(a: &[u8], shift: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(a.len());
    v.extend_from_slice(&a[shift..]);
    v.extend_from_slice(&a[..shift]);
    v
}

fn bench_codec(c: &mut Criterion) {
    let codec = DeltaCodec::default();
    let mut group = c.benchmark_group("delta_codec");

    for (name, make) in [
        ("similar", similar_pair as fn() -> (Vec<u8>, Vec<u8>)),
        ("unrelated", unrelated_pair),
        ("shifted", shifted_pair),
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

    // The controller's hot case: one SSD-pinned reference serves encode
    // after encode (its own re-writes plus every bound associate). Uncached
    // rebuilds the chunk index per call — what the seed codec did
    // implicitly; cached reuses one index across the whole run, which is
    // what `Icash` now does per slot via its `RefIndexCache`.
    let reference = patterned(4096);
    let targets: Vec<Vec<u8>> = (0..32).map(|i| rotated(&reference, 64 + i * 96)).collect();

    group.bench_function("repeated_reference_encode_uncached", |bench| {
        let mut i = 0usize;
        bench.iter(|| {
            let d = codec.encode(
                black_box(&reference),
                black_box(&targets[i % targets.len()]),
            );
            i += 1;
            d
        })
    });

    group.bench_function("repeated_reference_encode_cached", |bench| {
        let mut index: Option<ChunkIndex> = None;
        let mut i = 0usize;
        bench.iter(|| {
            let d = codec.encode_cached(
                black_box(&reference),
                black_box(&targets[i % targets.len()]),
                &mut index,
            );
            i += 1;
            d
        })
    });

    // What an encode costs inside the controller, which the loops above
    // cannot show: they revisit one pair, so block, index and output stay in
    // the CPU cache. Here every encode meets a different reference of the
    // Hadoop cell's log text, as a span write does — a block written against
    // a reference that is another member of its family, which is chunk-codec
    // work — through the controller's own index cache. With more references
    // than the cache holds, each has been evicted by the time it comes round
    // again.
    let model = ContentModel::new(0x1CA5_4001, ContentProfile::log_text());
    let family_blocks = model.profile().family_blocks;
    let rotating: Vec<(BlockBuf, BlockBuf)> = (0..2048u64)
        .map(|family| {
            let first = family * family_blocks;
            (
                model.content_at(Lba::new(first), 0),
                model.content_at(Lba::new(first + 1), 1),
            )
        })
        .collect();

    group.bench_function("encode_rotating_refs_cold", |bench| {
        let mut cache = RefIndexCache::new();
        let mut i = 0usize;
        bench.iter(|| {
            let slot = i % rotating.len();
            let (reference, target) = &rotating[slot];
            i += 1;
            cache.with_slot(slot as u64, |index| {
                codec.encode_shared(black_box(reference.as_slice()), target.as_bytes(), index)
            })
        })
    });

    // The same traffic with the index at hand and everything warm: a few
    // families revisited, each reference's index built beforehand. This is
    // the chunk pass with nothing to wait for — what the repo benchmark's
    // `delta.encode_cached_ns_per_block` probe times.
    group.bench_function("encode_inplace_family_warm", |bench| {
        let warm = &rotating[..64];
        let mut indexes: Vec<Option<ChunkIndex>> = warm
            .iter()
            .map(|(reference, _)| Some(ChunkIndex::build(reference.as_slice())))
            .collect();
        let mut i = 0usize;
        bench.iter(|| {
            let (reference, target) = &warm[i % warm.len()];
            let index = &mut indexes[i % warm.len()];
            i += 1;
            codec.encode_shared(black_box(reference.as_slice()), target.as_bytes(), index)
        })
    });

    // A block with no reference worth binding to is encoded against the
    // all-zero block, through an index the controller builds once and keeps
    // for good (`RefIndexCache`'s zero entry, held here as a local). For
    // unique content that encode finds nothing and ends up raw.
    group.bench_function("encode_zero_reference_unique", |bench| {
        let unique = ContentModel::new(0x1CA5_4001, ContentProfile::incompressible());
        let targets: Vec<BlockBuf> = (0..512)
            .map(|i| unique.content_at(Lba::new(i), 0))
            .collect();
        let zero_reference = [0u8; 4096];
        let mut zero_entry: Option<ChunkIndex> = None;
        let mut i = 0usize;
        bench.iter(|| {
            let target = &targets[i % targets.len()];
            i += 1;
            codec.encode_shared(
                black_box(&zero_reference),
                target.as_bytes(),
                &mut zero_entry,
            )
        })
    });

    // The texture the group filter is weakest on: reference and target draw
    // 4-byte words from one 16-word dictionary, independently. Every target
    // group is somewhere in the reference, so every aligned position passes
    // the six-group test, is hashed and walks a chain — and almost none of
    // the lookups finds its 16-byte window, let alone 24 bytes.
    group.bench_function("encode_dictionary_unrelated", |bench| {
        let words: Vec<[u8; 4]> = (0..16u32)
            .map(|w| w.wrapping_mul(0x9E37_79B9).to_le_bytes())
            .collect();
        let drawn = |seed: u32| -> Vec<u8> {
            let mut state = seed;
            (0..1024)
                .flat_map(|_| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    words[(state >> 28) as usize]
                })
                .collect()
        };
        let reference = drawn(1);
        let targets: Vec<Vec<u8>> = (2..34).map(drawn).collect();
        let mut index = Some(ChunkIndex::build(&reference));
        let mut i = 0usize;
        bench.iter(|| {
            let target = &targets[i % targets.len()];
            i += 1;
            codec.encode_cached(black_box(&reference), black_box(target), &mut index)
        })
    });

    group.bench_function("index_build", |bench| {
        let mut i = 0usize;
        bench.iter(|| {
            let (reference, _) = &rotating[i % rotating.len()];
            i += 1;
            ChunkIndex::build(black_box(reference.as_slice()))
        })
    });

    group.bench_function("encode_roundtrip_batch64", |bench| {
        // A flush-sized batch: 64 similar blocks encoded back to back.
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..64).map(|_| similar_pair()).collect();
        bench.iter_batched(
            || pairs.clone(),
            |pairs| {
                for (a, b) in &pairs {
                    black_box(codec.encode(a, b));
                }
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
