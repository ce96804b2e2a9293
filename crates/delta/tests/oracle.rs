//! The rolling-hash chunk scan, kept as the oracle for the one that replaced
//! it.
//!
//! Until the group filter, `chunk::encode_with_index` hashed the window at
//! every target position it did not jump over — a rolling polynomial hash,
//! re-primed after each COPY — and looked every hash up. That scan lives on
//! here, over a plain `HashMap` index, as the definition the production
//! scan must reproduce byte for byte: it skips positions, the oracle does
//! not.

use icash_delta::codec::chunk::{self, MIN_MATCH};
use icash_delta::codec::chunk_index::{MAX_CANDIDATES, STRIDE, WINDOW};
use icash_delta::codec::ChunkIndex;
use icash_delta::varint;
use proptest::prelude::*;
use std::collections::HashMap;

const P: u64 = 1_000_003;
const P_POW_W: u64 = P.wrapping_pow(WINDOW as u32);

/// Hash of one full window, by Horner's rule.
fn window_hash(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0u64, |h, &b| h.wrapping_mul(P).wrapping_add(b as u64))
}

/// Rolls `h` (hash of the window at some position `i`) one byte to the
/// right: `out` is the byte leaving at `i`, `inn` the byte entering at
/// `i + WINDOW`: `h' = h·P + (inn − out·P^WINDOW)`.
fn roll(h: u64, out: u8, inn: u8) -> u64 {
    h.wrapping_mul(P)
        .wrapping_add((inn as u64).wrapping_sub((out as u64).wrapping_mul(P_POW_W)))
}

/// The rolling scan's output and the target positions of its COPYs.
fn oracle_encode(reference: &[u8], target: &[u8]) -> (Vec<u8>, Vec<usize>) {
    let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
    for pos in (0..(reference.len() + 1).saturating_sub(WINDOW)).step_by(STRIDE) {
        let positions = index
            .entry(window_hash(&reference[pos..pos + WINDOW]))
            .or_default();
        if positions.len() < MAX_CANDIDATES {
            positions.push(pos);
        }
    }

    let mut out = Vec::new();
    let mut copies = Vec::new();
    let mut pending_add_start = 0;
    let flush_add = |out: &mut Vec<u8>, start: usize, end: usize| {
        if end > start {
            out.push(0x00);
            varint::encode((end - start) as u64, out);
            out.extend_from_slice(&target[start..end]);
        }
    };
    let n = target.len();
    if n >= WINDOW {
        let mut i = 0;
        let mut h = window_hash(&target[..WINDOW]);
        loop {
            // Longest verified candidate, the earliest on ties.
            let mut best: Option<(usize, usize)> = None;
            for &cand in index.get(&h).into_iter().flatten() {
                if reference[cand..cand + WINDOW] != target[i..i + WINDOW] {
                    continue; // hash collision
                }
                let len = reference[cand..]
                    .iter()
                    .zip(&target[i..])
                    .take_while(|(a, b)| a == b)
                    .count();
                if best.is_none_or(|(_, best_len)| len > best_len) {
                    best = Some((cand, len));
                }
            }
            match best {
                Some((off, len)) if len >= MIN_MATCH => {
                    flush_add(&mut out, pending_add_start, i);
                    out.push(0x01);
                    varint::encode(off as u64, &mut out);
                    varint::encode(len as u64, &mut out);
                    copies.push(i);
                    i += len;
                    pending_add_start = i;
                    if i + WINDOW > n {
                        break;
                    }
                    // The cursor jumped; re-prime the rolling hash.
                    h = window_hash(&target[i..i + WINDOW]);
                }
                _ => {
                    if i + WINDOW >= n {
                        break;
                    }
                    h = roll(h, target[i], target[i + WINDOW]);
                    i += 1;
                }
            }
        }
    }
    flush_add(&mut out, pending_add_start, n);
    (out, copies)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn noise(state: &mut u64, len: usize) -> Vec<u8> {
    (0..len).map(|_| xorshift(state) as u8).collect()
}

/// References of every texture the index treats differently, of any length:
/// noise, words from a small dictionary (most groups recur, few windows do),
/// all-equal and short-period content (more windows per hash than the cap of
/// `MAX_CANDIDATES` admits), all-zero.
fn reference_strategy() -> impl Strategy<Value = Vec<u8>> {
    let len = prop_oneof![Just(4096usize), 0usize..64, 0usize..4200];
    (any::<u64>(), 0u8..5, len).prop_map(|(seed, kind, len)| {
        let mut state = seed | 1;
        match kind {
            0 => noise(&mut state, len),
            1 => {
                let words = noise(&mut state, 16 * STRIDE);
                let mut text = Vec::with_capacity(len + STRIDE);
                while text.len() < len {
                    let word = xorshift(&mut state) as usize % 16;
                    text.extend_from_slice(&words[word * STRIDE..][..STRIDE]);
                }
                text.truncate(len);
                text
            }
            2 => vec![seed as u8; len],
            3 => {
                let period = noise(&mut state, seed as usize % 23 + 1);
                (0..len).map(|i| period[i % period.len()]).collect()
            }
            _ => vec![0; len],
        }
    })
}

/// A target derived from `reference` the ways the controller's traffic and
/// the codec's edge cases are: overwritten in place (a family member),
/// shifted by an insertion or a deletion, spliced from rearranged pieces,
/// cut short or run long, or unrelated.
fn target_of(reference: &[u8], kind: u8, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    let mut target = reference.to_vec();
    let len = reference.len();
    match kind {
        0 if len > 0 => {
            for _ in 0..1 + xorshift(&mut state) % 12 {
                let at = xorshift(&mut state) as usize % len;
                let span = (1 + xorshift(&mut state) as usize % 300).min(len - at);
                let fill = noise(&mut state, span);
                target[at..at + span].copy_from_slice(&fill);
            }
        }
        1 => {
            let at = xorshift(&mut state) as usize % (len + 1);
            let inserted = 1 + xorshift(&mut state) as usize % 200;
            let insert = noise(&mut state, inserted);
            target.splice(at..at, insert);
            if xorshift(&mut state) & 1 == 0 {
                target.truncate(len);
            }
        }
        2 if len > 0 => {
            let at = xorshift(&mut state) as usize % len;
            let cut = (1 + xorshift(&mut state) as usize % 200).min(len - at);
            target.drain(at..at + cut);
        }
        3 if len > 0 => {
            target.clear();
            for _ in 0..1 + xorshift(&mut state) % 6 {
                let at = xorshift(&mut state) as usize % len;
                let span = (xorshift(&mut state) as usize % 1500).min(len - at);
                target.extend_from_slice(&reference[at..at + span]);
                let gap = xorshift(&mut state) as usize % 40;
                target.extend_from_slice(&noise(&mut state, gap));
            }
        }
        4 => {
            let new_len = xorshift(&mut state) as usize % (2 * len + 40);
            target.resize(new_len, seed as u8);
        }
        _ => {
            let new_len = xorshift(&mut state) as usize % 4200;
            target = noise(&mut state, new_len);
        }
    }
    target
}

/// The production scan against the oracle; hands back the oracle's COPY
/// positions.
fn assert_scans_agree(reference: &[u8], target: &[u8]) -> Vec<usize> {
    let index = ChunkIndex::build(reference);
    let (want, copies) = oracle_encode(reference, target);
    let got = chunk::encode_with_index(&index, reference, target);
    assert_eq!(
        got,
        want,
        "reference of {}, target of {}",
        reference.len(),
        target.len()
    );
    assert_eq!(
        chunk::decode(reference, &got).as_deref(),
        Some(target),
        "the delta does not decode to its target"
    );
    copies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The scan that skips positions emits what the scan that hashes every
    /// position emits, byte for byte.
    #[test]
    fn group_filtered_scan_equals_the_rolling_scan(
        reference in reference_strategy(),
        kind in 0u8..6,
        seed in any::<u64>(),
    ) {
        assert_scans_agree(&reference, &target_of(&reference, kind, seed));
    }

    /// Soundness of the filter by itself: wherever the rolling scan emits a
    /// COPY, the six groups the production scan tests all pass.
    #[test]
    fn every_copy_position_passes_the_group_filter(
        reference in reference_strategy(),
        kind in 0u8..6,
        seed in any::<u64>(),
    ) {
        let target = target_of(&reference, kind, seed);
        let index = ChunkIndex::build(&reference);
        for at in oracle_encode(&reference, &target).1 {
            for group in target[at..at + MIN_MATCH].chunks_exact(STRIDE) {
                prop_assert!(
                    index.may_have_group(group.try_into().unwrap()),
                    "COPY at {} has a group the bitmap lacks", at
                );
            }
        }
    }

    /// Zero runs on both sides of every threshold against an all-zero
    /// reference (a window, a COPY-worthy match, one either side),
    /// at the start, the middle and the last bytes of the block, alone and
    /// together.
    #[test]
    fn zero_reference_scan_equals_the_rolling_scan(
        seed in any::<u64>(),
        ref_len in prop_oneof![Just(4096usize), 0usize..40, 4000usize..4200],
        runs in prop::collection::vec(
            (
                prop_oneof![Just(0usize), Just(2000), Just(4096 - 24), 0usize..4096],
                prop_oneof![
                    Just(15usize), Just(16), Just(23), Just(24), Just(25), 0usize..5000
                ],
            ),
            0..4,
        ),
    ) {
        let mut state = seed | 1;
        // Noise without a zero byte, so the only zero runs are the planted.
        let mut target: Vec<u8> = noise(&mut state, 4096).iter().map(|&b| b | 1).collect();
        for (at, len) in runs {
            let end = (at + len).min(target.len());
            target[at.min(end)..end].fill(0);
        }
        assert_scans_agree(&vec![0; ref_len], &target);
    }
}

#[test]
fn zero_runs_at_each_threshold_and_place() {
    let reference = vec![0u8; 4096];
    for len in [15, 16, 23, 24, 25] {
        for at in [0, 2001, 4096 - 24, 4096 - len] {
            let mut target = vec![0xA7u8; 4096];
            let end = (at + len).min(4096);
            target[at..end].fill(0);
            let copies = assert_scans_agree(&reference, &target);
            assert_eq!(
                copies.len(),
                usize::from(end - at >= MIN_MATCH),
                "{len} at {at}"
            );
        }
    }
    // Longer than the reference reaches: a second COPY takes up the rest.
    assert_eq!(assert_scans_agree(&reference, &vec![0; 4096 + 24]).len(), 2);
    assert_eq!(assert_scans_agree(&reference, &vec![0; 4096 + 23]).len(), 1);
}

#[test]
fn the_bitmap_holds_every_aligned_group_and_little_else() {
    let mut state = 0x1CA5_4001;
    let reference = noise(&mut state, 4096);
    let index = ChunkIndex::build(&reference);
    for group in reference.chunks_exact(STRIDE) {
        assert!(index.may_have_group(group.try_into().unwrap()));
    }
    // 1024 groups in 16 Ki bits: one group in sixteen passes by chance.
    let passed = (0..16_000)
        .filter(|_| index.may_have_group((xorshift(&mut state) as u32).to_le_bytes()))
        .count();
    assert!((800..1200).contains(&passed), "{passed} of 16 000 passed");
}

#[test]
fn rolled_hash_equals_recomputed() {
    let data: Vec<u8> = (0..256u32)
        .map(|i| (i.wrapping_mul(97) % 256) as u8)
        .collect();
    let mut h = window_hash(&data[..WINDOW]);
    for pos in 0..data.len() - WINDOW {
        assert_eq!(h, window_hash(&data[pos..pos + WINDOW]), "at {pos}");
        h = roll(h, data[pos], data[pos + WINDOW]);
    }
}
