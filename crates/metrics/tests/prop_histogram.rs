//! Property tests for [`LatencyHistogram`]: merge must behave like
//! multiset union (associative, commutative, identity), and the summary
//! statistics must stay ordered (`min ≤ p50 ≤ p99 ≤ max`) for any sample
//! set, including empty, single-sample, and saturating-top-bucket inputs.

use icash_metrics::histogram::LatencyHistogram;
use icash_storage::time::Ns;
use proptest::prelude::*;

fn hist_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.record(Ns::from_ns(s));
    }
    h
}

/// Latencies spanning the whole dynamic range, including 0 and values past
/// the ~137 s top bucket edge.
fn latency() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        1u64..1_000,
        1_000u64..10_000_000_000,
        (0u32..64).prop_map(|shift| 1u64 << shift),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative(a in prop::collection::vec(latency(), 0..50),
                            b in prop::collection::vec(latency(), 0..50)) {
        let mut ab = hist_of(&a);
        ab.merge(&hist_of(&b));
        let mut ba = hist_of(&b);
        ba.merge(&hist_of(&a));
        prop_assert_eq!(ab.to_json(), ba.to_json());
    }

    #[test]
    fn merge_is_associative(a in prop::collection::vec(latency(), 0..30),
                            b in prop::collection::vec(latency(), 0..30),
                            c in prop::collection::vec(latency(), 0..30)) {
        // (a ∪ b) ∪ c
        let mut left = hist_of(&a);
        left.merge(&hist_of(&b));
        left.merge(&hist_of(&c));
        // a ∪ (b ∪ c)
        let mut bc = hist_of(&b);
        bc.merge(&hist_of(&c));
        let mut right = hist_of(&a);
        right.merge(&bc);
        prop_assert_eq!(left.to_json(), right.to_json());
    }

    #[test]
    fn merge_equals_recording_everything(a in prop::collection::vec(latency(), 0..50),
                                         b in prop::collection::vec(latency(), 0..50)) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let mut all: Vec<u64> = a.clone();
        all.extend(&b);
        prop_assert_eq!(merged.to_json(), hist_of(&all).to_json());
    }

    #[test]
    fn percentiles_are_ordered(samples in prop::collection::vec(latency(), 0..200)) {
        let h = hist_of(&samples);
        let (min, p50, p99, max) = (h.min(), h.percentile(0.5), h.percentile(0.99), h.max());
        prop_assert!(min <= p50, "min {min:?} > p50 {p50:?}");
        prop_assert!(p50 <= p99, "p50 {p50:?} > p99 {p99:?}");
        prop_assert!(p99 <= max, "p99 {p99:?} > max {max:?}");
        if !samples.is_empty() {
            let lo = *samples.iter().min().expect("non-empty");
            let hi = *samples.iter().max().expect("non-empty");
            prop_assert_eq!(min, Ns::from_ns(lo));
            prop_assert_eq!(max, Ns::from_ns(hi));
            prop_assert!(h.mean() >= min && h.mean() <= max);
        } else {
            prop_assert_eq!(max, Ns::ZERO);
            prop_assert_eq!(h.mean(), Ns::ZERO);
        }
    }

    #[test]
    fn percentile_is_monotone_in_p(samples in prop::collection::vec(latency(), 1..100),
                                   p1 in 0u64..1001, p2 in 0u64..1001) {
        let h = hist_of(&samples);
        let (p1, p2) = (p1 as f64 / 1000.0, p2 as f64 / 1000.0);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(h.percentile(lo) <= h.percentile(hi));
    }
}
