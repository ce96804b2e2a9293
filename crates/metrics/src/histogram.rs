//! Log-bucketed latency histograms.
//!
//! The evaluation reports mean read/write response times (Figures 7, 9, 11,
//! 13) and the harness additionally wants tail percentiles. Buckets are
//! log-spaced from 100 ns to ~100 s, giving ~5 % relative resolution with a
//! few hundred buckets.

use icash_storage::time::Ns;
use serde::{Deserialize, Serialize};

/// Buckets per power of two (resolution ≈ 1/8 of a doubling ≈ 9 %).
const SUB_BUCKETS: usize = 8;
/// log2(100 s / 1) ≈ 37 doublings of nanoseconds.
const DOUBLINGS: usize = 38;
const BUCKETS: usize = DOUBLINGS * SUB_BUCKETS;

/// A latency histogram with logarithmic buckets.
///
/// # Examples
///
/// ```
/// use icash_metrics::histogram::LatencyHistogram;
/// use icash_storage::time::Ns;
///
/// let mut h = LatencyHistogram::new();
/// for us in [10u64, 20, 30, 40] {
///     h.record(Ns::from_us(us));
/// }
/// assert_eq!(h.count(), 4);
/// assert!((h.mean().as_us_f64() - 25.0).abs() < 0.01);
/// assert!(h.percentile(0.5) >= Ns::from_us(15)); // bucket-edge resolution
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min: Ns,
    max: Ns,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_ns: 0,
            min: Ns::MAX,
            max: Ns::ZERO,
        }
    }

    fn bucket_of(latency: Ns) -> usize {
        let ns = latency.as_ns().max(1);
        let exp = 63 - ns.leading_zeros() as usize;
        let frac = if exp == 0 {
            0
        } else {
            ((ns >> (exp.saturating_sub(3))) & 0b111) as usize
        };
        (exp * SUB_BUCKETS + frac).min(BUCKETS - 1)
    }

    /// Lower edge of bucket `i` (for reporting).
    fn bucket_floor(i: usize) -> Ns {
        let exp = i / SUB_BUCKETS;
        let frac = i % SUB_BUCKETS;
        let base = 1u64 << exp.min(62);
        Ns::from_ns(base + (base / SUB_BUCKETS as u64) * frac as u64)
    }

    /// Records one sample. Samples beyond the ~137 s top edge saturate
    /// into the last bucket (min/max/mean stay exact — they are tracked
    /// outside the buckets).
    pub fn record(&mut self, latency: Ns) {
        self.counts[Self::bucket_of(latency)] += 1;
        self.total += 1;
        self.sum_ns += latency.as_ns() as u128;
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact arithmetic mean (tracked outside the buckets).
    pub fn mean(&self) -> Ns {
        if self.total == 0 {
            Ns::ZERO
        } else {
            Ns::from_ns((self.sum_ns / self.total as u128) as u64)
        }
    }

    /// Smallest recorded sample ([`Ns::ZERO`] when empty).
    pub fn min(&self) -> Ns {
        if self.total == 0 {
            Ns::ZERO
        } else {
            self.min
        }
    }

    /// Largest recorded sample ([`Ns::ZERO`] when empty).
    pub fn max(&self) -> Ns {
        if self.total == 0 {
            Ns::ZERO
        } else {
            self.max
        }
    }

    /// Approximate `p`-quantile (`0.0 ..= 1.0`), resolved to bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> Ns {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0, 1]");
        if self.total == 0 {
            return Ns::ZERO;
        }
        if p >= 1.0 {
            return self.max;
        }
        // f64 rounding can push the rank past the population for p close
        // to 1; clamping keeps the scan from falling off the end.
        let target = (((self.total as f64) * p).ceil().max(1.0) as u64).min(self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_floor(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// A canonical JSON rendering: summary fields plus the non-empty
    /// buckets as `[index, count]` pairs. Two histograms produce the same
    /// string iff they recorded identical sample multisets (up to bucket
    /// resolution) — the determinism tests compare these.
    pub fn to_json(&self) -> String {
        let counts: Vec<String> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| format!("[{i},{c}]"))
            .collect();
        format!(
            "{{\"total\":{},\"sum_ns\":{},\"min\":{},\"max\":{},\"counts\":[{}]}}",
            self.total,
            self.sum_ns,
            self.min().as_ns(),
            self.max.as_ns(),
            counts.join(",")
        )
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Ns::ZERO);
        assert_eq!(h.min(), Ns::ZERO);
        assert_eq!(h.percentile(0.99), Ns::ZERO);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(Ns::from_us(1));
        h.record(Ns::from_us(3));
        assert_eq!(h.mean(), Ns::from_us(2));
    }

    #[test]
    fn percentiles_bracket_the_distribution() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(Ns::from_us(i));
        }
        let p50 = h.percentile(0.5).as_us_f64();
        assert!((400.0..640.0).contains(&p50), "p50 = {p50}");
        let p99 = h.percentile(0.99).as_us_f64();
        assert!((900.0..=1000.0).contains(&p99), "p99 = {p99}");
        assert_eq!(h.percentile(1.0), Ns::from_us(1000));
        assert_eq!(h.min(), Ns::from_us(1));
    }

    #[test]
    fn wide_dynamic_range() {
        let mut h = LatencyHistogram::new();
        h.record(Ns::from_ns(50));
        h.record(Ns::from_secs(10));
        assert_eq!(h.count(), 2);
        assert!(h.max() >= Ns::from_secs(10));
        assert!(h.percentile(0.01) <= Ns::from_ns(100));
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        a.record(Ns::from_us(1));
        let mut b = LatencyHistogram::new();
        b.record(Ns::from_us(3));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), Ns::from_us(2));
        assert_eq!(a.max(), Ns::from_us(3));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        let h = LatencyHistogram::new();
        let _ = h.percentile(1.5);
    }

    #[test]
    fn empty_histogram_max_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.max(), Ns::ZERO);
        assert_eq!(h.percentile(1.0), Ns::ZERO);
        assert_eq!(h.percentile(0.0), Ns::ZERO);
    }

    #[test]
    fn single_sample_percentiles_are_the_sample() {
        let mut h = LatencyHistogram::new();
        h.record(Ns::from_us(123));
        for p in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(p), Ns::from_us(123), "p = {p}");
        }
        assert_eq!(h.min(), Ns::from_us(123));
        assert_eq!(h.max(), Ns::from_us(123));
        assert_eq!(h.mean(), Ns::from_us(123));
    }

    #[test]
    fn top_bucket_saturates_without_losing_extremes() {
        let mut h = LatencyHistogram::new();
        h.record(Ns::MAX);
        h.record(Ns::from_ns(u64::MAX - 1));
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Ns::MAX);
        assert_eq!(h.min(), Ns::from_ns(u64::MAX - 1));
        // Both land in the saturated last bucket; percentiles stay inside
        // the observed range rather than at the bucket's (tiny) floor.
        for p in [0.1, 0.5, 0.9] {
            let v = h.percentile(p);
            assert!(v >= h.min() && v <= h.max(), "p{p} = {v:?}");
        }
        assert_eq!(h.mean(), Ns::from_ns(u64::MAX - 1));
    }

    #[test]
    fn zero_latency_sample_is_representable() {
        let mut h = LatencyHistogram::new();
        h.record(Ns::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Ns::ZERO);
        assert_eq!(h.max(), Ns::ZERO);
        assert_eq!(h.percentile(0.5), Ns::ZERO);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LatencyHistogram::new();
        a.record(Ns::from_us(5));
        let before = a.to_json();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.to_json(), before);
        let mut empty = LatencyHistogram::new();
        empty.merge(&a);
        assert_eq!(empty.to_json(), before);
    }

    #[test]
    fn equality_tracks_recorded_samples() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        assert_eq!(a, b);
        a.record(Ns::from_us(7));
        assert_ne!(a, b);
        b.record(Ns::from_us(7));
        assert_eq!(a, b);
    }
}
