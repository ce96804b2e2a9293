//! Open-loop arrival processes on virtual time.
//!
//! The paper's benchmarks are closed-loop: a client issues its next request
//! only after the previous one completes, so offered load can never exceed
//! service capacity and queueing time stays structurally bounded. Real
//! storage front-ends are open-loop — requests arrive on their own schedule
//! whether or not the array is ready — and that is where queue depth, the
//! `QueueAdmit` queued/service split, and tail latency actually come from.
//!
//! [`ArrivalProcess`] generates a deterministic, seeded arrival schedule:
//! exponential (Poisson-like) inter-arrival jitter around a base gap, with
//! an optional diurnal sine modulation and optional flash-crowd bursts
//! layered on top. The schedule comes out in `(time, id)` order — instants
//! never go back and ids are sequential — so simultaneous arrivals break
//! ties deterministically by sequence number. Nothing here consults the
//! wall clock: the same seed produces the same schedule, event for event.

#![deny(clippy::unwrap_used)]

use icash_storage::time::Ns;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled arrival: an instant plus its tie-breaking sequence id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual arrival instant.
    pub at: Ns,
    /// Monotonic sequence number (0-based), the `(time, id)` tie-break.
    pub id: u64,
}

/// Diurnal sine modulation of the arrival rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diurnal {
    /// Peak-to-mean rate swing in `[0, 1)`: the rate oscillates between
    /// `1 - amplitude` and `1 + amplitude` times the base rate.
    pub amplitude: f64,
    /// Period of one full day-night cycle in virtual time.
    pub period: Ns,
}

/// Flash-crowd burst modulation: periodic windows of multiplied rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Interval between burst onsets.
    pub every: Ns,
    /// Length of each burst window (must be shorter than `every`).
    pub len: Ns,
    /// Rate multiplier inside a burst window (≥ 1).
    pub factor: f64,
}

/// Configuration of one arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalConfig {
    /// Mean inter-arrival gap at the unmodulated base rate.
    pub base_gap: Ns,
    /// Optional diurnal sine modulation.
    pub diurnal: Option<Diurnal>,
    /// Optional flash-crowd bursts.
    pub burst: Option<Burst>,
    /// Exponential inter-arrival jitter (Poisson-like). Off, the process
    /// is a deterministic modulated pacer.
    pub jitter: bool,
}

impl ArrivalConfig {
    /// A stationary process: constant mean rate, exponential jitter.
    pub fn stationary(base_gap: Ns) -> Self {
        ArrivalConfig {
            base_gap,
            diurnal: None,
            burst: None,
            jitter: true,
        }
    }

    /// Adds a diurnal sine swing of `amplitude` over `period`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= amplitude < 1` (an amplitude of 1 would zero the
    /// rate at the trough and stall virtual time) and `period > 0`.
    pub fn with_diurnal(mut self, amplitude: f64, period: Ns) -> Self {
        assert!(
            (0.0..1.0).contains(&amplitude),
            "diurnal amplitude must be in [0, 1), got {amplitude}"
        );
        assert!(period > Ns::ZERO, "diurnal period must be positive");
        self.diurnal = Some(Diurnal { amplitude, period });
        self
    }

    /// Adds flash-crowd bursts: every `every`, the rate multiplies by
    /// `factor` for `len`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < len < every` and `factor >= 1`.
    pub fn with_burst(mut self, every: Ns, len: Ns, factor: f64) -> Self {
        assert!(
            Ns::ZERO < len && len < every,
            "burst window must satisfy 0 < len < every"
        );
        assert!(factor >= 1.0, "burst factor must be >= 1, got {factor}");
        self.burst = Some(Burst { every, len, factor });
        self
    }

    /// The rate multiplier at instant `t` (always strictly positive).
    pub fn rate_at(&self, t: Ns) -> f64 {
        let mut rate = 1.0;
        if let Some(d) = &self.diurnal {
            let phase = (t.as_ns() % d.period.as_ns()) as f64 / d.period.as_ns() as f64;
            rate *= 1.0 + d.amplitude * (phase * std::f64::consts::TAU).sin();
        }
        if let Some(b) = &self.burst {
            if t.as_ns() % b.every.as_ns() < b.len.as_ns() {
                rate *= b.factor;
            }
        }
        rate
    }
}

/// A seeded arrival-schedule generator. Arrival instants are
/// non-decreasing by construction: each gap is a non-negative function of
/// the modulated rate and the (non-negative) exponential jitter, so burst
/// modulation can shrink a gap to zero but never below it.
#[derive(Debug)]
pub struct ArrivalProcess {
    cfg: ArrivalConfig,
    rng: StdRng,
    clock: Ns,
    next_id: u64,
}

impl ArrivalProcess {
    /// Creates a process over `cfg`, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if the base gap is zero — the schedule would degenerate to
    /// infinitely many simultaneous arrivals.
    pub fn new(cfg: ArrivalConfig, seed: u64) -> Self {
        assert!(cfg.base_gap > Ns::ZERO, "base gap must be positive");
        ArrivalProcess {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            clock: Ns::ZERO,
            next_id: 0,
        }
    }

    /// The configuration the process runs.
    pub fn config(&self) -> &ArrivalConfig {
        &self.cfg
    }

    /// Generates the next arrival. Gaps are never negative, so the
    /// returned instants are non-decreasing.
    pub fn next_arrival(&mut self) -> Arrival {
        let rate = self.cfg.rate_at(self.clock);
        let mean_gap = self.cfg.base_gap.as_ns() as f64 / rate;
        let jitter = if self.cfg.jitter {
            // Inverse-CDF exponential sample, mean 1. `random::<f64>()` is
            // in [0, 1), so the argument to ln is in (0, 1] and the result
            // is ≥ 0 — a gap can shrink to zero but never go negative.
            -(1.0 - self.rng.random::<f64>()).ln()
        } else {
            1.0
        };
        let gap = (mean_gap * jitter).round().max(0.0) as u64;
        self.clock += Ns::from_ns(gap);
        let id = self.next_id;
        self.next_id += 1;
        Arrival { at: self.clock, id }
    }

    /// Generates the next `n` arrivals in schedule order.
    pub fn take(&mut self, n: u64) -> Vec<Arrival> {
        (0..n).map(|_| self.next_arrival()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_gaps_average_the_base() {
        let mut p = ArrivalProcess::new(ArrivalConfig::stationary(Ns::from_us(100)), 7);
        let arrivals = p.take(4_000);
        let last = arrivals.last().expect("non-empty");
        let mean_gap = last.at.as_ns() as f64 / arrivals.len() as f64;
        assert!(
            (60_000.0..140_000.0).contains(&mean_gap),
            "mean gap {mean_gap} ns should be near the 100 µs base"
        );
    }

    #[test]
    fn arrivals_are_non_decreasing_and_ids_sequential() {
        let cfg = ArrivalConfig::stationary(Ns::from_us(50))
            .with_diurnal(0.9, Ns::from_ms(10))
            .with_burst(Ns::from_ms(5), Ns::from_ms(1), 16.0);
        let mut p = ArrivalProcess::new(cfg, 3);
        let mut prev = Ns::ZERO;
        for (i, a) in p.take(2_000).into_iter().enumerate() {
            assert!(a.at >= prev, "arrival {i} went back in time");
            assert_eq!(a.id, i as u64);
            prev = a.at;
        }
    }

    #[test]
    fn same_seed_is_identical() {
        let cfg = ArrivalConfig::stationary(Ns::from_us(80)).with_diurnal(0.5, Ns::from_ms(2));
        let a = ArrivalProcess::new(cfg.clone(), 11).take(500);
        let b = ArrivalProcess::new(cfg, 11).take(500);
        assert_eq!(a, b);
    }

    #[test]
    fn burst_windows_raise_the_rate() {
        let base = Ns::from_us(100);
        let mut cfg =
            ArrivalConfig::stationary(base).with_burst(Ns::from_ms(10), Ns::from_ms(2), 10.0);
        cfg.jitter = false;
        let mut p = ArrivalProcess::new(cfg, 0);
        let arrivals = p.take(1_000);
        // Each gap is priced at the rate ruling at its *start*, so classify
        // by the earlier arrival's window.
        let in_burst = arrivals
            .windows(2)
            .filter(|w| w[0].at.as_ns() % 10_000_000 < 2_000_000)
            .map(|w| (w[1].at - w[0].at).as_ns())
            .collect::<Vec<_>>();
        assert!(!in_burst.is_empty());
        assert!(
            in_burst.iter().all(|&g| g <= 10_000),
            "in-burst gaps must be ~base/10"
        );
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn full_amplitude_rejected() {
        let _ = ArrivalConfig::stationary(Ns::from_us(1)).with_diurnal(1.0, Ns::from_ms(1));
    }

    #[test]
    #[should_panic(expected = "burst factor")]
    fn damping_burst_rejected() {
        let _ = ArrivalConfig::stationary(Ns::from_us(1)).with_burst(
            Ns::from_ms(1),
            Ns::from_us(1),
            0.5,
        );
    }

    #[test]
    #[should_panic(expected = "base gap")]
    fn zero_gap_rejected() {
        let _ = ArrivalProcess::new(ArrivalConfig::stationary(Ns::ZERO), 0);
    }
}
