//! Property tests for the open-loop arrival machinery: modulation
//! (diurnal, burst, jitter) never produces a negative inter-arrival gap —
//! so a schedule is already in `(time, id)` dispatch order — and the same
//! seed reproduces the same schedule event for event.

use icash_storage::time::Ns;
use icash_workloads::arrivals::{ArrivalConfig, ArrivalProcess};
use proptest::prelude::*;

/// Arbitrary arrival configs across the whole shape space: any base gap,
/// optional diurnal swing, optional burst, jitter on or off.
fn config() -> impl Strategy<Value = ArrivalConfig> {
    (
        1u64..1_000_000,                              // base gap
        (any::<bool>(), 0u64..100, 1u64..10_000_000), // diurnal on?, amp %, period
        (any::<bool>(), 2u64..1_000, 2u64..100),      // burst on?, every, factor
        any::<bool>(),                                // jitter
    )
        .prop_map(
            |(gap, (d_on, amp, period), (b_on, every, factor), jitter)| {
                let mut cfg = ArrivalConfig::stationary(Ns::from_ns(gap));
                cfg.jitter = jitter;
                if d_on {
                    cfg = cfg.with_diurnal(amp as f64 / 101.0, Ns::from_ns(period));
                }
                if b_on {
                    cfg = cfg.with_burst(Ns::from_ns(every), Ns::from_ns(every - 1), factor as f64);
                }
                cfg
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gaps_are_never_negative(cfg in config(), seed in any::<u64>()) {
        let mut p = ArrivalProcess::new(cfg, seed);
        let mut prev = Ns::ZERO;
        for (i, a) in p.take(500).into_iter().enumerate() {
            // Ns is unsigned, so "no negative gap" means monotone instants
            // and sequential ids — even under 99× burst modulation.
            prop_assert!(a.at >= prev, "arrival {i} went back in time");
            prop_assert_eq!(a.id, i as u64);
            prev = a.at;
        }
    }

    #[test]
    fn same_seed_is_event_for_event_identical(cfg in config(), seed in any::<u64>()) {
        let a = ArrivalProcess::new(cfg.clone(), seed).take(300);
        let b = ArrivalProcess::new(cfg, seed).take(300);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn rate_is_always_positive(cfg in config(), t in any::<u64>()) {
        let rate = cfg.rate_at(Ns::from_ns(t));
        prop_assert!(rate > 0.0, "rate {rate} at t={t} would stall the schedule");
    }
}
