//! # icash-metrics — measurement and reporting for the I-CASH evaluation
//!
//! * [`histogram`] — log-bucketed latency histograms (means for Figures 7
//!   and 9, percentiles for the extended analyses).
//! * [`summary`] — [`RunSummary`], the complete result of one
//!   (system × workload) run: throughput, latencies, CPU utilization,
//!   SSD write counts (Table 6), and energy (Table 5).
//! * [`report`] — paper-style ASCII figure/table rendering used by the
//!   bench binaries.
//! * [`trace`] — JSONL trace collection ([`trace::JsonlSink`]) and the
//!   per-phase virtual-time breakdown ([`trace::TraceProfile`]) over the
//!   structured event stream of [`icash_storage::trace`].
//!
//! ```
//! use icash_metrics::histogram::LatencyHistogram;
//! use icash_storage::time::Ns;
//!
//! let mut lat = LatencyHistogram::new();
//! lat.record(Ns::from_us(18)); // an I-CASH read: SSD + decode
//! lat.record(Ns::from_us(35)); // a pure-SSD read
//! assert!(lat.mean() > Ns::from_us(20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod histogram;
pub mod report;
pub mod summary;
pub mod trace;

pub use histogram::LatencyHistogram;
pub use summary::RunSummary;
pub use trace::{JsonlSink, TraceProfile};
