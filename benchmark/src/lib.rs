//! The repo benchmark: what it costs in **host** time to produce the
//! paper's **sim** (virtual-time) results, end to end and layer by layer.
//!
//! See `README.md` beside this crate for the workloads, the metric table
//! and how to read the output; `BENCHMARK.json` at the repository root
//! declares the same names to the driver.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod forward;
pub mod metrics;
pub mod mirror;
pub mod probes;
pub mod run;
pub mod spans;
pub mod workloads;
