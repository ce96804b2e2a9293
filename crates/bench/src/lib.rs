//! # icash-bench — the harness that regenerates the paper's evaluation
//!
//! One binary per exhibit (`fig06_sysbench` … `tab06_ssd_writes`), plus
//! `run_all` which regenerates everything for EXPERIMENTS.md. This library
//! holds the shared machinery, each piece once: the run configuration
//! ([`config`]), building the five storage systems the paper compares
//! (§4.4) and replaying one recorded trace against each ([`harness`]), the
//! exhibit table both `run_all` and the per-exhibit binaries render
//! ([`exhibits`]), and the shard-scaling campaign ([`scale`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod config;
pub mod exhibits;
pub mod harness;
pub mod scale;

pub use config::{Features, RunConfig};
pub use harness::SystemKind;
