//! # icash-bench — the harness that regenerates the paper's evaluation
//!
//! `exhibit <name>` prints one of the paper's exhibits and `run_all`
//! regenerates all of them for EXPERIMENTS.md. This library holds the
//! shared machinery, each piece once: the run configuration ([`config`]),
//! building the five storage systems the paper compares (§4.4) and
//! replaying one recorded trace against each ([`harness`]), the exhibit
//! table both `run_all` and `exhibit` render ([`exhibits`]), the
//! shard-scaling campaign ([`scale`]), and the cell the robustness
//! campaigns `run_faults` and `run_chaos` are lists of ([`campaign`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod config;
pub mod exhibits;
pub mod harness;
pub mod scale;

pub use config::{Features, RunConfig};
pub use harness::SystemKind;
