//! # icash-bench — the harness that regenerates the paper's evaluation
//!
//! `exhibit <name>` prints one of the paper's exhibits, one ablation of its
//! design choices or one campaign, and `run_all` regenerates the exhibits
//! for EXPERIMENTS.md. This library holds the shared machinery, each piece
//! once: the run configuration ([`config`]), building the five storage
//! systems the paper compares (§4.4) and replaying one recorded trace
//! against each ([`harness`]), the exhibit table both `run_all` and
//! `exhibit` render ([`exhibits`]), the ablation table ([`ablations`]), and
//! the campaign table with the cell the robustness campaigns are lists of
//! ([`campaign`]): faults ([`faults`]), chaos ([`chaos`]), shard scaling
//! ([`scale`]) and scenarios ([`scenarios`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod campaign;
pub mod chaos;
pub mod config;
pub mod exhibits;
pub mod faults;
pub mod harness;
pub mod scale;
pub mod scenarios;

pub use config::RunConfig;
pub use harness::SystemKind;
