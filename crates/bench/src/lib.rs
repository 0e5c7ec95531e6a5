//! # repro-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation. Each experiment is one function in [`experiments`] returning
//! typed rows; those that assemble superblocks take the [`PoolCache`] the
//! caller shares. The `repro` binary runs them from one table of commands
//! and renders the rows as text tables and CSV files under `results/`.
//!
//! The paper's platform has 24 chips measured as groups of four pools
//! (§VI-A); we mirror that by averaging several independently seeded 4-pool
//! groups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;

pub use runner::{ExperimentParams, PoolCache, SchemeKind, SchemeStats};
