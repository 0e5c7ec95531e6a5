//! # pvcheck
//!
//! The primary contribution of *"Are Superpages Super-fast?"* (HPCA 2024):
//! **process-variation-aware superblock organization** for SSDs.
//!
//! A superblock groups one block per chip/plane pool; multi-plane commands
//! complete at the *slowest* member, so mismatched blocks waste time — the
//! paper's **extra latency**. This crate provides:
//!
//! * [`BlockProfile`] / [`BlockPool`] — per-block characterization data
//!   (per-word-line `tPROG`, per-block `tBERS`);
//! * [`Characterizer`] — collects profiles from a [`flash_model::FlashArray`]
//!   by actually erasing and programming blocks (the paper's §VI methodology);
//! * [`ExtraLatency`] — the §III-A metrics;
//! * [`rank`] / [`EigenSequence`] — LWL / PWL / STR rankings and the 1-bit
//!   STR-median quantization with XOR/popcount distance;
//! * [`assembly`] — all eight organization directions of §IV plus the
//!   practical runtime scheme **QSTR-MED** of §V (gather → assemble →
//!   allocate);
//! * [`gather`] — the open-block latency table that turns observed program
//!   latencies into a block summary (program-latency sum + eigen sequence);
//! * [`overhead`] — combination-check counts and the Equation (2) space
//!   model.
//!
//! # Example: compare random vs. QSTR-MED
//!
//! ```
//! use flash_model::{FlashArray, FlashConfig};
//! use pvcheck::{Characterizer, ExtraLatency};
//! use pvcheck::assembly::{Assembler, RandomAssembly, QstrMed};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = FlashConfig::small_test();
//! let mut array = FlashArray::new(config.clone(), 1);
//! let pool = Characterizer::new(&config).characterize_array(&mut array)?;
//!
//! let random = RandomAssembly::new(7).assemble(&pool);
//! let qstr = QstrMed::with_candidates(4).assemble(&pool);
//!
//! let avg = |sbs: &[pvcheck::Superblock]| -> f64 {
//!     sbs.iter()
//!         .map(|sb| ExtraLatency::of_superblock(&pool, sb).unwrap().program_us)
//!         .sum::<f64>() / sbs.len() as f64
//! };
//! assert!(avg(&qstr) < avg(&random), "QSTR-MED should beat random");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod assembly;
mod characterize;
mod distance;
mod eigen;
mod error;
mod fan_out;
pub mod gather;
pub mod io;
pub mod overhead;
mod profile;
pub mod rank;
mod sorted_list;
mod superblock;

pub use characterize::Characterizer;
pub use distance::{combination_rank_distance, rank_distance};
pub use eigen::EigenSequence;
pub use error::PvError;
pub use profile::{BlockPool, BlockProfile, BlockSummary};
pub use sorted_list::SortedLatencyList;
pub use superblock::{ExtraLatency, SpeedClass, Superblock};

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, PvError>;
