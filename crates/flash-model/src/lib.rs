//! # flash-model
//!
//! A deterministic, seeded **process-variation model of 3D NAND flash
//! memory**, built as the hardware substrate for reproducing the HPCA 2024
//! paper *"Are Superpages Super-fast? Distilling Flash Blocks to Unify Flash
//! Pages of a Superpage in an SSD"*.
//!
//! The paper characterizes real SK hynix 3D-TLC chips; this crate replaces
//! that testbed with a synthetic chip whose latencies have the same
//! *statistical structure*:
//!
//! * **chip-to-chip variation** — each chip has its own word-line-layer
//!   latency profile (per-layer-group operating-parameter offsets plus a
//!   constant chip offset), so blocks from different chips never match
//!   perfectly (the irreducible floor the paper's "local optimal" hits);
//! * **layer-to-layer variation** — a V-shaped channel-aperture curve across
//!   the 96 physical word-line layers, grouped into vendor parameter groups;
//! * **block-to-block variation** — a per-block speed deviation with spatial
//!   correlation along the block index (the flat lines with occasional spikes
//!   of the paper's Figure 5) plus rare outlier blocks;
//! * **string patterns** — per physical-word-line layer, two of the four
//!   strings are "fast"; which two is a stable per-block trait drawn from a
//!   small set of pattern families. This is exactly the structure the paper's
//!   STR-rank / STR-median / QSTR-MED schemes learn and exploit;
//! * **ISPP quantization** — program latencies fall on a pulse grid
//!   (~18.4 µs), erase latencies on an erase-loop grid;
//! * **wear** — program latency drifts down and erase latency drifts up with
//!   P/E cycles, and noise grows, but the *structure* stays stable (the
//!   paper's Figure 15 robustness result).
//!
//! Latency is a *pure function* of `(seed, address, P/E cycle)`: observing a
//! block twice yields identical numbers, which is what makes online
//! characterization (the paper's "gathering" step) meaningful.
//!
//! # Example
//!
//! ```
//! use flash_model::{FlashArray, FlashConfig, BlockAddr, ChipId, PlaneId, BlockId};
//!
//! # fn main() -> Result<(), flash_model::FlashError> {
//! let config = FlashConfig::small_test();
//! let mut array = FlashArray::new(config, 7);
//! let block = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(3));
//!
//! let t_ers = array.erase_block(block)?;
//! let pages = vec![0u64; array.geometry().pages_per_lwl() as usize];
//! let t_pgm = array.program_wl(block.wl(flash_model::LwlId(0)), &pages)?;
//! assert!(t_ers > 0.0 && t_pgm > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod ber;
mod chip;
mod config;
mod error;
mod fault;
mod geometry;
mod ids;
mod latency;
mod retry;
mod sampler;
mod spor;
mod variation;
mod wear;

pub use array::{BlockHandle, FlashArray, MpOutcome, PageRead, WordLine};
pub use ber::{BerModel, RberFactors};
pub use chip::BlockPhase;
pub use config::{FlashConfig, FlashConfigBuilder};
pub use error::FlashError;
pub use fault::{FaultConfig, FaultInjector};
pub use geometry::Geometry;
pub use ids::{
    BlockAddr, BlockId, CellType, ChipId, LwlId, PageAddr, PageType, PlaneId, PwlLayer, StringId,
    WlAddr,
};
pub use latency::{LatencyCache, LatencyModel};
pub use retry::RetryModel;
pub use sampler::Sampler;
pub use spor::{BlockSummaryRecord, PageOob, SealRecord};
pub use variation::{StringMask, VariationConfig};
pub use wear::WearState;

/// Convenient result alias for flash operations.
pub type Result<T> = std::result::Result<T, FlashError>;
