//! # ftl
//!
//! An SSD / flash-translation-layer simulator built on [`flash_model`],
//! exercising the paper's QSTR-MED pipeline end to end (§V):
//!
//! * **gathering** — while superblocks are programmed, per-word-line
//!   latencies feed [`pvcheck::gather::BlockGatherer`]s, so every block that
//!   completes a program cycle leaves behind its 52-byte summary;
//! * **assembling** — free blocks live in per-chip pools; when the write
//!   path needs a new superblock the configured organization strategy
//!   (random, sequential, or QSTR-MED on demand) picks the members;
//! * **allocating** — function-based placement (§V-D) routes host writes to
//!   *fast* superblocks and garbage-collection relocations to *slow* ones.
//!
//! The device model is a serial-command SSD: host latency accrues from page
//! transfers, the multi-plane programs/erases they trigger, and any
//! foreground garbage collection. That is exactly the surface where the
//! paper's extra latency hurts, which is what the end-to-end experiment
//! (`repro ssd`) measures.
//!
//! # Example
//!
//! ```
//! use ftl::{FtlConfig, OrganizationScheme, Ssd, Workload};
//!
//! let mut config = FtlConfig::small_test();
//! config.scheme = OrganizationScheme::QstrMed { candidates: 4 };
//! let mut ssd = Ssd::new(config, 42).expect("config is valid");
//! let requests = Workload::random_write(0.5).generate(&ssd.geometry_info(), 2_000, 7);
//! ssd.run(&requests).expect("workload fits the device");
//! assert!(ssd.stats().host_writes > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active;
mod config;
mod device;
mod error;
mod gc;
mod integrity;
mod manager;
mod mapping;
mod media;
mod parity;
mod recovery;
mod request;
pub mod sched;
mod stats;
mod timing;
pub mod trace;
mod workload;

pub use config::{
    FtlConfig, IntegrityConfig, OrganizationScheme, ParityConfig, PatrolConfig, PatrolOrder,
    QosClass,
};
pub use device::{GeometryInfo, Ssd};
pub use error::FtlError;
pub use gc::GcBudget;
pub use manager::BlockManager;
pub use mapping::Mapping;
pub use recovery::{CrashPoint, RecoveryReport, SporConfig};
pub use request::{IoOp, IoRequest};
pub use stats::{LatencyHistogram, SsdStats};
pub use timing::{EngineMode, QueueModel, TimedOutcome};
pub use workload::{mean_interarrival_us, poisson_arrivals, Workload};

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, FtlError>;
