//! # fleet
//!
//! Fleet-scale simulation: shards a deterministic multi-user workload —
//! millions of logical users with Zipfian hot/cold footprints, burst
//! trains and diurnal arrival modulation — across N simulated SSDs, and
//! replays every device in parallel through the timed engine with the
//! host frontend, per-tenant QoS and sliced GC all active.
//!
//! Two determinism contracts, both asserted by tests:
//!
//! * **Sharding purity** — every user's op sequence is a pure function of
//!   `(fleet_seed, user_id)`, and a device's stream is the arrival-sorted
//!   merge of its users' sequences. The user→shard hash is seeded but
//!   independent of the op streams, so changing the device count only
//!   *moves* users between devices; it never changes what any user does.
//! * **Reduction determinism** — devices are claimed from a shared work
//!   queue but reduced strictly in device-id order, so fleet aggregates
//!   are bit-identical regardless of worker count.
//!
//! The fleet aggregates target *tail-of-tails* latency: p99/p999/p9999
//! over every command on every device (one [`LatencyHistogram::fold`] of
//! the devices' samples), plus per-device skew (max and median device
//! p99).
//!
//! # Example
//!
//! ```
//! use fleet::{FleetConfig, FleetWorkload};
//! use host::Arbitration;
//!
//! let mut workload = FleetWorkload::new(500, 2);
//! workload.mean_ops_per_user = 4.0;
//! let config = FleetConfig {
//!     device_config: ftl::FtlConfig::small_test(),
//!     workload,
//!     fleet_seed: 7,
//!     arbitration: Arbitration::WeightedRoundRobin,
//!     workers: 2,
//! };
//! let report = fleet::run_fleet(&config).expect("fleet replay succeeds");
//! assert_eq!(report.devices.len(), 2);
//! assert!(report.total_commands > 0);
//! assert!(report.p999_us >= report.p99_us);
//! ```
//!
//! [`LatencyHistogram::fold`]: ftl::LatencyHistogram::fold

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod runner;
mod workload;

pub use runner::{
    run_fleet, run_fleet_soak, DeviceReport, FleetConfig, FleetReport, SoakDeviceReport, SoakReport,
};
pub use workload::{FleetWorkload, UserOp};
