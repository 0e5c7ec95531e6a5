//! # host
//!
//! A multi-queue host frontend for the [`ftl`] SSD simulator, modeled on
//! the NVMe submission/completion-queue architecture: each tenant owns a
//! bounded submission queue with an arrival-timed request stream, and a
//! deterministic event loop arbitrates over the non-empty queues
//! (round-robin or NVMe-style weighted round-robin) and feeds one command
//! at a time into the device's incremental timed engine.
//!
//! The frontend is where the paper's function-based placement (§V-D)
//! generalizes from the host/GC split to per-tenant QoS: every command
//! carries its tenant's [`QosClass`], so latency-critical and standard
//! tenants write into *fast* QSTR-MED superblocks while background
//! tenants share the *slow* end with garbage collection. Per-tenant
//! latency histograms then expose how much of the fast pool's headroom
//! each class actually sees (`repro tenants` sweeps this).
//!
//! # Example
//!
//! ```
//! use ftl::{poisson_arrivals, FtlConfig, QosClass, Ssd, Workload};
//! use host::{Arbitration, HostFrontend, TenantSpec};
//!
//! let ssd = Ssd::new(FtlConfig::small_test(), 1).expect("valid config");
//! let info = ssd.geometry_info();
//! let mut front = HostFrontend::new(
//!     ssd,
//!     vec![TenantSpec::new("db", QosClass::LatencyCritical)],
//!     Arbitration::RoundRobin,
//! );
//! let reqs = Workload::random_write(0.5).generate(&info, 200, 9);
//! front.submit(0, &poisson_arrivals(&reqs, 200.0, 9));
//! front.run().expect("replay succeeds");
//! assert!(front.tenant_stats(0).write_latency.mean_us() > 0.0);
//! ```
//!
//! [`QosClass`]: ftl::QosClass

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod frontend;
mod queue;

pub use arbiter::{Arbiter, Arbitration};
pub use frontend::HostFrontend;
pub use queue::{TenantSpec, TenantStats};
