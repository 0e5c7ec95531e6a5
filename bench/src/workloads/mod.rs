//! The four workloads. Each stresses a different layer and bypasses the
//! others; see the README's workload table for why each was chosen.

mod assembly;
mod device;
mod fleet;
mod tenants;

use crate::run::{Checks, Workload};
use crate::stats::rank;
use ftl::LatencyHistogram;
use std::time::Instant;

/// Builds the named workload for `seed` at full or toy (`quick`) size.
#[must_use]
pub fn by_name(name: &str, seed: u64, quick: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "assembly_paper" => Box::new(assembly::Assembly::new(seed, quick)),
        "device_gc_churn" => Box::new(device::Device::new(seed, quick)),
        "tenants_read_mostly" => Box::new(tenants::Tenants::new(seed, quick)),
        "fleet_integrity" => Box::new(fleet::Fleet::new(seed, quick)),
        _ => return None,
    })
}

/// Derives an independent sub-seed for one purpose (splitmix64 finalizer),
/// so the streams a workload draws from `--seed` never correlate.
#[must_use]
pub(crate) fn sub_seed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A workload's simulated latency population, summarized.
pub(crate) struct SimLatency {
    mean_us: f64,
    p999_us: f64,
    /// Samples behind the mean and p99.9.
    pub samples: f64,
}

impl SimLatency {
    /// Mean and p99.9 of `h`. A population too small to hold ten samples
    /// beyond p99.9 fails the check instead of reporting a tail it cannot
    /// support.
    ///
    /// The mean stands in for the median, which is degenerate here:
    /// buffered writes complete in exactly one page transfer, so on the
    /// write-heavy workloads the median is the same 10 µs for every seed.
    pub fn of(h: &LatencyHistogram, what: &str, checks: &mut Checks) -> Self {
        checks.expect(rank(h.len(), 0.999).is_some(), || {
            format!("{what}: {} samples cannot support p99.9", h.len())
        });
        SimLatency { mean_us: h.mean_us(), p999_us: h.quantile_us(0.999), samples: h.len() as f64 }
    }

    /// The simulated end-to-end metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![("sim_mean_us", self.mean_us), ("sim_p999_us", self.p999_us)]
    }

    /// The p99.9, µs.
    pub fn p999_us(&self) -> f64 {
        self.p999_us
    }
}

/// Seconds `build` takes, not counting dropping what it built.
pub(crate) fn time_build<T>(build: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    let built = build();
    let secs = start.elapsed().as_secs_f64();
    drop(built);
    secs
}

/// `num / den`, or 0 when nothing was counted.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
