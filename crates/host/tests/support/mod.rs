//! Frontend fingerprints for the host golden tables: the device
//! fingerprint of the shared `ftl` test support, then the dispatch order
//! and one word per tenant, each folded order-sensitively.

#[path = "../../../ftl/tests/support/fingerprint.rs"]
pub mod fingerprint;

use fingerprint::{fold, fold_f64};
use host::{HostFrontend, TenantStats};

/// Every field of `t` but its name and class, folded into one word.
fn tenant(t: &TenantStats) -> u64 {
    let TenantStats {
        name: _,
        qos: _,
        completed,
        write_latency,
        read_latency,
        queue_wait_us,
        depth_high_water,
        backpressured,
        gc_debt_us,
        gc_window_peak_us,
        gc_throttled,
    } = t;
    fold([
        *completed,
        fold_f64(write_latency.samples_us()),
        fold_f64(read_latency.samples_us()),
        queue_wait_us.to_bits(),
        *depth_high_water as u64,
        *backpressured,
        gc_debt_us.to_bits(),
        gc_window_peak_us.to_bits(),
        *gc_throttled,
    ])
}

/// The device fingerprint, the dispatch log and each tenant's stats.
pub fn frontend(front: &HostFrontend) -> Vec<(&'static str, u64)> {
    let mut fp = fingerprint::device(front.device());
    fp.push(("dispatch_log", fold(front.dispatch_log().iter().map(|&k| k as u64))));
    fp.extend(front.all_stats().into_iter().map(|t| ("tenant", tenant(t))));
    fp
}
