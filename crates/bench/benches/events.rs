//! Micro-benchmarks of the event core: the sorted-ring depth tracker behind
//! the timed device replay, and the host frontend's 16-tenant dispatch
//! loop.
//!
//! These isolate the pieces of a timed replay so a throughput regression
//! can be attributed: is the tracker slower, is the frontend's admission
//! and arbitration slower, or is it the device step around them?

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use ftl::sched::DepthTracker;
use ftl::{FtlConfig, IoRequest, QosClass, Ssd};
use host::{Arbitration, HostFrontend, TenantSpec};

/// Near-sorted completion times the way a replay produces them: a
/// monotone base clock plus a small per-chip service jitter.
fn near_sorted_times(n: u32) -> Vec<f64> {
    (0..n).map(|i| f64::from(i) * 2.5 + f64::from(i.wrapping_mul(2654435761) % 97)).collect()
}

/// Sixteen tenants shaped like the benchmark's `tenants_read_mostly`
/// (LC/Std/BG cycling, weights 1-4, depths 8/16/24, WRR) over an empty
/// device, each with `per_tenant` reads of unwritten pages. A miss
/// costs the device almost nothing, so the time is the frontend's own:
/// admission, the due-arrival tree, arbitration and dispatch bookkeeping.
/// Arrivals sit on a coarse grid so tenants fall due at the same instant,
/// and bursts overrun the shallow queues.
fn dispatch_frontend(per_tenant: u64) -> HostFrontend {
    let ssd = Ssd::new(FtlConfig::small_test(), 11).expect("valid config");
    let pages = ssd.geometry_info().logical_pages;
    let specs = (0..16)
        .map(|i| {
            let qos = [QosClass::LatencyCritical, QosClass::Standard, QosClass::Background][i % 3];
            TenantSpec::new(&format!("t{i:02}"), qos)
                .weight(1 + (i % 4) as u32)
                .queue_depth(8 + (i % 3) * 8)
        })
        .collect();
    let mut front = HostFrontend::new(ssd, specs, Arbitration::WeightedRoundRobin);
    for tenant in 0..16u64 {
        let stream: Vec<(f64, IoRequest)> = (0..per_tenant)
            .map(|i| {
                let burst = i / 32;
                let at = (burst * 400 + (i * 7 + tenant * 13) % 24) as f64;
                (at, IoRequest::read((tenant * per_tenant + i) % pages))
            })
            .collect();
        front.submit(tenant as usize, &stream);
    }
    front
}

fn bench_events(c: &mut Criterion) {
    let near_sorted = near_sorted_times(4096);

    c.bench_function("depth_tracker_replay_4096", |b| {
        // One complete_at + one arrive per op, near-sorted input — the
        // exact access pattern of the timed device replay.
        b.iter(|| {
            let mut dt = DepthTracker::new();
            let mut depth = 0usize;
            for &t in &near_sorted {
                dt.complete_at(black_box(t + 50.0));
                depth = depth.wrapping_add(dt.arrive(black_box(t)));
            }
            depth
        })
    });

    c.bench_function("frontend_dispatch_16_tenants_8192", |b| {
        b.iter_batched(
            || dispatch_frontend(512),
            |mut front| {
                front.run().expect("reads of unwritten pages are misses, not errors");
                front.dispatch_log().len()
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_events);
criterion_main!(benches);
