//! Fleet replay throughput vs worker count (BENCH_4).
//!
//! Replays one sharded multi-user fleet workload — the `repro fleet`
//! shape: GC-active devices behind the three-tenant QoS frontend —
//! at several worker-pool sizes and reports fleet ops/sec for each. The
//! determinism contract is asserted before any number counts: every
//! worker count must produce a bit-identical [`fleet::FleetReport`]
//! (fleet quantiles, per-device stats and the full per-device sample
//! vectors), so the sweep measures pure wall-clock scaling, never a
//! results drift.
//!
//! The JSON records the machine's core count alongside the worker sweep:
//! on a single-core host the oversubscribed rows show scheduling overhead
//! rather than speedup, and the `speedup_vs_1w` column says so honestly.
//!
//! Usage: `cargo run --release -p repro-bench --bin perf_fleet [--quick] [--out BENCH_4.json]`

use fleet::{run_fleet, FleetConfig, FleetReport, FleetWorkload};
use ftl::{FtlConfig, GcBudget, OrganizationScheme, QueueModel};
use host::Arbitration;
use std::time::Instant;

/// The `repro fleet` device shape: GC-active sliced collection with
/// QSTR-MED placement.
fn device_config() -> FtlConfig {
    FtlConfig {
        scheme: OrganizationScheme::QstrMed { candidates: 4 },
        queue_model: QueueModel::PerChip,
        idle_gc: true,
        gc_budget: GcBudget::Sliced { slice_us: 300.0 },
        overprovision: 0.45,
        gc_low_watermark: 3,
        gc_high_watermark: 5,
        ..FtlConfig::small_test()
    }
}

/// Everything that must match across worker counts, down to the bit: the
/// fleet quantiles plus every device's stats and full sample vector.
#[derive(Debug, PartialEq, Eq)]
struct FleetSnapshot {
    total_commands: u64,
    p99_bits: u64,
    p999_bits: u64,
    p9999_bits: u64,
    max_bits: u64,
    max_device_p99_bits: u64,
    median_device_p99_bits: u64,
    devices: Vec<(u64, u64, u64, u64, u64, Vec<u64>)>,
}

impl FleetSnapshot {
    fn of(report: &FleetReport) -> Self {
        FleetSnapshot {
            total_commands: report.total_commands,
            p99_bits: report.p99_us.to_bits(),
            p999_bits: report.p999_us.to_bits(),
            p9999_bits: report.p9999_us.to_bits(),
            max_bits: report.max_us.to_bits(),
            max_device_p99_bits: report.max_device_p99_us.to_bits(),
            median_device_p99_bits: report.median_device_p99_us.to_bits(),
            devices: report
                .devices
                .iter()
                .map(|d| {
                    (
                        d.completed,
                        d.backpressured,
                        d.gc_slices,
                        d.gc_stall_us.to_bits(),
                        d.makespan_us.to_bits(),
                        d.latency.samples_us().iter().map(|s| s.to_bits()).collect(),
                    )
                })
                .collect(),
        }
    }
}

/// One timed row of the output JSON.
struct Timing {
    workers: usize,
    ops: u64,
    elapsed_s: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = match args.iter().position(|a| a == "--out") {
        Some(i) => args.get(i + 1).cloned().expect("--out takes a path"),
        None => "BENCH_4.json".to_string(),
    };

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (users, devices, reps) = if quick { (10_000u64, 4usize, 1) } else { (120_000, 8, 3) };
    let mut workload = FleetWorkload::new(users, devices);
    // The `repro fleet` pacing: a stationary ~900µs aggregate gap per
    // device, with user starts spread over one stream length so the
    // replay measures steady-state throughput, not a t = 0 backlog drain.
    workload.mean_gap_us = 900.0 * users as f64 / devices as f64;
    workload.start_spread_us = workload.mean_gap_us * workload.mean_ops_per_user;

    // Worker counts: serial, pairwise, and one-per-core — deduped so a
    // single-core machine still produces at least two rows (1 and 2; the
    // oversubscribed row is what determinism must survive anyway).
    let mut worker_counts = vec![1usize, 2];
    if !worker_counts.contains(&cores) {
        worker_counts.push(cores);
    }

    let mut baseline: Option<FleetSnapshot> = None;
    let mut timings: Vec<Timing> = Vec::new();
    for &workers in &worker_counts {
        let config = FleetConfig {
            device_config: device_config(),
            workload: workload.clone(),
            fleet_seed: 11,
            arbitration: Arbitration::WeightedRoundRobin,
            workers,
        };
        let mut best = f64::INFINITY;
        let mut ops = 0u64;
        for _ in 0..reps {
            let t = Instant::now();
            let report = run_fleet(&config).expect("fleet workload fits the devices");
            best = best.min(t.elapsed().as_secs_f64());
            ops = report.total_commands;
            let snap = FleetSnapshot::of(&report);
            match &baseline {
                Some(prev) => assert_eq!(
                    prev, &snap,
                    "fleet report diverged at {workers} workers — determinism broken"
                ),
                None => baseline = Some(snap),
            }
        }
        eprintln!("workers {workers}: {ops} ops in {best:.2}s ({:.0} ops/s)", ops as f64 / best);
        timings.push(Timing { workers, ops, elapsed_s: best });
    }

    let one_worker_s = timings[0].elapsed_s;
    let runs: Vec<String> = timings
        .iter()
        .map(|t| {
            format!(
                "    {{\"name\": \"workers_{}\", \"workers\": {}, \"ops\": {}, \
                 \"elapsed_s\": {:.3}, \"ops_per_s\": {:.0}, \"speedup_vs_1w\": {:.2}}}",
                t.workers,
                t.workers,
                t.ops,
                t.elapsed_s,
                t.ops as f64 / t.elapsed_s,
                one_worker_s / t.elapsed_s,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"Fleet-scale parallel replay: a sharded multi-user workload over \
         {devices} GC-active devices, replayed at several worker-pool sizes; the FleetReport \
         (quantiles, per-device stats, full sample vectors) is asserted bit-identical across \
         worker counts before any throughput number counts\",\n  \
         \"command\": \"cargo run --release -p repro-bench --bin perf_fleet\",\n  \
         \"quick\": {quick},\n  \
         \"cores\": {cores},\n  \
         \"devices\": {devices},\n  \
         \"users\": {users},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        runs.join(",\n")
    );
    std::fs::write(&out, json).expect("write BENCH_4.json");
    eprintln!("wrote {out}");
}
