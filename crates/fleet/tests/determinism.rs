//! The fleet reduction's determinism contract: the report is bit-identical
//! for 1, 2, and many worker threads (oversubscribed well past the
//! machine's cores), with the full per-device sample vectors compared bit
//! for bit — not just the headline quantiles.

use fleet::{run_fleet, FleetConfig, FleetReport, FleetWorkload};
use ftl::{
    FtlConfig, GcBudget, IntegrityConfig, ParityConfig, PatrolConfig, PatrolOrder, QueueModel,
};
use host::Arbitration;

/// GC-active device — frontend QoS, sliced collection and per-chip
/// clocks all on, so the determinism claim covers the full stack.
fn device_config() -> FtlConfig {
    let mut config = FtlConfig::small_test();
    config.queue_model = QueueModel::PerChip;
    config.idle_gc = true;
    config.gc_budget = GcBudget::Sliced { slice_us: 300.0 };
    config.overprovision = 0.45;
    config.gc_low_watermark = 3;
    config.gc_high_watermark = 5;
    config
}

/// [`device_config`] with parity, integrity tracking and PV-aware patrol
/// on, as the `fleet_integrity` benchmark runs it.
fn integrity_device_config() -> FtlConfig {
    let mut config = device_config();
    config.parity = ParityConfig::On;
    config.fault.page_type_ber_spread = 0.35;
    config.integrity = IntegrityConfig {
        track: true,
        retention_hours_per_us: 0.0,
        patrol: PatrolConfig::On {
            interval_us: 10_000.0,
            slice_us: 2_000.0,
            refresh_fraction: 0.1,
            order: PatrolOrder::SlowPoolFirst,
        },
    };
    config
}

fn fleet_on(device_config: FtlConfig, users: u64, workers: usize) -> FleetReport {
    let mut workload = FleetWorkload::new(users, 4);
    workload.mean_gap_us = 20_000.0;
    let config = FleetConfig {
        device_config,
        workload,
        fleet_seed: 11,
        arbitration: Arbitration::WeightedRoundRobin,
        workers,
    };
    run_fleet(&config).expect("fleet replay succeeds")
}

fn fleet(workers: usize) -> FleetReport {
    // ~80k ops over 4 devices: each shard's ~14k writes overwrite its
    // 5k-page logical space nearly three times, so collection stays busy.
    fleet_on(device_config(), 10_000, workers)
}

#[test]
fn fleet_report_is_bit_identical_across_worker_counts() {
    let one = fleet(1);
    assert!(one.total_commands > 0, "workload must produce traffic");
    assert!(one.devices.iter().all(|d| d.completed > 0), "every shard must see traffic");
    assert!(one.p999_us >= one.p99_us && one.p9999_us >= one.p999_us);

    for workers in [2, 16] {
        let other = fleet(workers);
        assert_eq!(one.total_commands, other.total_commands, "{workers} workers: commands");
        assert_eq!(one.p99_us.to_bits(), other.p99_us.to_bits(), "{workers} workers: p99");
        assert_eq!(one.p999_us.to_bits(), other.p999_us.to_bits(), "{workers} workers: p999");
        assert_eq!(one.p9999_us.to_bits(), other.p9999_us.to_bits(), "{workers} workers: p9999");
        assert_eq!(one.max_us.to_bits(), other.max_us.to_bits(), "{workers} workers: max");
        assert_eq!(
            one.max_device_p99_us.to_bits(),
            other.max_device_p99_us.to_bits(),
            "{workers} workers: max device p99"
        );
        assert_eq!(
            one.median_device_p99_us.to_bits(),
            other.median_device_p99_us.to_bits(),
            "{workers} workers: median device p99"
        );
        for (a, b) in one.devices.iter().zip(&other.devices) {
            assert_eq!(a.device, b.device);
            assert_eq!(a.completed, b.completed, "device {}: completed", a.device);
            assert_eq!(a.backpressured, b.backpressured, "device {}: backpressure", a.device);
            assert_eq!(a.gc_slices, b.gc_slices, "device {}: gc_slices", a.device);
            assert_eq!(
                a.gc_stall_us.to_bits(),
                b.gc_stall_us.to_bits(),
                "device {}: gc_stall_us",
                a.device
            );
            assert_eq!(
                a.makespan_us.to_bits(),
                b.makespan_us.to_bits(),
                "device {}: makespan",
                a.device
            );
            let (sa, sb) = (a.latency.samples_us(), b.latency.samples_us());
            assert_eq!(sa.len(), sb.len(), "device {}: sample count", a.device);
            for (i, (x, y)) in sa.iter().zip(sb).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "device {}: sample {i} drifted ({x} vs {y})",
                    a.device
                );
            }
        }
    }
}

#[test]
fn fleet_exercises_collection_and_the_device_skew_is_sane() {
    let report = fleet(2);
    assert!(
        report.devices.iter().any(|d| d.gc_slices > 0),
        "the fleet workload must keep sliced GC busy on at least one shard"
    );
    let skew = report.device_skew();
    assert!(skew >= 1.0, "skew is max/median, so it is at least 1 (got {skew})");
    assert!(report.max_device_p99_us >= report.median_device_p99_us);
}

#[test]
fn integrity_counters_are_bit_identical_across_worker_counts() {
    let one = fleet_on(integrity_device_config(), 2_000, 1);
    let two = fleet_on(integrity_device_config(), 2_000, 2);
    assert!(one.devices.iter().all(|d| d.patrol_scanned_pages > 0), "patrol must scan");
    assert!(one.devices.iter().any(|d| d.parity_verified > 0), "patrol must verify stripes");
    for (a, b) in one.devices.iter().zip(&two.devices) {
        assert_eq!(a.patrol_scanned_pages, b.patrol_scanned_pages, "device {}: scanned", a.device);
        assert_eq!(a.parity_verified, b.parity_verified, "device {}: parity", a.device);
        assert_eq!(a.rebuilds_failed, b.rebuilds_failed, "device {}: rebuilds", a.device);
    }
    assert_eq!(one.p999_us.to_bits(), two.p999_us.to_bits());
}
