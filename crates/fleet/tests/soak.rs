//! Fleet soak: accelerated aging across every shard with the data-integrity
//! machinery live, ending in a full read-back sweep. The invariant under
//! test is the tentpole's no-silent-data-loss contract — every live logical
//! page is readable, and any read that crossed the uncorrectable limit was
//! refreshed on the spot — plus the usual worker-count determinism.

use fleet::{run_fleet_soak, FleetConfig, FleetWorkload, SoakReport};
use ftl::{FtlConfig, GcBudget, IntegrityConfig, PatrolConfig, PatrolOrder, QueueModel};
use host::Arbitration;

/// The determinism suite's GC-active device, with integrity
/// tracking, aggressive aging acceleration and the background scrubber on
/// top — the full stack the soak is meant to exercise.
fn aged_device_config() -> FtlConfig {
    let mut config = FtlConfig::small_test();
    config.queue_model = QueueModel::PerChip;
    config.idle_gc = true;
    config.gc_budget = GcBudget::Sliced { slice_us: 300.0 };
    config.overprovision = 0.45;
    config.gc_low_watermark = 3;
    config.gc_high_watermark = 5;
    config.integrity = IntegrityConfig {
        track: true,
        retention_hours_per_us: 0.003,
        patrol: PatrolConfig::On {
            interval_us: 20_000.0,
            slice_us: 400.0,
            refresh_fraction: 0.5,
            order: PatrolOrder::SlowPoolFirst,
        },
    };
    config
}

fn soak(workers: usize) -> SoakReport {
    let mut workload = FleetWorkload::new(6_000, 3);
    workload.mean_gap_us = 20_000.0;
    let config = FleetConfig {
        device_config: aged_device_config(),
        workload,
        fleet_seed: 23,
        arbitration: Arbitration::WeightedRoundRobin,
        workers,
    };
    run_fleet_soak(&config).expect("fleet soak succeeds")
}

#[test]
fn soak_holds_the_no_data_loss_invariant() {
    let report = soak(2);
    assert!(report.devices.iter().all(|d| d.completed > 0), "every shard must see traffic");
    assert!(report.live_lpns > 0, "the soak must leave live data to sweep");
    assert_eq!(report.unreadable_lpns, 0, "a live page failed to read back");
    assert!(report.no_data_loss(), "uncorrectable reads must be refreshed in-path");
    assert!(
        report.devices.iter().all(|d| d.patrol_scanned_pages > 0),
        "idle gaps must give the scrubber time on every shard"
    );
    assert!(report.patrol_passes > 0, "at least one shard completes a patrol pass");
    assert!(
        report.patrol_refreshes > 0,
        "accelerated aging must push some pages past the refresh threshold"
    );
}

#[test]
fn soak_report_is_bit_identical_across_worker_counts() {
    let one = soak(1);
    for workers in [2, 8] {
        let other = soak(workers);
        assert_eq!(one.live_lpns, other.live_lpns, "{workers} workers: live pages");
        assert_eq!(one.sweep_uncorrectable, other.sweep_uncorrectable, "{workers} workers");
        assert_eq!(one.patrol_refreshes, other.patrol_refreshes, "{workers} workers");
        assert_eq!(one.patrol_passes, other.patrol_passes, "{workers} workers");
        for (a, b) in one.devices.iter().zip(&other.devices) {
            assert_eq!(a.device, b.device);
            assert_eq!(a.completed, b.completed, "device {}: completed", a.device);
            assert_eq!(a.live_lpns, b.live_lpns, "device {}: live pages", a.device);
            assert_eq!(
                a.run_uncorrectable, b.run_uncorrectable,
                "device {}: run uncorrectable",
                a.device
            );
            assert_eq!(
                a.sweep_uncorrectable, b.sweep_uncorrectable,
                "device {}: sweep uncorrectable",
                a.device
            );
            assert_eq!(
                a.patrol_scanned_pages, b.patrol_scanned_pages,
                "device {}: patrol scanned",
                a.device
            );
            assert_eq!(
                a.patrol_refreshes, b.patrol_refreshes,
                "device {}: patrol refreshes",
                a.device
            );
        }
    }
}
