//! Patrol-scrubber contracts.
//!
//! Two bit-identity guarantees anchor the data-integrity layer:
//!
//! * **Off is free** — with patrol off and aging disabled, the integrity
//!   plumbing (birth timestamps, the clock, the idle-gap hooks) must leave
//!   every stat of every engine/queue-model combination bit-identical to a
//!   device that never heard of integrity.
//! * **Engines agree** — with patrol active (tracking, acceleration,
//!   refreshes, the works) the batched engine must reproduce the stepper's
//!   full stat set bit for bit, patrol counters included.

use ftl::{
    poisson_arrivals, EngineMode, FtlConfig, IntegrityConfig, IoOp, IoRequest, ParityConfig,
    PatrolConfig, PatrolOrder, QueueModel, Ssd, Workload,
};

/// The timed-golden mixed workload: 3x-capacity random writes over half
/// the LPNs with reads and trims folded in, Poisson arrivals.
fn workload(dev: &Ssd) -> Vec<(f64, IoRequest)> {
    let info = dev.geometry_info();
    let n = (info.logical_pages * 3) as usize;
    let mut reqs = Workload::random_write(0.5).generate(&info, n, 5);
    for (i, r) in reqs.iter_mut().enumerate() {
        match i % 7 {
            3 => r.op = IoOp::Read,
            5 => *r = IoRequest { op: IoOp::Read, lpn: info.logical_pages - 1 },
            6 if i % 14 == 6 => r.op = IoOp::Trim,
            _ => {}
        }
    }
    poisson_arrivals(&reqs, 800.0, 1)
}

fn run_config(config: FtlConfig) -> Ssd {
    let mut dev = Ssd::new(config, 3).unwrap();
    let timed = workload(&dev);
    dev.run_timed(&timed).unwrap();
    dev
}

/// Full-stat-set bitwise comparison; `tag` names the combination under
/// test in failure messages.
fn assert_stats_bit_identical(a: &Ssd, b: &Ssd, tag: &str) {
    let (s, t) = (a.stats(), b.stats());
    assert_eq!(s.host_writes, t.host_writes, "{tag} host_writes");
    assert_eq!(s.host_reads, t.host_reads, "{tag} host_reads");
    assert_eq!(s.host_trims, t.host_trims, "{tag} host_trims");
    assert_eq!(s.gc_runs, t.gc_runs, "{tag} gc_runs");
    assert_eq!(s.gc_relocations, t.gc_relocations, "{tag} gc_relocations");
    assert_eq!(s.gc_slices, t.gc_slices, "{tag} gc_slices");
    assert_eq!(s.busy_us.to_bits(), t.busy_us.to_bits(), "{tag} busy_us");
    assert_eq!(s.idle_gc_us.to_bits(), t.idle_gc_us.to_bits(), "{tag} idle_gc_us");
    assert_eq!(s.patrol_us.to_bits(), t.patrol_us.to_bits(), "{tag} patrol_us");
    assert_eq!(s.refresh_us.to_bits(), t.refresh_us.to_bits(), "{tag} refresh_us");
    assert_eq!(s.uncorrectable_reads, t.uncorrectable_reads, "{tag} uncorrectable_reads");
    assert_eq!(s.refresh_relocations, t.refresh_relocations, "{tag} refresh_relocations");
    assert_eq!(s.patrol_scanned_pages, t.patrol_scanned_pages, "{tag} patrol_scanned_pages");
    assert_eq!(s.patrol_refreshes, t.patrol_refreshes, "{tag} patrol_refreshes");
    assert_eq!(s.patrol_passes, t.patrol_passes, "{tag} patrol_passes");
    assert_eq!(s.parity_verified, t.parity_verified, "{tag} parity_verified");
    assert_eq!(s.parity_mismatch, t.parity_mismatch, "{tag} parity_mismatch");
    assert_eq!(s.rebuilds_ok, t.rebuilds_ok, "{tag} rebuilds_ok");
    assert_eq!(s.rebuilds_failed, t.rebuilds_failed, "{tag} rebuilds_failed");
    assert_eq!(s.waf().to_bits(), t.waf().to_bits(), "{tag} waf");
    assert_eq!(s.write_latency.len(), t.write_latency.len(), "{tag} write samples");
    assert_eq!(
        s.write_latency.mean_us().to_bits(),
        t.write_latency.mean_us().to_bits(),
        "{tag} write mean"
    );
    assert_eq!(
        s.write_latency.quantile_us(0.99).to_bits(),
        t.write_latency.quantile_us(0.99).to_bits(),
        "{tag} write p99"
    );
    assert_eq!(
        s.write_latency.max_us().to_bits(),
        t.write_latency.max_us().to_bits(),
        "{tag} write max"
    );
    assert_eq!(s.read_latency.len(), t.read_latency.len(), "{tag} read samples");
    assert_eq!(
        s.read_latency.mean_us().to_bits(),
        t.read_latency.mean_us().to_bits(),
        "{tag} read mean"
    );
    assert_eq!(
        s.read_latency.quantile_us(0.99).to_bits(),
        t.read_latency.quantile_us(0.99).to_bits(),
        "{tag} read p99"
    );
}

#[test]
fn patrol_off_and_zero_aging_is_bit_identical_to_the_seed_config() {
    // An explicitly spelled-out "everything off" integrity block must be
    // indistinguishable from the default — across both engines and both
    // queue models, with idle GC on so every background hook runs.
    for engine in [EngineMode::Stepper, EngineMode::Batched] {
        for queue_model in [QueueModel::Single, QueueModel::PerChip] {
            let mut seed_config = FtlConfig::small_test();
            seed_config.idle_gc = true;
            seed_config.engine = engine;
            seed_config.queue_model = queue_model;
            let mut explicit = seed_config.clone();
            explicit.integrity = IntegrityConfig {
                track: false,
                retention_hours_per_us: 0.0,
                patrol: PatrolConfig::Off,
            };
            let a = run_config(seed_config);
            let b = run_config(explicit);
            let tag = format!("engine={engine:?} queue={queue_model:?}");
            assert_stats_bit_identical(&a, &b, &tag);
            let s = b.stats();
            assert_eq!(s.uncorrectable_reads, 0, "{tag}: no ECC model consulted");
            assert_eq!(s.patrol_scanned_pages, 0, "{tag}: patrol never ran");
            assert_eq!(s.refresh_us.to_bits(), 0.0f64.to_bits(), "{tag}: no refresh time");
            assert_eq!(s.patrol_us.to_bits(), 0.0f64.to_bits(), "{tag}: no patrol time");
        }
    }
}

#[test]
fn tracking_without_aging_never_goes_uncorrectable() {
    // Tracking on but zero acceleration: ages stay 0 h, so only wear (P/E
    // cycling) feeds the ECC model. The scrubber may still refresh the
    // most-cycled pages — that's the model working — but nothing may reach
    // the uncorrectable limit, so the read path never refreshes reactively.
    let mut config = FtlConfig::small_test();
    config.idle_gc = true;
    config.integrity = IntegrityConfig {
        track: true,
        retention_hours_per_us: 0.0,
        patrol: PatrolConfig::On {
            interval_us: 10_000.0,
            slice_us: 200.0,
            refresh_fraction: 0.5,
            order: PatrolOrder::SlowPoolFirst,
        },
    };
    let dev = run_config(config);
    let s = dev.stats();
    assert!(s.patrol_scanned_pages > 0, "patrol must actually scan in idle gaps");
    assert_eq!(s.uncorrectable_reads, 0, "age-0 pages never exhaust the retry ladder");
    assert_eq!(s.refresh_relocations, 0, "no reactive refreshes without uncorrectable reads");
    assert_eq!(s.refresh_us.to_bits(), 0.0f64.to_bits());
}

#[test]
fn batched_engine_matches_stepper_with_patrol_active() {
    // Two full integrity regimes, each on both queue models:
    // * aging — aggressive acceleration, so the run produces uncorrectable
    //   reads, in-path refreshes, patrol refreshes and completed passes;
    // * fleet — the `fleet_integrity` benchmark device: parity on, page-type
    //   spread, no retention aging and refreshes at 0.1 of the limit, so
    //   read disturb alone drives refreshes while patrol verifies stripes.
    // The batched engine memoizes latency and RBER terms and the stepper
    // does not, so every stat agreeing bit for bit pins the memo against
    // the uncached model.
    let mut aging = FtlConfig::small_test();
    aging.integrity = IntegrityConfig {
        track: true,
        retention_hours_per_us: 0.01,
        patrol: PatrolConfig::On {
            interval_us: 20_000.0,
            slice_us: 300.0,
            refresh_fraction: 0.5,
            order: PatrolOrder::SlowPoolFirst,
        },
    };
    let mut fleet = FtlConfig::small_test();
    fleet.parity = ParityConfig::On;
    fleet.fault.page_type_ber_spread = 0.35;
    fleet.integrity = IntegrityConfig {
        track: true,
        retention_hours_per_us: 0.0,
        patrol: PatrolConfig::On {
            interval_us: 10_000.0,
            slice_us: 2_000.0,
            refresh_fraction: 0.1,
            order: PatrolOrder::SlowPoolFirst,
        },
    };
    for (regime, base) in [("aging", aging), ("fleet", fleet)] {
        for queue_model in [QueueModel::Single, QueueModel::PerChip] {
            let mut config = base.clone();
            config.idle_gc = true;
            config.queue_model = queue_model;
            let mut stepper_config = config.clone();
            stepper_config.engine = EngineMode::Stepper;
            let mut batched_config = config;
            batched_config.engine = EngineMode::Batched;
            let stepper = run_config(stepper_config);
            let batched = run_config(batched_config);
            let tag = format!("regime={regime} queue={queue_model:?}");
            let s = stepper.stats();
            assert!(s.patrol_scanned_pages > 0, "{tag}: the regime must exercise patrol");
            assert!(s.patrol_refreshes > 0, "{tag}: the regime must refresh proactively");
            if regime == "fleet" {
                assert!(s.parity_verified > 0, "{tag}: patrol must verify parity stripes");
            }
            assert_stats_bit_identical(&stepper, &batched, &tag);
        }
    }
}

#[test]
fn blind_and_slow_first_orders_both_complete_passes() {
    // The two scan orders visit the same set of sealed superblocks — only
    // the order differs — so over a quiet device both complete passes and
    // scan a comparable page population.
    let mut scanned = Vec::new();
    for order in [PatrolOrder::Blind, PatrolOrder::SlowPoolFirst] {
        let mut config = FtlConfig::small_test();
        config.idle_gc = true;
        config.integrity = IntegrityConfig {
            track: true,
            retention_hours_per_us: 0.0005,
            patrol: PatrolConfig::On {
                interval_us: 50_000.0,
                slice_us: 400.0,
                refresh_fraction: 0.5,
                order,
            },
        };
        let dev = run_config(config);
        let s = dev.stats();
        assert!(s.patrol_passes > 0, "{order:?}: passes complete on a mostly idle device");
        scanned.push(s.patrol_scanned_pages);
    }
    let (blind, slow) = (scanned[0] as f64, scanned[1] as f64);
    let ratio = blind.max(slow) / blind.min(slow).max(1.0);
    assert!(ratio < 1.5, "orders scan comparable populations: blind {blind} vs slow-first {slow}");
}
