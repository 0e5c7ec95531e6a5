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

/// The refresh-dense regime: parity on, page-type spread, fast retention
/// aging and refreshes at a tenth of the correction limit, so most patrol
/// steps refresh a page while more pages of the same member word-line are
/// still to be scanned. Collection runs only on writes and only below one
/// assemblable superblock (idle GC off, watermarks 1/2), so refresh
/// staging regularly drains the pool and patrol's emergency floor collects
/// in the middle of a super word-line scan.
fn refresh_dense_config(queue_model: QueueModel, engine: EngineMode) -> FtlConfig {
    let mut config = FtlConfig::small_test();
    config.queue_model = queue_model;
    config.engine = engine;
    config.gc_low_watermark = 1;
    config.gc_high_watermark = 2;
    config.parity = ParityConfig::On;
    config.fault.page_type_ber_spread = 0.35;
    config.integrity = IntegrityConfig {
        track: true,
        retention_hours_per_us: 0.01,
        patrol: PatrolConfig::On {
            interval_us: 10_000.0,
            slice_us: 2_000.0,
            refresh_fraction: 0.1,
            order: PatrolOrder::SlowPoolFirst,
        },
    };
    config
}

/// Counters verbatim and floats as bit patterns; `chip_busy_us` folds
/// every per-group clock into one word.
fn fingerprint(dev: &Ssd) -> Vec<(&'static str, u64)> {
    let s = dev.stats();
    let chip_busy = s.chip_busy_us.iter().fold(0u64, |acc, b| acc.rotate_left(7) ^ b.to_bits());
    vec![
        ("host_writes", s.host_writes),
        ("host_reads", s.host_reads),
        ("gc_runs", s.gc_runs),
        ("gc_relocations", s.gc_relocations),
        ("gc_slices", s.gc_slices),
        ("superwl_programs", s.superwl_programs),
        ("uncorrectable_reads", s.uncorrectable_reads),
        ("refresh_relocations", s.refresh_relocations),
        ("patrol_scanned_pages", s.patrol_scanned_pages),
        ("patrol_refreshes", s.patrol_refreshes),
        ("patrol_passes", s.patrol_passes),
        ("parity_verified", s.parity_verified),
        ("parity_mismatch", s.parity_mismatch),
        ("rebuilds_ok", s.rebuilds_ok),
        ("rebuilds_failed", s.rebuilds_failed),
        ("busy_us", s.busy_us.to_bits()),
        ("idle_gc_us", s.idle_gc_us.to_bits()),
        ("patrol_us", s.patrol_us.to_bits()),
        ("refresh_us", s.refresh_us.to_bits()),
        ("makespan_us", s.makespan_us.to_bits()),
        ("chip_busy_us", chip_busy),
        ("write_mean", s.write_latency.mean_us().to_bits()),
        ("read_mean", s.read_latency.mean_us().to_bits()),
        ("read_p99", s.read_latency.quantile_us(0.99).to_bits()),
    ]
}

/// Recorded with the page-at-a-time patrol scan (one `read_oob`,
/// `read_page` and `expected_error_bits` call per page, no latency memo
/// under the stepper). Any change to the order of reads, disturb
/// increments, refreshes and collections inside a super word-line flips
/// bits here.
const REFRESH_DENSE_SINGLE: &[(&str, u64)] = &[
    ("host_writes", 12220),
    ("host_reads", 1878),
    ("gc_runs", 55),
    ("gc_relocations", 323),
    ("gc_slices", 51),
    ("superwl_programs", 2441),
    ("uncorrectable_reads", 1306),
    ("refresh_relocations", 1012),
    ("patrol_scanned_pages", 110917),
    ("patrol_refreshes", 12940),
    ("patrol_passes", 46),
    ("parity_verified", 21668),
    ("parity_mismatch", 0),
    ("rebuilds_ok", 1),
    ("rebuilds_failed", 1305),
    ("busy_us", 0x41512adcd3c8e8f7),
    ("idle_gc_us", 0x0000000000000000),
    ("patrol_us", 0x416677b2c31a5ad1),
    ("refresh_us", 0x4102165666666667),
    ("makespan_us", 0x416d29706d97986c),
    ("chip_busy_us", 0x0000000000000000),
    ("write_mean", 0x408b9771cd515c9d),
    ("read_mean", 0x4089bf4c75d1ade8),
    ("read_p99", 0x40b2eaac716f1a30),
];

/// [`REFRESH_DENSE_SINGLE`]'s run under per-chip clocks.
const REFRESH_DENSE_PER_CHIP: &[(&str, u64)] = &[
    ("host_writes", 12220),
    ("host_reads", 1878),
    ("gc_runs", 66),
    ("gc_relocations", 323),
    ("gc_slices", 57),
    ("superwl_programs", 2801),
    ("uncorrectable_reads", 1394),
    ("refresh_relocations", 1091),
    ("patrol_scanned_pages", 151138),
    ("patrol_refreshes", 16700),
    ("patrol_passes", 45),
    ("parity_verified", 28608),
    ("parity_mismatch", 0),
    ("rebuilds_ok", 0),
    ("rebuilds_failed", 1394),
    ("busy_us", 0x41519392cd8b26c7),
    ("idle_gc_us", 0x0000000000000000),
    ("patrol_us", 0x416e33eea53fa04b),
    ("refresh_us", 0x4100b85ccccccccc),
    ("makespan_us", 0x416d295403a17e32),
    ("chip_busy_us", 0x839576978f919821),
    ("write_mean", 0x408e4f338ca69744),
    ("read_mean", 0x4080d0a7d0d99184),
    ("read_p99", 0x40d018c8711df159),
];

#[test]
fn refresh_dense_patrol_reproduces_the_page_at_a_time_golden() {
    for (queue_model, golden) in
        [(QueueModel::Single, REFRESH_DENSE_SINGLE), (QueueModel::PerChip, REFRESH_DENSE_PER_CHIP)]
    {
        for engine in [EngineMode::Stepper, EngineMode::Batched] {
            let got = fingerprint(&run_config(refresh_dense_config(queue_model, engine)));
            assert_eq!(got.len(), golden.len());
            for ((name, have), (_, want)) in got.iter().zip(golden) {
                assert_eq!(have, want, "{queue_model:?} {engine:?} {name}: {have:#x} vs {want:#x}");
            }
        }
    }
}
