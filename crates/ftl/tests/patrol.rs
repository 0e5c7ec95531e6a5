//! Patrol-scrubber contracts.
//!
//! Two bit-identity guarantees anchor the data-integrity layer:
//!
//! * **Off is free** — with patrol off and aging disabled, the integrity
//!   plumbing (birth timestamps, the clock, the idle-gap hooks) must leave
//!   every stat of either queue model bit-identical to a device that never
//!   heard of integrity.
//! * **Pinned with patrol active** — with patrol active (tracking,
//!   acceleration, refreshes, the works) the replay reproduces full-stat
//!   fingerprints recorded from the original one-op-at-a-time replay loop,
//!   back when that loop was the batched engine's oracle.

#[path = "support/fingerprint.rs"]
mod fingerprint;

use ftl::{
    poisson_arrivals, FtlConfig, GcBudget, IntegrityConfig, IoOp, IoRequest, ParityConfig,
    PatrolConfig, PatrolOrder, QosClass, QueueModel, Ssd, Workload,
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
    // indistinguishable from the default — across both queue models, with
    // idle GC on so every background hook runs.
    for queue_model in [QueueModel::Single, QueueModel::PerChip] {
        let mut seed_config = FtlConfig::small_test();
        seed_config.idle_gc = true;
        seed_config.queue_model = queue_model;
        let mut explicit = seed_config.clone();
        explicit.integrity = IntegrityConfig {
            track: false,
            retention_hours_per_us: 0.0,
            patrol: PatrolConfig::Off,
        };
        let a = run_config(seed_config);
        let b = run_config(explicit);
        let tag = format!("queue={queue_model:?}");
        assert_stats_bit_identical(&a, &b, &tag);
        let s = b.stats();
        assert_eq!(s.uncorrectable_reads, 0, "{tag}: no ECC model consulted");
        assert_eq!(s.patrol_scanned_pages, 0, "{tag}: patrol never ran");
        assert_eq!(s.refresh_us.to_bits(), 0.0f64.to_bits(), "{tag}: no refresh time");
        assert_eq!(s.patrol_us.to_bits(), 0.0f64.to_bits(), "{tag}: no patrol time");
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
    // The table was recorded from the stepper replay while it was the
    // batched engine's oracle.
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
    let regimes = [("aging", aging), ("fleet", fleet)];
    let runs = regimes.iter().flat_map(|r| [(r, QueueModel::Single), (r, QueueModel::PerChip)]);
    for (((regime, base), queue_model), want) in runs.zip(PATROL_ACTIVE) {
        let mut config = base.clone();
        config.idle_gc = true;
        config.queue_model = queue_model;
        let dev = run_config(config);
        let tag = format!("regime={regime} queue={queue_model:?}");
        let s = dev.stats();
        assert!(s.patrol_scanned_pages > 0, "{tag}: the regime must exercise patrol");
        assert!(s.patrol_refreshes > 0, "{tag}: the regime must refresh proactively");
        if *regime == "fleet" {
            assert!(s.parity_verified > 0, "{tag}: patrol must verify parity stripes");
        }
        fingerprint::assert_pinned(&fingerprint::device(&dev), want, &tag);
    }
}

/// Fingerprints of [`batched_engine_matches_stepper_with_patrol_active`]:
/// aging on `Single`, aging on `PerChip`, fleet on `Single`, fleet on
/// `PerChip`.
#[rustfmt::skip]
const PATROL_ACTIVE: [&[u64]; 4] = [
    &[
        13331, 0, 13331, 0, 2026, 1481, 323, 42, 0, 0, 0xcbf29ce484222325, 0, 0xcbf29ce484222325,
        1984, 63, 35, 28, 0x40f25d3333333361, 0x40a7400000000000, 0x414641e154eeb39e,
        0x40ff42055a1fc9c9, 0, 0, 1084, 1084, 0x410317d99999999c, 0x41613ee3366c080f, 105352, 8858,
        23, 0, 0x41624b67f1a1e2b6, 0x4120eadd3b64e7c8, 17, 0x416fc92c85eb2e9d, 0xcbf29ce484222325,
        0xbb114d2eb270c4d2, 0x64ce8e00b6fda448, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0x90af831f967741a0,
    ],
    &[
        13331, 0, 13331, 0, 2026, 1481, 259, 44, 0, 0, 0xcbf29ce484222325, 0x409d099999999999,
        0xaa55bf9985fe4d74, 2069, 65, 35, 30, 0x40f2d719999999dc, 0x40a7f40000000000,
        0x414624f14541e376, 0x40fdce1e8a87325b, 0, 0, 1056, 1056, 0x41021c5fffffffff,
        0x4166c200fc636a4d, 143044, 9901, 24, 0, 0x41327785533c61fc, 0, 13, 0x416fc9b5673ec01f,
        0xff5e7c78a2439e4f, 0xd0f9096025e7a7e2, 0x36b57eb0c4bfbc79, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0x64a58221e539453c,
    ],
    &[
        12220, 0, 12220, 0, 1878, 1358, 555, 20, 0, 0, 0xcbf29ce484222325, 0x40b0576d310d024b,
        0xe1c394d993df582a, 1285, 41, 35, 6, 0x40e74999999999dc, 0x409f380000000000,
        0x41421b5e7ecb2580, 0x4104040a71388470, 0, 0, 0, 0, 0, 0x41665e3ba1430832, 111729, 1249,
        40, 0, 0x415b08a60cbdc8e5, 0x41192b5cc4ee0987, 19, 0x416d2976797cf45f, 0xcbf29ce484222325,
        0x2e33a01c3a3903ae, 0x3d4df6932c24c4cf, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 42797, 0,
        0xc7b795a9302f3f86,
    ],
    &[
        12220, 0, 12220, 0, 1878, 1358, 604, 23, 0, 0, 0xcbf29ce484222325, 0x40b12cd934041b9e,
        0xc79e444a2f7e4066, 1370, 44, 35, 9, 0x40e900e6666666c1, 0x40a05c0000000000,
        0x41421c9e2ceafca0, 0x4105c839a38f5616, 0, 0, 0, 0, 0, 0x416fd6ce65e045db, 159664, 2113,
        40, 0, 0x412a6c08846f4d67, 0, 8, 0x416d295403a17e32, 0x5e071d5696b961b8,
        0xd033f87eb30938cd, 0xe40d064c471f2f5b, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 58606, 0,
        0xdef577ef7d43ce94,
    ],
];

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
fn refresh_dense_config(queue_model: QueueModel) -> FtlConfig {
    let mut config = FtlConfig::small_test();
    config.queue_model = queue_model;
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
fn refresh_dense_summary(dev: &Ssd) -> Vec<(&'static str, u64)> {
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
        let got = refresh_dense_summary(&run_config(refresh_dense_config(queue_model)));
        assert_eq!(got.len(), golden.len());
        for ((name, have), (_, want)) in got.iter().zip(golden) {
            assert_eq!(have, want, "{queue_model:?} {name}: {have:#x} vs {want:#x}");
        }
    }
}

/// A regime whose patrol finds stripes that parity no longer covers:
/// program failures drop members from superblocks mid-fill, so the super
/// word-lines written before the drop lose that member's tags (or their
/// parity page) and no longer close, and the scan must restage their live
/// pages. Tracking is on with zero aging and the order is blind; 2x the
/// logical capacity of random writes over 60% of the LPNs arrive 800 µs
/// apart, all seeds 0.
fn parity_mismatch_run() -> (Ssd, Vec<u64>) {
    let mut config = FtlConfig::small_test();
    config.queue_model = QueueModel::PerChip;
    config.parity = ParityConfig::On;
    config.fault.program_fail_prob = 0.002;
    config.integrity = IntegrityConfig {
        track: true,
        retention_hours_per_us: 0.0,
        patrol: PatrolConfig::On {
            interval_us: 5_000.0,
            slice_us: 2_000.0,
            refresh_fraction: 0.5,
            order: PatrolOrder::Blind,
        },
    };
    let mut dev = Ssd::new(config, 0).unwrap();
    let info = dev.geometry_info();
    let reqs = Workload::random_write(0.6).generate(&info, (info.logical_pages * 2) as usize, 0);
    let mut written: Vec<u64> = reqs.iter().map(|r| r.lpn).collect();
    written.sort_unstable();
    written.dedup();
    dev.run_timed(&poisson_arrivals(&reqs, 800.0, 0)).unwrap();
    (dev, written)
}

#[test]
fn patrol_restages_the_live_pages_of_a_stripe_parity_no_longer_covers() {
    let (mut dev, written) = parity_mismatch_run();
    let s = dev.stats();
    assert!(s.parity_mismatch > 0, "the regime must find an unprotected stripe");
    assert!(s.parity_verified > 0, "intact stripes still verify");
    assert!(s.refresh_relocations > 0, "a mismatch restages its live pages");
    fingerprint::assert_pinned(&fingerprint::device(&dev), PARITY_MISMATCH, "parity mismatch");
    // Nothing was lost: every written LPN still reads back.
    for &lpn in &written {
        assert!(dev.read(lpn).unwrap().is_some(), "lpn {lpn} lost");
    }
}

/// Fingerprint of [`patrol_restages_the_live_pages_of_a_stripe_parity_no_longer_covers`].
#[rustfmt::skip]
const PARITY_MISMATCH: &[u64] = &[
    12672, 0, 12672, 0, 0, 0, 2681, 34, 1, 0, 0xad408e8c2ae4aef9, 0x4128c89c1fc57a5a,
    0xbab528c31bddb4e9, 1594, 51, 38, 13, 0x40e5f9cccccccd47, 0x409e300000000000,
    0x414882407b22d301, 0, 10, 455, 30, 0, 0, 0x41617257ef3af127, 103748, 1075, 46, 10,
    0x418324a84c3bf82c, 0, 144, 0x4163645e48a347e8, 0x662a9ff057cb123f, 0x6f9d04a836817cc1,
    0xcbf29ce484222325, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 19328, 8, 0x8a619399ab91093c,
];

/// The run-boundaries regime: parity on, page-type spread, fast retention
/// aging, refreshes at a tenth of the correction limit and blind order, so
/// most refreshes land mid-word-line; sliced and idle-gap collection with
/// watermarks 1/2 and per-chip clocks. The timed-golden workload's middle
/// third arrives at once as latency-critical commands, which never pay a
/// patrol slice, so the pass stays parked while collection frees the
/// superblock it was scanning and reuses its blocks. A counting copy of the
/// replay saw three member blocks of a superblock under scan erased and
/// reprogrammed while the pass was parked (the burst outlasts the patrol
/// interval, so the pass then restarts), and all 9,150 refreshes land
/// before the last page of their super word-line. Those counts are for
/// a patrol interval of 10,000 µs; `interval_us` sets it.
fn run_boundaries(interval_us: f64) -> Ssd {
    let mut config = FtlConfig::small_test();
    config.queue_model = QueueModel::PerChip;
    config.idle_gc = true;
    config.gc_budget = GcBudget::Sliced { slice_us: 300.0 };
    config.gc_low_watermark = 1;
    config.gc_high_watermark = 2;
    config.parity = ParityConfig::On;
    config.fault.page_type_ber_spread = 0.35;
    config.integrity = IntegrityConfig {
        track: true,
        retention_hours_per_us: 0.01,
        patrol: PatrolConfig::On {
            interval_us,
            slice_us: 600.0,
            refresh_fraction: 0.1,
            order: PatrolOrder::Blind,
        },
    };
    let mut dev = Ssd::new(config, 3).unwrap();
    let mut timed = workload(&dev);
    let n = timed.len();
    let burst = n / 3..2 * n / 3;
    let (burst_at, shift) = (timed[burst.start].0, timed[burst.end].0 - timed[burst.start].0);
    dev.timed_begin();
    for (i, (arrival, r)) in timed.iter_mut().enumerate() {
        let class = if burst.contains(&i) {
            *arrival = burst_at;
            QosClass::LatencyCritical
        } else {
            if i >= burst.end {
                *arrival -= shift;
            }
            QosClass::Standard
        };
        dev.timed_step(*arrival, *r, class).unwrap();
    }
    dev.timed_end();
    dev
}

#[test]
fn patrol_runs_reproduce_the_parked_and_mid_word_line_golden() {
    let dev = run_boundaries(10_000.0);
    let s = dev.stats();
    assert!(s.patrol_refreshes > 0 && s.parity_verified > 0, "patrol refreshes and verifies");
    assert!(s.gc_runs > 0, "collection frees superblocks");
    fingerprint::assert_pinned(&fingerprint::device(&dev), RUN_BOUNDARIES, "run boundaries");
}

/// Fingerprint of [`patrol_runs_reproduce_the_parked_and_mid_word_line_golden`],
/// recorded with the word-line-at-a-time patrol loop.
#[rustfmt::skip]
const RUN_BOUNDARIES: &[u64] = &[
    12220, 4074, 8146, 0, 1878, 1358, 512, 45, 43, 0, 0xa9a26d263c53d1f7, 0x4112f68bdfe4663d,
    0xd043fb160073baee, 2075, 67, 36, 31, 0x40f2f50000000044, 0x40a8000000000000,
    0x415058474c43b3f4, 0, 0, 0, 646, 1087, 0x40fc2a6000000001, 0x415823ea842a9b00, 56729, 9150, 45,
    0, 0x41ea9a56451f8996, 0, 4783, 0x41636062490d6421, 0xf6a34556b6d43f6c, 0xfd57347a7fe09ccd,
    0xb6d3e21163195226, 0, 0, 0, 0, 11957, 2, 1085, 0x41333cf8f86b3a80, 0x409bcf87f2dc7c54,
    0x40b483d1a78ff618, 10707, 0, 0xd2d5bd966bed1ffa,
];

#[test]
fn patrol_resumes_onto_a_collected_and_reprogrammed_superblock() {
    // The run-boundaries regime with a 5 s patrol interval: the burst no
    // longer outlasts the interval, so the parked pass resumes instead of
    // restarting, onto a sealed list where collection freed the superblock
    // it was scanning and reprogrammed its blocks. Scanning on through the
    // member handles it held would read another superblock's pages; the
    // pass must skip the collected id instead.
    let dev = run_boundaries(5_000_000.0);
    let s = dev.stats();
    assert!(s.patrol_refreshes > 0 && s.parity_verified > 0, "patrol refreshes and verifies");
    assert!(s.gc_runs > 0, "collection frees superblocks");
    fingerprint::assert_pinned(&fingerprint::device(&dev), RESUMED, "resumed pass");
}

/// Fingerprint of [`patrol_resumes_onto_a_collected_and_reprogrammed_superblock`].
#[rustfmt::skip]
const RESUMED: &[u64] = &[
    12220, 4074, 8146, 0, 1878, 1358, 341, 20, 19, 0, 0x55e1b28693ab202d, 0x41097415e456cc38,
    0xb83fadaec30826fa, 1295, 42, 36, 6, 0x40e7754ccccccd07, 0x409f800000000000, 0x41502e84465853df,
    0x40ac519999999999, 0, 0, 753, 1094, 0x40ff282666666663, 0x410bf300f69528a1, 848, 846, 2, 0,
    0x41e89bbb7bb78139, 0, 4782, 0x41635b53639e1320, 0x60d95a3d04889c11, 0x6607899fc2499526,
    0x9766eb66be8f8a50, 0, 0, 0, 0, 12034, 2, 1092, 0x41335eb1b576caeb, 0x40990b0ae8e68300,
    0x40b48684e0277e41, 326, 0, 0x9e885bae47b0a7ab,
];
