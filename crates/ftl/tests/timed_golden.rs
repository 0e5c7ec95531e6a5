//! Timed-replay golden tests.
//!
//! `queue_model = Single` must reproduce the pre-engine `run_timed` outputs
//! bit for bit: the per-chip timing engine, the dense mapping rewrite and
//! the O(1) GC victim selection all ride behind the same request stream, so
//! any float reordered, RNG draw added or victim choice changed shows up
//! here as a flipped bit.
//!
//! One documented exception: reads that miss used to drop their queueing
//! delay entirely (service 0.0 recorded nothing). They now record the wait
//! as a read-latency sample, so the read histogram fields carry post-fix
//! regression values while every other field pins the pre-change bits.
//!
//! The `batched_engine_*` tables pin full-stat fingerprints
//! ([`fingerprint`]) across the queue-model × idle-GC × collector
//! matrix, active parity and a crash-recover-resume run. They were recorded
//! from the original one-op-at-a-time replay loop while it still served as
//! the event-driven engine's oracle, so they hold the engine to that loop's
//! bits now that the loop itself is gone.

#[path = "support/fingerprint.rs"]
mod fingerprint;

use flash_model::FaultConfig;
use ftl::{
    poisson_arrivals, CrashPoint, FtlConfig, FtlError, GcBudget, IntegrityConfig, IoOp, IoRequest,
    OrganizationScheme, ParityConfig, PatrolConfig, QosClass, QueueModel, Ssd, Workload,
};

/// Mixed open-loop workload over the small-test device: 3x-capacity random
/// writes over half the LPNs with reads (hits and guaranteed misses) and
/// trims folded in, arriving Poisson at 800 µs mean.
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

fn run(idle_gc: bool, model: QueueModel) -> Ssd {
    run_with_budget(idle_gc, model, GcBudget::Unbounded)
}

fn run_with_budget(idle_gc: bool, model: QueueModel, budget: GcBudget) -> Ssd {
    let mut config = FtlConfig::small_test();
    config.idle_gc = idle_gc;
    config.queue_model = model;
    config.gc_budget = budget;
    run_config(config)
}

fn run_config(config: FtlConfig) -> Ssd {
    let mut dev = Ssd::new(config, 3).unwrap();
    let timed = workload(&dev);
    dev.run_timed(&timed).unwrap();
    dev
}

/// Pre-engine golden bits of one `run_timed` replay (recorded before the
/// timing engine and mapping rewrite landed), plus post-fix read fields.
struct Golden {
    idle_gc: bool,
    host_writes: u64,
    host_reads: u64,
    host_trims: u64,
    gc_runs: u64,
    gc_relocations: u64,
    write_mean: u64,
    write_p99: u64,
    write_max: u64,
    write_len: usize,
    busy_us: u64,
    idle_gc_us: u64,
    waf: u64,
    extra_pgm: u64,
    // Post-fix regression values: misses now record their wait, so the read
    // histogram grew from the 2026 hit-only samples to hits + misses.
    read_len: usize,
    read_mean: u64,
}

const GOLDEN: [Golden; 2] = [
    Golden {
        idle_gc: false,
        host_writes: 13331,
        host_reads: 2026,
        host_trims: 1481,
        gc_runs: 16,
        gc_relocations: 543,
        write_mean: 0x407b_6a03_ed41_47e5,
        write_p99: 0x40b4_ff99_a64b_e300,
        write_max: 0x40de_91c7_f240_6b45,
        write_len: 13331,
        busy_us: 0x4143_5021_3a44_d903,
        idle_gc_us: 0x0000_0000_0000_0000,
        waf: 0x3ff0_a6d6_bb62_eaa0,
        extra_pgm: 0x4042_c7c5_c9c1_d1cf,
        read_len: 5924,
        read_mean: 0x4074_01a5_0ff1_5fcb,
    },
    Golden {
        idle_gc: true,
        host_writes: 13331,
        host_reads: 2026,
        host_trims: 1481,
        gc_runs: 16,
        gc_relocations: 579,
        write_mean: 0x4075_5df5_6361_69dd,
        write_p99: 0x40b0_2502_40be_3800,
        write_max: 0x40c3_e4f8_d63a_6800,
        write_len: 13331,
        busy_us: 0x4142_45cf_9339_c195,
        idle_gc_us: 0x4101_cf46_253a_af42,
        waf: 0x3ff0_b1e6_61f9_bd5d,
        extra_pgm: 0x4042_cd80_d023_dccb,
        read_len: 5924,
        read_mean: 0x406c_4350_6509_e626,
    },
];

#[test]
fn single_queue_model_reproduces_prechange_bits() {
    check_golden_with(|_| {});
}

#[test]
fn explicit_parity_off_and_zero_read_spread_reproduce_the_golden_bits() {
    // The parity subsystem must be inert when off: an explicit
    // `ParityConfig::Off` plus the zeroed knobs of its sibling channels —
    // per-block read spread (nonzero correlation but zero σ must not even
    // draw) and page-type BER spread — replays the pre-parity GOLDEN table
    // bit for bit.
    check_golden_with(|config| {
        config.parity = ftl::ParityConfig::Off;
        config.flash.variation.read_block_sigma_us = 0.0;
        config.flash.variation.read_pgm_corr = 0.8;
        config.fault.page_type_ber_spread = 0.0;
    });
}

fn check_golden_with(mutate: impl Fn(&mut FtlConfig)) {
    for g in &GOLDEN {
        let dev = {
            let mut config = FtlConfig::small_test();
            config.idle_gc = g.idle_gc;
            config.queue_model = QueueModel::Single;
            mutate(&mut config);
            run_config(config)
        };
        let s = dev.stats();
        let tag = format!("idle_gc={}", g.idle_gc);
        assert_eq!(s.host_writes, g.host_writes, "{tag} host_writes");
        assert_eq!(s.host_reads, g.host_reads, "{tag} host_reads");
        assert_eq!(s.host_trims, g.host_trims, "{tag} host_trims");
        assert_eq!(s.gc_runs, g.gc_runs, "{tag} gc_runs");
        assert_eq!(s.gc_relocations, g.gc_relocations, "{tag} gc_relocations");
        assert_eq!(s.write_latency.mean_us().to_bits(), g.write_mean, "{tag} write mean drifted");
        assert_eq!(
            s.write_latency.quantile_us(0.99).to_bits(),
            g.write_p99,
            "{tag} write p99 drifted"
        );
        assert_eq!(s.write_latency.max_us().to_bits(), g.write_max, "{tag} write max drifted");
        assert_eq!(s.write_latency.len(), g.write_len, "{tag} write sample count drifted");
        assert_eq!(s.busy_us.to_bits(), g.busy_us, "{tag} busy_us drifted");
        assert_eq!(s.idle_gc_us.to_bits(), g.idle_gc_us, "{tag} idle_gc_us drifted");
        assert_eq!(s.waf().to_bits(), g.waf, "{tag} WAF drifted");
        assert_eq!(s.extra_program_per_op_us().to_bits(), g.extra_pgm, "{tag} extra PGM drifted");
        assert_eq!(s.read_latency.len(), g.read_len, "{tag} read sample count drifted");
        assert_eq!(s.read_latency.mean_us().to_bits(), g.read_mean, "{tag} read mean drifted");
    }
}

/// Aged-run golden for the refresh-time split.
///
/// A reactive refresh — the read retry ladder failing and the device
/// relocating the page before serving it — used to be invisible; now its
/// relocation time is charged to `refresh_us` (and `busy_us`), *not* to the
/// read-latency histogram: the host observes the retry reads it actually
/// waited on, while the relocation is background work like GC. This test
/// pins an aged replay (tracking on, accelerated retention, no patrol) so
/// any future change that leaks relocation time back into read latency, or
/// stops charging it to `refresh_us`, flips a pinned bit.
#[test]
fn reactive_refresh_time_lands_in_refresh_us_not_read_latency() {
    let mut config = FtlConfig::small_test();
    config.integrity =
        IntegrityConfig { track: true, retention_hours_per_us: 0.003, patrol: PatrolConfig::Off };
    let dev = run_config(config);
    let s = dev.stats();
    assert!(s.uncorrectable_reads > 0, "the aged run must exhaust retry ladders");
    assert_eq!(
        s.refresh_relocations, s.uncorrectable_reads,
        "every uncorrectable read refreshes exactly once"
    );
    assert!(s.refresh_us > 0.0, "relocation time is accounted");
    assert_eq!(s.uncorrectable_reads, AGED.uncorrectable, "uncorrectable drifted");
    assert_eq!(s.refresh_us.to_bits(), AGED.refresh_us, "refresh_us drifted");
    assert_eq!(s.busy_us.to_bits(), AGED.busy_us, "busy_us drifted");
    assert_eq!(s.read_latency.len(), AGED.read_len, "read sample count drifted");
    assert_eq!(
        s.read_latency.mean_us().to_bits(),
        AGED.read_mean,
        "read mean drifted — refresh time may be leaking into the histogram"
    );
    assert_eq!(s.read_latency.quantile_us(0.99).to_bits(), AGED.read_p99, "read p99 drifted");
}

/// Golden bits for the aged replay above.
struct AgedGolden {
    uncorrectable: u64,
    refresh_us: u64,
    busy_us: u64,
    read_len: usize,
    read_mean: u64,
    read_p99: u64,
}

const AGED: AgedGolden = AgedGolden {
    uncorrectable: 533,
    refresh_us: 0x40f3_7233_3333_3334,
    busy_us: 0x4145_70e3_9d1f_c225,
    read_len: 5924,
    read_mean: 0x4075_e516_bae6_7d7b,
    read_p99: 0x40b4_b6b3_2229_2a0c,
};

#[test]
fn per_chip_model_changes_only_the_clocks() {
    // Without idle GC the flash-command sequence depends only on request
    // order, so the two models must do bit-identical work — only the waits
    // differ — and the event-driven clocks must finish no later than the
    // serial clock.
    let single = run(false, QueueModel::Single);
    let per_chip = run(false, QueueModel::PerChip);
    let (s, p) = (single.stats(), per_chip.stats());
    assert_eq!(s.host_writes, p.host_writes);
    assert_eq!(s.host_reads, p.host_reads);
    assert_eq!(s.host_trims, p.host_trims);
    assert_eq!(s.gc_runs, p.gc_runs);
    assert_eq!(s.gc_relocations, p.gc_relocations);
    assert_eq!(s.busy_us.to_bits(), p.busy_us.to_bits(), "service time is model-independent");
    assert_eq!(s.waf().to_bits(), p.waf().to_bits());
    assert!(
        p.makespan_us <= s.makespan_us,
        "per-chip makespan {} vs single {}",
        p.makespan_us,
        s.makespan_us
    );
    assert!(!p.chip_busy_us.is_empty(), "per-chip run reports group occupancy");
    assert!(s.chip_busy_us.is_empty(), "single run has no per-group clocks");
}

#[test]
fn per_chip_model_survives_idle_gc_with_comparable_work() {
    // With idle GC the background schedule follows the clocks, so the two
    // models legitimately collect at different instants — but both must
    // stay healthy and do the same order of work.
    let single = run(true, QueueModel::Single);
    let per_chip = run(true, QueueModel::PerChip);
    let (s, p) = (single.stats(), per_chip.stats());
    assert_eq!(s.host_writes, p.host_writes);
    assert!(p.gc_runs > 0, "idle gaps trigger background GC under PerChip too");
    assert!(p.idle_gc_us > 0.0);
    assert!(p.makespan_us > 0.0);
    let occupancy: f64 = p.chip_busy_us.iter().sum();
    assert!(occupancy > 0.0);
}

/// Queue model × idle GC × collector matrix of the batched-engine tables,
/// in table order.
const MATRIX: [(QueueModel, bool); 4] = [
    (QueueModel::Single, false),
    (QueueModel::Single, true),
    (QueueModel::PerChip, false),
    (QueueModel::PerChip, true),
];

#[test]
fn batched_engine_matches_stepper_oracle_bit_for_bit() {
    for (&(model, idle_gc), want) in MATRIX.iter().zip(UNBOUNDED) {
        let dev = run(idle_gc, model);
        fingerprint::assert_pinned(
            &fingerprint::device(&dev),
            want,
            &format!("{model:?} idle_gc={idle_gc}"),
        );
    }
}

#[test]
fn batched_engine_matches_stepper_with_sliced_gc() {
    // The sliced collector adds state the idle-gap hook must keep exact: a
    // parked GcJob, slice/yield counters, the stall histogram, and the
    // idle-gap slice charged to whichever clocks the queue model keeps.
    let budget = GcBudget::Sliced { slice_us: 300.0 };
    for (&(model, idle_gc), want) in MATRIX.iter().zip(SLICED) {
        let tag = format!("sliced {model:?} idle_gc={idle_gc}");
        let dev = run_with_budget(idle_gc, model, budget);
        assert!(dev.stats().gc_slices > 0, "{tag}: workload must exercise slices");
        fingerprint::assert_pinned(&fingerprint::device(&dev), want, &tag);
    }
}

#[test]
fn batched_engine_matches_stepper_with_active_parity() {
    // Parity changes the data layout (11-wide stripes + parity page), the
    // capacity export, and the read path (uncorrectable reads rebuild their
    // stripe and restage mid-run, charging rebuild_us/gc_stall_us). The
    // workload must actually exercise rebuilds, or the table proves nothing.
    let mut config = FtlConfig::small_test();
    config.parity = ParityConfig::On;
    config.fault = FaultConfig {
        weak_block_prob: 0.15,
        weak_ber_multiplier: 150.0,
        page_type_ber_spread: 0.35,
        ..FaultConfig::default()
    };
    config.queue_model = QueueModel::PerChip;
    let dev = run_config(config);
    assert!(dev.stats().uncorrectable_reads > 0, "media must produce uncorrectables");
    assert!(dev.stats().rebuild_reads > 0, "rebuilds must fire");
    fingerprint::assert_pinned(&fingerprint::device(&dev), PARITY, "active parity");
}

#[test]
fn per_chip_fault_paths_reproduce_the_pinned_chip_time() {
    // Erase failures replaced from their pools, program failures whose
    // stranded pages are relocated, a short-handed assembly and stripe
    // rebuilds, all while the per-chip clocks are on: every fault path's
    // chip time lands in `chip_busy_us` and the clocks behind the latency
    // samples. The counters below must all move, or the table proves
    // nothing about those paths.
    let budgets = [GcBudget::Unbounded, GcBudget::Sliced { slice_us: 300.0 }];
    for (budget, want) in budgets.into_iter().zip([FAULTS_UNBOUNDED, FAULTS_SLICED]) {
        let mut config = FtlConfig::small_test();
        config.scheme = OrganizationScheme::QstrMed { candidates: 4 };
        config.parity = ParityConfig::On;
        config.queue_model = QueueModel::PerChip;
        config.gc_budget = budget;
        config.fault = FaultConfig {
            erase_fail_prob: 0.02,
            program_fail_prob: 0.002,
            weak_block_prob: 0.15,
            weak_ber_multiplier: 150.0,
            page_type_ber_spread: 0.35,
            ..FaultConfig::default()
        };
        let dev = run_config(config);
        let s = dev.stats();
        let tag = format!("faults {budget:?}");
        assert!(s.retired_blocks > 0, "{tag}: media must fail erases or programs");
        assert!(s.remapped_writes > 0, "{tag}: failed programs must remap");
        assert!(s.degraded_superblocks > 0, "{tag}: some superblock must run short");
        assert!(s.rebuilds_ok > 0, "{tag}: stripes must rebuild lost pages");
        fingerprint::assert_pinned(&fingerprint::device(&dev), want, &tag);
    }
}

#[test]
fn batched_engine_crashes_and_recovers_exactly_like_the_stepper() {
    // Untimed drive with an injected power loss, then recovery and a resume
    // past the crash so the checkpoint recovery installed is exercised by
    // further checkpoints: same crash op, same recovery report, same
    // rebuilt mapping, same post-recovery stats.
    let mut config = FtlConfig::small_test();
    config.spor.checkpoint_interval = 16;
    config.spor.crash = Some(CrashPoint::from_seed(42, 1500));
    let mut dev = Ssd::new(config, 11).unwrap();
    let info = dev.geometry_info();
    let reqs = Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 7);
    let mut resume = reqs.len();
    for (i, req) in reqs.iter().enumerate() {
        let r = match req.op {
            IoOp::Write => dev.write(req.lpn).map(|_| ()),
            IoOp::Read => dev.read(req.lpn).map(|_| ()),
            IoOp::Trim => dev.trim(req.lpn),
        };
        match r {
            Ok(()) => {}
            Err(FtlError::PowerLoss) => {
                resume = i;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(resume < reqs.len(), "the injected crash must fire");
    let report = dev.recover().unwrap();
    for req in &reqs[resume..] {
        match req.op {
            IoOp::Write => drop(dev.write(req.lpn).unwrap()),
            IoOp::Read => drop(dev.read(req.lpn).unwrap()),
            IoOp::Trim => dev.trim(req.lpn).unwrap(),
        }
    }
    let mut got = vec![
        ("crash_op", resume as u64),
        ("report.scanned_pages", report.scanned_pages),
        ("report.recovered_mappings", report.recovered_mappings),
        ("report.torn_writes_discarded", report.torn_writes_discarded),
        ("report.scan_us", report.scan_us.to_bits()),
    ];
    got.extend(fingerprint::device(&dev));
    fingerprint::assert_pinned(&got, CRASH, "crash-recover-resume");
}

#[test]
fn latency_samples_survive_replay_restarts_and_untimed_commands() {
    // Every completed write leaves one write sample and every completed
    // read one read sample, however timed and untimed commands interleave:
    // a replay restarted mid-flight, untimed writes and reads inside a live
    // replay, and read misses (a timed miss records its wait, an untimed
    // one records nothing). Restarting a live replay also folds its
    // makespan before the clocks reset.
    for model in [QueueModel::Single, QueueModel::PerChip] {
        let mut config = FtlConfig::small_test();
        config.queue_model = model;
        let mut dev = Ssd::new(config, 3).unwrap();
        let pages = dev.geometry_info().logical_pages;
        let (span, miss) = (pages / 2, pages - 1);
        let std = QosClass::Standard;
        let mut timed_misses = 0usize;
        let mut first_completion = 0.0f64;
        dev.timed_begin();
        for i in 0..1000u64 {
            let req = if i % 10 == 9 { IoRequest::read(i - 1) } else { IoRequest::write(i) };
            let out = dev.timed_step(i as f64 * 50.0, req, std).unwrap();
            first_completion = first_completion.max(out.completion_us);
        }
        for lpn in 0..100 {
            dev.write(lpn).unwrap();
        }
        assert!(dev.read(0).unwrap().is_some(), "{model:?}: untimed hit");
        assert!(dev.read(miss).unwrap().is_none(), "{model:?}: untimed miss");
        let out = dev.timed_step(50_000.0, IoRequest::read(miss), std).unwrap();
        first_completion = first_completion.max(out.completion_us);
        timed_misses += 1;
        // Restart without ending: the first replay must be folded, not lost.
        dev.timed_begin();
        for i in 0..200u64 {
            let req = if i % 50 == 7 { IoRequest::read(miss) } else { IoRequest::write(span + i) };
            timed_misses += usize::from(req.op == IoOp::Read);
            dev.timed_step(i as f64 * 50.0, req, std).unwrap();
        }
        dev.timed_end();
        let s = dev.stats();
        assert_eq!(s.host_writes, 900 + 100 + 196, "{model:?}: every write completed");
        assert_eq!(s.write_latency.len() as u64, s.host_writes, "{model:?}: write samples");
        assert_eq!(
            s.read_latency.len(),
            s.host_reads as usize + timed_misses,
            "{model:?}: read samples (hits plus timed misses)"
        );
        assert!(
            s.makespan_us >= first_completion,
            "{model:?}: the restarted replay's makespan {first_completion} was dropped ({})",
            s.makespan_us
        );
    }
}

/// [`MATRIX`] fingerprints with `GcBudget::Unbounded`.
#[rustfmt::skip]
const UNBOUNDED: [&[u64]; 4] = [
    &[
        13331, 0, 13331, 0, 2026, 1481, 543, 16, 0, 0, 0xcbf29ce484222325, 0x4100aa9b99ed27d1,
        0xbada8088463976ff, 1161, 37, 35, 2, 0x40e54b0000000021, 0x409bf00000000000,
        0x414350213a44d903, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x4154db1a89e2bc63,
        0x410f2187d03f1cb0, 42, 0x416fc90debddb0b8, 0xcbf29ce484222325, 0xe07e750ae51fb474,
        0xc06c95c7d44c8c9e, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x54d05a08f986f4c0,
    ],
    &[
        13331, 0, 13331, 0, 2026, 1481, 579, 16, 0, 0, 0xcbf29ce484222325, 0, 0xcbf29ce484222325,
        1165, 37, 35, 2, 0x40e5644cccccccf2, 0x409b900000000000, 0x414245cf9339c195,
        0x4101cf46253aaf42, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x414bdc8b1cd90776, 0x41024e5635916e70,
        20, 0x416fc90debddb0b8, 0xcbf29ce484222325, 0x9b71a699534b619, 0xe092f25cd6b03eab, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0x714d37078e6c0497,
    ],
    &[
        13331, 0, 13331, 0, 2026, 1481, 543, 16, 0, 0, 0xcbf29ce484222325, 0x4100aa9b99ed27d1,
        0xbada8088463976ff, 1161, 37, 35, 2, 0x40e54b0000000021, 0x409bf00000000000,
        0x414350213a44d903, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x413b0962bce55c29, 0, 26,
        0x416fc90debddb0b8, 0xb64764f29e23f0c3, 0xd741d1ed9847add6, 0xdf9f8b8cffdfb9cd, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0x54d05a08f986f4c0,
    ],
    &[
        13331, 0, 13331, 0, 2026, 1481, 579, 16, 0, 0, 0xcbf29ce484222325, 0, 0xcbf29ce484222325,
        1165, 37, 35, 2, 0x40e5644cccccccf2, 0x409b900000000000, 0x414245d58520a964,
        0x4101cf46253aaf42, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x41303dd19921c431, 0, 13,
        0x416fc90debddb0b8, 0x74060007618b99d5, 0x99c19e5e82d6b55, 0x48ec651f06f3011c, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0x714d37078e6c0497,
    ],
];

/// [`MATRIX`] fingerprints with `GcBudget::Sliced { slice_us: 300.0 }`.
#[rustfmt::skip]
const SLICED: [&[u64]; 4] = [
    &[
        13331, 0, 13331, 0, 2026, 1481, 473, 15, 26, 13, 0xe3e1d19a453ab5fb, 0x40fdffeef2a9b1e6,
        0xce546a3ee32e614a, 1156, 37, 35, 2, 0x40e51d000000002d, 0x409ba80000000000,
        0x4143361cda0a68bc, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x414e81707feab4ea,
        0x41028d5ed5a402f0, 28, 0x416fc90debddb0b8, 0xcbf29ce484222325, 0x2cd8f63887e55be2,
        0x3eec98f99005b87f, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x881122ce77320df6,
    ],
    &[
        13331, 0, 13331, 0, 2026, 1481, 579, 16, 105, 90, 0xe35fabf4c7d525e4, 0x40c9196f93d040ef,
        0x630038cceed905d3, 1165, 37, 35, 2, 0x40e5644cccccccf2, 0x409b900000000000,
        0x41425ee902cd91d6, 0x41003daf2bfdab32, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x4145e2857f7b4faa,
        0x40f4ddf426d630e0, 19, 0x416fc90debddb0b8, 0xcbf29ce484222325, 0x746b2a2c98421167,
        0x64447677912fbeb6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x714d37078e6c0497,
    ],
    &[
        13331, 0, 13331, 0, 2026, 1481, 473, 15, 26, 13, 0xe3e1d19a453ab5fb, 0x40fdffeef2a9b1e6,
        0xce546a3ee32e614a, 1156, 37, 35, 2, 0x40e51d000000002d, 0x409ba80000000000,
        0x4143361cda0a68bc, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x413243b88aa54e41, 0, 14,
        0x416fc90debddb0b8, 0x3c9ec97ddbdd188f, 0xac86655e2fb5db90, 0xfd7d38ee76e5ec40, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0x881122ce77320df6,
    ],
    &[
        13331, 0, 13331, 0, 2026, 1481, 579, 16, 100, 85, 0x26624b49c096928a, 0x40c9196f93d040ef,
        0x630038cceed905d3, 1165, 37, 35, 2, 0x40e5644cccccccf2, 0x409b900000000000,
        0x41425eeef4b479a5, 0x41003daf2bfdab34, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x412c10d26d7d61a2,
        0, 13, 0x416fc90debddb0b8, 0x8b28c4757c08e42a, 0x280293a921572515, 0xd4f47759f2c526bc, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x714d37078e6c0497,
    ],
];

/// Fingerprint of the active-parity run.
#[rustfmt::skip]
const PARITY: &[u64] = &[
    12220, 0, 12220, 0, 1878, 1358, 449, 15, 0, 0, 0xcbf29ce484222325, 0x41011329b31cccdf,
    0x810a71f86b039b5a, 1164, 37, 35, 2, 0x40e53899999999cb, 0x409bc00000000000,
    0x4143fd34fec8490d, 0, 0, 0, 60, 79, 0x40c1b26666666666, 0, 0, 0, 0, 0, 0x4138e6581cc68904, 0,
    21, 0x416d295403a17e32, 0xe71607acc54a5f08, 0x21991e1fcba37c22, 0xf94b255b43b0bd9, 0, 0, 0, 0,
    869, 20, 59, 0x40ee89624b3972ce, 0x40c60dc300e1d37f, 0x40d7add8323970a2, 0, 0,
    0xd3aecdb65cf08084,
];

/// Crash op, recovery report and fingerprint of the crash-recover-resume
/// run.
#[rustfmt::skip]
const CRASH: &[u64] = &[
    2663, 351, 1859, 3, 0x40d8b6a57e8ba985, 20736, 0, 20736, 0, 0, 0, 1912, 40, 0, 0,
    0xcbf29ce484222325, 0x411c931b728ef8d3, 0xea469b669f1bd209, 1902, 61, 55, 6,
    0x40f21ba6666666cf, 0x40aab80000000000, 0x414e12a0d4b84581, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0xcbf29ce484222325, 0x9e4af58252cc59d3, 0xcbf29ce484222325, 351, 1859, 3,
    0x40d8b6a57e8ba985, 0, 0, 0, 0, 0, 0, 0, 0, 0x3d3c91ebc3277b3,
];

/// Fingerprints of [`per_chip_fault_paths_reproduce_the_pinned_chip_time`]:
/// `Unbounded`, then `Sliced { slice_us: 300.0 }`.
#[rustfmt::skip]
const FAULTS_UNBOUNDED: &[u64] = &[
    12220, 0, 12220, 0, 1878, 1358, 1300, 25, 0, 0, 0xcbf29ce484222325, 0x4119a7b98aca5f8f,
    0x230e620690888670, 1351, 43, 38, 5, 0x40e6d44ccccccd16, 0x409f380000000000, 0x41478834d84e3e73,
    0, 15, 386, 51, 91, 0x40bc4ccccccccccd, 0, 0, 0, 0, 13, 0x41664ef19a9ea48b, 0, 76,
    0x416d295403a17e32, 0xd081afc1752f37a, 0x5dddcfae5ccc5751, 0x5d9ceaf4108e9958, 0, 0, 0, 0, 977,
    26, 65, 0x40ef121e7df21f5b, 0x40cc622a660a5514, 0x40dee9e363123b75, 0, 0, 0xdf70c70a088ffbab,
];

/// See [`FAULTS_UNBOUNDED`].
#[rustfmt::skip]
const FAULTS_SLICED: &[u64] = &[
    12220, 0, 12220, 0, 1878, 1358, 1388, 26, 38, 19, 0x16ad5cb57d8f7867, 0x4118a1bb0babafc0,
    0xce9ab654436a499d, 1359, 43, 38, 5, 0x40e7398000000051, 0x409fb00000000000, 0x4147a783329da3b5,
    0, 16, 407, 49, 86, 0x40c5016666666666, 0, 0, 0, 0, 13, 0x4155395353c1a46c, 0, 43,
    0x416d295403a17e32, 0x39caa13d9c71f2bc, 0xe2d23bf6700318e0, 0x879568ddb9e26b1, 0, 0, 0, 0, 922,
    26, 60, 0x40edade29bfed312, 0x40cc61c0df6423bf, 0x40deb1b18ae0b9e9, 0, 0, 0x6b98d3e6fd463a20,
];
