//! Crash-recovery properties.
//!
//! The durability contract under test: a write is acknowledged once its
//! super word-line program completes, so after a sudden power loss at an
//! *arbitrary* flash-op index, recovery must rebuild exactly the mapping
//! the device held in RAM at the instant of the crash — nothing lost,
//! no phantom mappings — and the mapping's tables must stay consistent
//! (L2P/P2L bijection, block counters, total) at the crash, after
//! recovery and after resumed work. The tables themselves are held to a
//! reference model by `mapping.rs`'s unit tests.

use flash_model::FaultConfig;
use ftl::{
    CrashPoint, FtlConfig, FtlError, GcBudget, IntegrityConfig, IoOp, IoRequest,
    OrganizationScheme, ParityConfig, PatrolConfig, PatrolOrder, QosClass, Ssd, Workload,
};
use proptest::prelude::*;

fn apply(dev: &mut Ssd, req: &IoRequest) -> Result<(), FtlError> {
    match req.op {
        IoOp::Write => dev.write(req.lpn).map(|_| ()),
        IoOp::Read => dev.read(req.lpn).map(|_| ()),
        IoOp::Trim => dev.trim(req.lpn),
    }
}

/// Drives the device until either the stream ends or power is lost. With
/// `timed`, requests go through the timed replay (one arrival every
/// 200 µs) instead of the untimed per-request API. Returns the index to
/// resume from.
fn drive(dev: &mut Ssd, reqs: &[IoRequest], timed: bool) -> Result<usize, TestCaseError> {
    if timed {
        dev.timed_begin();
    }
    let mut resume = reqs.len();
    for (i, req) in reqs.iter().enumerate() {
        let step = if timed {
            dev.timed_step(i as f64 * 200.0, *req, QosClass::Standard).map(|_| ())
        } else {
            apply(dev, req)
        };
        match step {
            Ok(()) => {}
            Err(FtlError::PowerLoss) => {
                resume = i;
                break;
            }
            Err(e) => prop_assert!(false, "op {} failed: {:?}", i, e),
        }
    }
    if timed {
        dev.timed_end();
    }
    Ok(resume)
}

fn schemes() -> [OrganizationScheme; 3] {
    [
        OrganizationScheme::Random,
        OrganizationScheme::Sequential,
        OrganizationScheme::QstrMed { candidates: 4 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Driven either untimed or through the timed replay; integrity
    /// tracking adds the checkpointed write times.
    #[test]
    fn recovery_rebuilds_exactly_the_ram_mapping_at_any_crash_point(
        crash_seed in any::<u64>(),
        workload_seed in any::<u64>(),
        scheme_idx in 0usize..3,
        interval_idx in 0usize..3,
        timed in any::<bool>(),
        track in any::<bool>(),
    ) {
        let intervals = [0u64, 8, 128];
        let mut config = FtlConfig::small_test();
        config.scheme = schemes()[scheme_idx];
        config.spor.checkpoint_interval = intervals[interval_idx];
        config.spor.crash = Some(CrashPoint::from_seed(crash_seed, 2500));
        config.integrity.track = track;
        let mut dev = Ssd::new(config, 11).unwrap();
        let info = dev.geometry_info();
        let mut reqs = Workload::RandomWrite { span: 0.6, read_fraction: 0.15 }
            .generate(&info, (info.logical_pages * 3) as usize, workload_seed);
        for (i, r) in reqs.iter_mut().enumerate() {
            if i % 17 == 0 && r.op == IoOp::Write {
                *r = IoRequest::trim(r.lpn);
            }
        }
        let resume = drive(&mut dev, &reqs, timed)?;
        prop_assert!(dev.mapping().is_consistent(), "mapping consistent at the crash");
        // Snapshot RAM at the crash: this IS the set of acknowledged data.
        let ram: Vec<_> = (0..info.logical_pages).map(|l| dev.mapping().lookup(l)).collect();
        let ram_valid = dev.valid_pages();
        dev.recover().unwrap();
        prop_assert!(dev.mapping().is_consistent(), "mapping consistent after recovery");
        for lpn in 0..info.logical_pages {
            prop_assert_eq!(dev.mapping().lookup(lpn), ram[lpn as usize], "lpn {}", lpn);
        }
        prop_assert_eq!(dev.valid_pages(), ram_valid, "valid counters rebuilt");
        // Every recovered page is readable with the right identity (the
        // device debug-asserts the OOB/backing tag on every read).
        for (lpn, mapped) in ram.iter().enumerate() {
            let got = dev.read(lpn as u64).unwrap();
            prop_assert_eq!(got.is_some(), mapped.is_some(), "readability of lpn {}", lpn);
        }
        // The device keeps working past the crash.
        let done = drive(&mut dev, &reqs[resume..], timed)?;
        prop_assert_eq!(done, reqs.len() - resume, "no second crash");
        dev.flush().unwrap();
        prop_assert!(dev.mapping().is_consistent(), "mapping consistent at the end");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Same contract as above, but with the preemptive collector: the crash
    /// point can land *inside* a slice — after some of a victim's pages
    /// were restaged but before the final flush + free. The victim is still
    /// sealed (and checkpointed) at that instant, so recovery must find
    /// every acknowledged page under its pre-collection identity; staged
    /// copies that did program carry a later sequence number and win
    /// consistently in both the RAM mapping and the rebuild.
    #[test]
    fn recovery_survives_crashes_inside_a_gc_slice(
        crash_seed in any::<u64>(),
        workload_seed in any::<u64>(),
        slice_idx in 0usize..3,
    ) {
        // From "one word-line per slice" up to "several programs per
        // slice" — different budgets park the job at different depths.
        let slices = [120.0, 300.0, 2500.0];
        let mut config = FtlConfig::small_test();
        config.scheme = OrganizationScheme::QstrMed { candidates: 4 };
        config.gc_budget = GcBudget::Sliced { slice_us: slices[slice_idx] };
        config.spor.checkpoint_interval = 8;
        config.spor.crash = Some(CrashPoint::from_seed(crash_seed, 2500));
        let mut dev = Ssd::new(config, 11).unwrap();
        let info = dev.geometry_info();
        let reqs = Workload::RandomWrite { span: 0.6, read_fraction: 0.1 }
            .generate(&info, (info.logical_pages * 3) as usize, workload_seed);
        let resume = drive(&mut dev, &reqs, false)?;
        prop_assert!(dev.mapping().is_consistent(), "mapping consistent at the crash");
        let ram: Vec<_> = (0..info.logical_pages).map(|l| dev.mapping().lookup(l)).collect();
        dev.recover().unwrap();
        prop_assert!(dev.mapping().is_consistent(), "mapping consistent after recovery");
        for lpn in 0..info.logical_pages {
            prop_assert_eq!(dev.mapping().lookup(lpn), ram[lpn as usize], "lpn {}", lpn);
        }
        // Every recovered page reads back under the right identity (the
        // device debug-asserts the OOB/backing tag on every read).
        for (lpn, mapped) in ram.iter().enumerate() {
            let got = dev.read(lpn as u64).unwrap();
            prop_assert_eq!(got.is_some(), mapped.is_some(), "readability of lpn {}", lpn);
        }
        // The parked job's cursors died with RAM; the device re-selects the
        // victim and keeps collecting through the rest of the workload.
        for req in &reqs[resume..] {
            apply(&mut dev, req).unwrap();
        }
        dev.flush().unwrap();
        prop_assert!(dev.mapping().is_consistent(), "mapping consistent at the end");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole's SPOR contract for the scrubber: with integrity
    /// tracking, aggressive aging and patrol all active, the crash point
    /// can land *inside* a patrol pass — refreshes staged but not flushed,
    /// cursors parked in RAM. Cursors and the in-flight pass die with RAM
    /// (the pass merely restarts after boot); acknowledged data must still
    /// recover exactly to the RAM mapping, and every live page must read
    /// back.
    #[test]
    fn recovery_survives_crashes_inside_a_patrol_pass(
        crash_seed in any::<u64>(),
        workload_seed in any::<u64>(),
        interval_idx in 0usize..3,
    ) {
        // From "patrol runs constantly" down to "a pass is usually
        // mid-flight when the crash fires".
        let intervals = [2_000.0, 10_000.0, 40_000.0];
        let mut config = FtlConfig::small_test();
        config.scheme = OrganizationScheme::QstrMed { candidates: 4 };
        config.gc_budget = GcBudget::Sliced { slice_us: 300.0 };
        config.spor.checkpoint_interval = 8;
        config.spor.crash = Some(CrashPoint::from_seed(crash_seed, 2500));
        config.integrity = IntegrityConfig {
            track: true,
            // Hot enough that pages cross the refresh threshold within the
            // run, so crashes land between a staged refresh and its flush.
            retention_hours_per_us: 0.05,
            patrol: PatrolConfig::On {
                interval_us: intervals[interval_idx],
                slice_us: 300.0,
                refresh_fraction: 0.5,
                order: PatrolOrder::SlowPoolFirst,
            },
        };
        let mut dev = Ssd::new(config, 11).unwrap();
        let info = dev.geometry_info();
        let reqs = Workload::RandomWrite { span: 0.6, read_fraction: 0.1 }
            .generate(&info, (info.logical_pages * 3) as usize, workload_seed);
        let resume = drive(&mut dev, &reqs, false)?;
        prop_assert!(dev.mapping().is_consistent(), "mapping consistent at the crash");
        let ram: Vec<_> = (0..info.logical_pages).map(|l| dev.mapping().lookup(l)).collect();
        dev.recover().unwrap();
        prop_assert!(dev.mapping().is_consistent(), "mapping consistent after recovery");
        for lpn in 0..info.logical_pages {
            prop_assert_eq!(dev.mapping().lookup(lpn), ram[lpn as usize], "lpn {}", lpn);
        }
        // No silent data loss: every page mapped at the crash reads back
        // after recovery (reactively refreshed if it rotted meanwhile).
        for (lpn, mapped) in ram.iter().enumerate() {
            let got = dev.read(lpn as u64).unwrap();
            prop_assert_eq!(got.is_some(), mapped.is_some(), "readability of lpn {}", lpn);
        }
        // The scrubber re-arms from scratch and the device keeps working
        // through the rest of the workload.
        for req in &reqs[resume..] {
            apply(&mut dev, req).unwrap();
        }
        dev.flush().unwrap();
        prop_assert!(dev.mapping().is_consistent(), "mapping consistent at the end");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Parity SPOR contract: with the RAIN stripe active on faulty media,
    /// the crash point can land *mid-rebuild* — after an uncorrectable
    /// read's reactive restage but before the flush that makes the fresh
    /// copy durable. The acknowledged mapping must recover exactly (under
    /// the page's old identity when the refreshed copy never programmed),
    /// parity pages must never alias into the L2P, and the mapping stays
    /// consistent through crash + recovery + resumed work.
    #[test]
    fn recovery_with_active_parity_crashes_mid_rebuild_safely(
        crash_seed in any::<u64>(),
        workload_seed in any::<u64>(),
        scheme_idx in 0usize..3,
    ) {
        let mut config = FtlConfig::small_test();
        config.scheme = schemes()[scheme_idx];
        config.parity = ParityConfig::On;
        // Weak blocks whose elevation straddles the retry ladder across the
        // page-type spread: single-page losses (rebuildable) and double
        // failures both occur.
        config.fault = FaultConfig {
            weak_block_prob: 0.15,
            weak_ber_multiplier: 150.0,
            page_type_ber_spread: 0.35,
            ..FaultConfig::default()
        };
        config.spor.checkpoint_interval = 8;
        config.spor.crash = Some(CrashPoint::from_seed(crash_seed, 2500));
        let mut dev = Ssd::new(config, 11).unwrap();
        let info = dev.geometry_info();
        let reqs = Workload::RandomWrite { span: 0.6, read_fraction: 0.2 }
            .generate(&info, (info.logical_pages * 3) as usize, workload_seed);
        let resume = drive(&mut dev, &reqs, false)?;
        prop_assert!(dev.mapping().is_consistent(), "mapping consistent at the crash");
        let ram: Vec<_> = (0..info.logical_pages).map(|l| dev.mapping().lookup(l)).collect();
        dev.recover().unwrap();
        prop_assert!(dev.mapping().is_consistent(), "mapping consistent after recovery");
        for lpn in 0..info.logical_pages {
            prop_assert_eq!(dev.mapping().lookup(lpn), ram[lpn as usize], "lpn {}", lpn);
        }
        // Every recovered page reads back under the right identity — the
        // device debug-asserts the OOB/backing tag on every read, so a
        // parity page aliased into the L2P cannot hide. Reads on this
        // media can restage (uncorrectable -> rebuild -> refresh).
        for (lpn, mapped) in ram.iter().enumerate() {
            let got = dev.read(lpn as u64).unwrap();
            prop_assert_eq!(got.is_some(), mapped.is_some(), "readability of lpn {}", lpn);
        }
        for req in &reqs[resume..] {
            apply(&mut dev, req).unwrap();
        }
        dev.flush().unwrap();
        prop_assert!(dev.mapping().is_consistent(), "mapping consistent at the end");
        // Rebuild accounting stayed coherent through the crash: every
        // uncorrectable read produced exactly one attempt, every attempt
        // one verdict.
        let s = dev.stats();
        prop_assert_eq!(s.rebuilds_ok + s.rebuilds_failed, s.uncorrectable_reads);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Rebuild correctness under random fault injection × schemes: every
    /// uncorrectable read triggers exactly one stripe rebuild attempt and
    /// exactly one verdict. `rebuilds_ok` certifies the survivors' XOR
    /// reproduced the lost payload; a double failure inside one stripe
    /// lands in `rebuilds_failed` — reported, never absorbed into the ok
    /// count — while the reactive refresh still restages a readable copy,
    /// so no read ever returns the wrong payload (the device debug-asserts
    /// payload identity on every read).
    #[test]
    fn stripe_rebuilds_verify_payloads_and_report_double_failures(
        dev_seed in 0u64..1_000,
        scheme_idx in 0usize..3,
        weak in 0.05f64..0.35,
        mult in 50.0f64..1_000.0,
    ) {
        let mut config = FtlConfig::small_test();
        config.scheme = schemes()[scheme_idx];
        config.parity = ParityConfig::On;
        config.fault = FaultConfig {
            weak_block_prob: weak,
            weak_ber_multiplier: mult,
            page_type_ber_spread: 0.35,
            ..FaultConfig::default()
        };
        let mut dev = Ssd::new(config, dev_seed).unwrap();
        let info = dev.geometry_info();
        let span = info.logical_pages / 2;
        for lpn in 0..span {
            dev.write(lpn).unwrap();
        }
        dev.flush().unwrap();
        for lpn in 0..span {
            prop_assert!(dev.read(lpn).unwrap().is_some(), "lpn {} must stay readable", lpn);
        }
        let s = dev.stats();
        prop_assert_eq!(s.rebuilds_ok + s.rebuilds_failed, s.uncorrectable_reads);
        // Reactive refreshes come only from host reads here (no patrol);
        // GC-path uncorrectables rebuild without a separate refresh, so the
        // host-read refresh count never exceeds the uncorrectable total.
        prop_assert!(s.refresh_relocations <= s.uncorrectable_reads);
        if s.rebuilds_ok > 0 {
            prop_assert!(s.rebuild_us > 0.0, "successful rebuilds cost stripe-read time");
        }
        if s.uncorrectable_reads > 0 {
            prop_assert!(s.rebuild_reads > 0, "attempts must read stripe siblings");
        }
    }
}

#[test]
fn crash_and_recovery_replay_bit_for_bit() {
    let run = || {
        let mut config = FtlConfig::small_test();
        config.scheme = OrganizationScheme::QstrMed { candidates: 4 };
        config.spor.checkpoint_interval = 16;
        config.spor.crash = Some(CrashPoint::from_seed(42, 1500));
        let mut dev = Ssd::new(config, 11).unwrap();
        let info = dev.geometry_info();
        let reqs =
            Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 7);
        let mut resume = reqs.len();
        for (i, req) in reqs.iter().enumerate() {
            match apply(&mut dev, req) {
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
            apply(&mut dev, req).unwrap();
        }
        let s = dev.stats();
        (
            report,
            s.write_latency.mean_us().to_bits(),
            s.waf().to_bits(),
            s.recovery_time_us.to_bits(),
            s.gc_runs,
        )
    };
    assert_eq!(run(), run(), "identical seeds replay identically through a crash");
}

#[test]
fn seal_records_restore_gathered_qstr_state_without_recharacterizing() {
    let mut config = FtlConfig::small_test();
    config.scheme = OrganizationScheme::QstrMed { candidates: 4 };
    // No boot-time characterization: everything the block manager knows
    // after recovery, it can only know from the persisted seal records.
    config.precharacterize = false;
    config.spor.crash = Some(CrashPoint::from_seed(9, 4000));
    let mut dev = Ssd::new(config, 11).unwrap();
    let info = dev.geometry_info();
    let reqs = Workload::random_write(0.5).generate(&info, (info.logical_pages * 4) as usize, 3);
    let mut resume = reqs.len();
    for (i, req) in reqs.iter().enumerate() {
        match apply(&mut dev, req) {
            Ok(()) => {}
            Err(FtlError::PowerLoss) => {
                resume = i;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(resume < reqs.len(), "the injected crash must fire inside 4x capacity");
    dev.recover().unwrap();
    let known = (0..info.logical_pages)
        .filter_map(|l| dev.mapping().lookup(l))
        .filter(|ppa| dev.block_manager().knows(ppa.wl.block))
        .count();
    assert!(known > 0, "gathered QSTR-MED summaries must survive the power loss");
    // And the device resumes QSTR-MED placement with that knowledge.
    for req in &reqs[resume..] {
        apply(&mut dev, req).unwrap();
    }
    assert!(dev.distance_checks() > 0);
}

#[test]
fn recovery_is_idempotent_because_it_checkpoints() {
    // Recovery ends with a fresh checkpoint over the state it rebuilt and
    // no superblock open, so a second recovery straight after the first
    // has nothing dirty to scan and must rebuild the identical mapping.
    for scheme in [
        OrganizationScheme::Random,
        OrganizationScheme::QstrMed { candidates: 4 },
        OrganizationScheme::Sequential,
    ] {
        for crash in [None, Some(CrashPoint::from_seed(5, 3000))] {
            for track in [false, true] {
                let tag = format!("{scheme:?} crash {crash:?} track {track}");
                let mut config = FtlConfig::small_test();
                config.scheme = scheme;
                config.spor.crash = crash;
                config.integrity.track = track;
                let mut dev = Ssd::new(config, 11).unwrap();
                let info = dev.geometry_info();
                let reqs = Workload::random_write(0.5).generate(
                    &info,
                    (info.logical_pages * 2) as usize,
                    7,
                );
                for req in &reqs {
                    match apply(&mut dev, req) {
                        Ok(()) => {}
                        Err(FtlError::PowerLoss) => break,
                        Err(e) => panic!("{tag}: unexpected error: {e}"),
                    }
                }
                assert_eq!(dev.has_crashed(), crash.is_some(), "{tag}: crash fired");
                let mapping = |dev: &Ssd| {
                    (0..info.logical_pages).map(|l| dev.mapping().lookup(l)).collect::<Vec<_>>()
                };
                let first = dev.recover().unwrap();
                let rebuilt = mapping(&dev);
                let second = dev.recover().unwrap();
                assert!(first.scanned_pages > 0, "{tag}: the first recovery scans");
                assert_eq!(second.scanned_pages, 0, "{tag}: nothing is dirty the second time");
                assert_eq!(second.recovered_mappings, first.recovered_mappings, "{tag}");
                assert_eq!(mapping(&dev), rebuilt, "{tag}: identical mapping");
            }
        }
    }
}
