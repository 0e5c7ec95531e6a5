//! Batched-engine oracle contract.
//!
//! The stepper replay loop is the golden oracle: `engine = Batched` must
//! produce the *entire* stat set — every counter, every running float sum,
//! every latency sample vector — bit-identical to it, for both queue models
//! and with idle-gap GC on or off. A single reassociated float add, skipped
//! RNG draw, or reordered histogram sample flips a bit here.
//!
//! The crash test additionally pins the prefix latency cache: a batched
//! device must crash, checkpoint, and recover exactly like a stepper device.

use flash_model::FaultConfig;
use ftl::{
    poisson_arrivals, CrashPoint, EngineMode, FtlConfig, FtlError, GcBudget, IoOp, IoRequest,
    ParityConfig, QueueModel, Ssd, SsdStats, Workload,
};

/// Same mixed open-loop workload as `timed_golden.rs`: 3x-capacity writes
/// with reads (hits and misses) and trims folded in, Poisson at 800 µs.
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

fn run(idle_gc: bool, model: QueueModel, engine: EngineMode) -> Ssd {
    run_with_budget(idle_gc, model, engine, GcBudget::Unbounded)
}

fn run_with_budget(idle_gc: bool, model: QueueModel, engine: EngineMode, budget: GcBudget) -> Ssd {
    let mut config = FtlConfig::small_test();
    config.idle_gc = idle_gc;
    config.queue_model = model;
    config.engine = engine;
    config.gc_budget = budget;
    let mut dev = Ssd::new(config, 3).unwrap();
    let timed = workload(&dev);
    dev.run_timed(&timed).unwrap();
    dev
}

fn assert_bits(a: f64, b: f64, what: &str, tag: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{tag}: {what} drifted ({a} vs {b})");
}

fn assert_samples(a: &[f64], b: &[f64], what: &str, tag: &str) {
    assert_eq!(a.len(), b.len(), "{tag}: {what} sample count drifted");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{tag}: {what} sample {i} drifted ({x} vs {y})");
    }
}

/// Compares every field of [`SsdStats`] — floats by bit pattern, latency
/// histograms as full ordered sample vectors.
fn assert_stats_bit_identical(s: &SsdStats, b: &SsdStats, tag: &str) {
    assert_eq!(s.host_writes, b.host_writes, "{tag}: host_writes");
    assert_eq!(s.host_writes_by_class, b.host_writes_by_class, "{tag}: host_writes_by_class");
    assert_eq!(s.host_reads, b.host_reads, "{tag}: host_reads");
    assert_eq!(s.host_trims, b.host_trims, "{tag}: host_trims");
    assert_eq!(s.gc_relocations, b.gc_relocations, "{tag}: gc_relocations");
    assert_eq!(s.gc_runs, b.gc_runs, "{tag}: gc_runs");
    assert_eq!(s.gc_slices, b.gc_slices, "{tag}: gc_slices");
    assert_eq!(s.gc_yield_count, b.gc_yield_count, "{tag}: gc_yield_count");
    assert_bits(s.gc_stall_us, b.gc_stall_us, "gc_stall_us", tag);
    assert_samples(s.gc_slice_us.samples_us(), b.gc_slice_us.samples_us(), "gc_slice", tag);
    assert_samples(s.gc_stall.samples_us(), b.gc_stall.samples_us(), "gc_stall", tag);
    assert_eq!(s.superwl_programs, b.superwl_programs, "{tag}: superwl_programs");
    assert_eq!(s.superblock_erases, b.superblock_erases, "{tag}: superblock_erases");
    assert_eq!(s.superblocks_assembled, b.superblocks_assembled, "{tag}: superblocks_assembled");
    assert_eq!(s.retired_blocks, b.retired_blocks, "{tag}: retired_blocks");
    assert_eq!(s.remapped_writes, b.remapped_writes, "{tag}: remapped_writes");
    assert_eq!(s.refresh_relocations, b.refresh_relocations, "{tag}: refresh_relocations");
    assert_eq!(s.uncorrectable_reads, b.uncorrectable_reads, "{tag}: uncorrectable_reads");
    assert_eq!(s.rebuild_reads, b.rebuild_reads, "{tag}: rebuild_reads");
    assert_eq!(s.rebuilds_ok, b.rebuilds_ok, "{tag}: rebuilds_ok");
    assert_eq!(s.rebuilds_failed, b.rebuilds_failed, "{tag}: rebuilds_failed");
    assert_bits(s.rebuild_us, b.rebuild_us, "rebuild_us", tag);
    assert_bits(s.rebuild_ok_us, b.rebuild_ok_us, "rebuild_ok_us", tag);
    assert_bits(s.rebuild_ok_fanout_us, b.rebuild_ok_fanout_us, "rebuild_ok_fanout_us", tag);
    assert_eq!(s.parity_verified, b.parity_verified, "{tag}: parity_verified");
    assert_eq!(s.parity_mismatch, b.parity_mismatch, "{tag}: parity_mismatch");
    assert_eq!(s.degraded_superblocks, b.degraded_superblocks, "{tag}: degraded_superblocks");
    assert_eq!(s.queue_depth_max, b.queue_depth_max, "{tag}: queue_depth_max");
    assert_eq!(s.recovery_scan_pages, b.recovery_scan_pages, "{tag}: recovery_scan_pages");
    assert_eq!(s.recovered_mappings, b.recovered_mappings, "{tag}: recovered_mappings");
    assert_eq!(s.torn_writes_discarded, b.torn_writes_discarded, "{tag}: torn_writes_discarded");
    assert_bits(s.extra_program_us, b.extra_program_us, "extra_program_us", tag);
    assert_bits(s.extra_erase_us, b.extra_erase_us, "extra_erase_us", tag);
    assert_bits(s.busy_us, b.busy_us, "busy_us", tag);
    assert_bits(s.idle_gc_us, b.idle_gc_us, "idle_gc_us", tag);
    assert_bits(s.queue_wait_us, b.queue_wait_us, "queue_wait_us", tag);
    assert_bits(s.trim_wait_us, b.trim_wait_us, "trim_wait_us", tag);
    assert_bits(s.makespan_us, b.makespan_us, "makespan_us", tag);
    assert_bits(s.recovery_time_us, b.recovery_time_us, "recovery_time_us", tag);
    assert_samples(&s.chip_busy_us, &b.chip_busy_us, "chip_busy_us", tag);
    assert_samples(s.write_latency.samples_us(), b.write_latency.samples_us(), "write", tag);
    assert_samples(s.read_latency.samples_us(), b.read_latency.samples_us(), "read", tag);
    // Belt and braces: derived statistics fold from the samples above, so
    // they cannot disagree — but they are what reports print, so pin them.
    assert_bits(s.write_latency.mean_us(), b.write_latency.mean_us(), "write mean", tag);
    assert_bits(
        s.write_latency.quantile_us(0.99),
        b.write_latency.quantile_us(0.99),
        "write p99",
        tag,
    );
    assert_bits(s.write_latency.max_us(), b.write_latency.max_us(), "write max", tag);
    assert_bits(s.read_latency.mean_us(), b.read_latency.mean_us(), "read mean", tag);
    assert_bits(s.waf(), b.waf(), "WAF", tag);
    assert_bits(s.extra_program_per_op_us(), b.extra_program_per_op_us(), "extra PGM", tag);
}

#[test]
fn batched_engine_matches_stepper_oracle_bit_for_bit() {
    for model in [QueueModel::Single, QueueModel::PerChip] {
        for idle_gc in [false, true] {
            let tag = format!("{model:?} idle_gc={idle_gc}");
            let stepper = run(idle_gc, model, EngineMode::Stepper);
            let batched = run(idle_gc, model, EngineMode::Batched);
            assert_stats_bit_identical(stepper.stats(), batched.stats(), &tag);
            let lpns = stepper.geometry_info().logical_pages;
            for lpn in 0..lpns {
                assert_eq!(
                    stepper.mapping().lookup(lpn),
                    batched.mapping().lookup(lpn),
                    "{tag}: mapping diverged at lpn {lpn}"
                );
            }
        }
    }
}

#[test]
fn batched_engine_matches_stepper_with_sliced_gc() {
    // The sliced collector adds state the engines must keep in lockstep: a
    // parked GcJob, slice/yield counters, the stall histogram, and the
    // idle-gap slice arms of all four replay loops.
    let budget = GcBudget::Sliced { slice_us: 300.0 };
    for model in [QueueModel::Single, QueueModel::PerChip] {
        for idle_gc in [false, true] {
            let tag = format!("sliced {model:?} idle_gc={idle_gc}");
            let stepper = run_with_budget(idle_gc, model, EngineMode::Stepper, budget);
            let batched = run_with_budget(idle_gc, model, EngineMode::Batched, budget);
            assert!(stepper.stats().gc_slices > 0, "{tag}: workload must exercise slices");
            assert_stats_bit_identical(stepper.stats(), batched.stats(), &tag);
            for lpn in 0..stepper.geometry_info().logical_pages {
                assert_eq!(
                    stepper.mapping().lookup(lpn),
                    batched.mapping().lookup(lpn),
                    "{tag}: mapping diverged at lpn {lpn}"
                );
            }
        }
    }
}

#[test]
fn batched_engine_matches_stepper_with_active_parity() {
    // Parity changes the data layout (11-wide stripes + parity page), the
    // capacity export, and the read path (uncorrectable reads rebuild their
    // stripe and restage mid-run, charging rebuild_us/gc_stall_us). Both
    // engines must agree bit-for-bit on all of it — and the workload must
    // actually exercise rebuilds, or the test proves nothing.
    let run = |engine: EngineMode| {
        let mut config = FtlConfig::small_test();
        config.parity = ParityConfig::On;
        config.fault = FaultConfig {
            weak_block_prob: 0.15,
            weak_ber_multiplier: 150.0,
            page_type_ber_spread: 0.35,
            ..FaultConfig::default()
        };
        config.queue_model = QueueModel::PerChip;
        config.engine = engine;
        let mut dev = Ssd::new(config, 3).unwrap();
        let timed = workload(&dev);
        dev.run_timed(&timed).unwrap();
        dev
    };
    let stepper = run(EngineMode::Stepper);
    let batched = run(EngineMode::Batched);
    assert!(stepper.stats().uncorrectable_reads > 0, "media must produce uncorrectables");
    assert!(stepper.stats().rebuild_reads > 0, "rebuilds must fire");
    assert_stats_bit_identical(stepper.stats(), batched.stats(), "active parity");
    for lpn in 0..stepper.geometry_info().logical_pages {
        assert_eq!(
            stepper.mapping().lookup(lpn),
            batched.mapping().lookup(lpn),
            "active parity: mapping diverged at lpn {lpn}"
        );
    }
}

#[test]
fn batched_engine_crashes_and_recovers_exactly_like_the_stepper() {
    // Untimed drive with an injected power loss: the batched device keeps
    // its prefix latency cache warm the whole time, and it must be
    // invisible — same crash op, same recovery report, same rebuilt
    // mapping, same post-recovery stats.
    let run = |engine: EngineMode| {
        let mut config = FtlConfig::small_test();
        config.engine = engine;
        config.spor.checkpoint_interval = 16;
        config.spor.crash = Some(CrashPoint::from_seed(42, 1500));
        let mut dev = Ssd::new(config, 11).unwrap();
        let info = dev.geometry_info();
        let reqs =
            Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 7);
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
        // Resume past the crash so the checkpoint recovery installed is
        // exercised by further checkpoints, not just rebuilt.
        for req in &reqs[resume..] {
            match req.op {
                IoOp::Write => drop(dev.write(req.lpn).unwrap()),
                IoOp::Read => drop(dev.read(req.lpn).unwrap()),
                IoOp::Trim => dev.trim(req.lpn).unwrap(),
            }
        }
        (resume, report, dev)
    };
    let (at_s, report_s, stepper) = run(EngineMode::Stepper);
    let (at_b, report_b, batched) = run(EngineMode::Batched);
    assert_eq!(at_s, at_b, "crash fired at a different op");
    assert_eq!(report_s, report_b, "recovery reports diverged");
    assert_stats_bit_identical(stepper.stats(), batched.stats(), "post-recovery");
    for lpn in 0..stepper.geometry_info().logical_pages {
        assert_eq!(
            stepper.mapping().lookup(lpn),
            batched.mapping().lookup(lpn),
            "recovered mapping diverged at lpn {lpn}"
        );
    }
}
