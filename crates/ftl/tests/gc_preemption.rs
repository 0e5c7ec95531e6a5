//! Preemptive-GC contract.
//!
//! Properties of the sliced collector that the bench numbers rest on: the
//! worst single-command collection stall shrinks by at least the
//! configured budget ratio versus the run-to-completion collector; the
//! default `GcBudget::Unbounded` leaves every slice statistic untouched
//! (so the goldens cannot have moved); one per-command allowance caps
//! collection and patrol together; and a program failure landing on a
//! relocated page while the job is parked restages the payload without
//! losing any of the victim's live data.

use std::collections::HashSet;

use ftl::{
    FtlConfig, GcBudget, IntegrityConfig, IoOp, PatrolConfig, PatrolOrder, QosClass, Ssd, Workload,
};

/// Overwrite-heavy workload sized to keep the collector busy: three times
/// the logical capacity of pure random writes.
fn drive(config: FtlConfig, seed: u64) -> Ssd {
    let mut dev = Ssd::new(config, 3).unwrap();
    let info = dev.geometry_info();
    let reqs = Workload::random_write(0.6).generate(&info, (info.logical_pages * 3) as usize, seed);
    for req in &reqs {
        match req.op {
            IoOp::Write => drop(dev.write(req.lpn).unwrap()),
            IoOp::Read => drop(dev.read(req.lpn).unwrap()),
            IoOp::Trim => dev.trim(req.lpn).unwrap(),
        }
    }
    dev
}

#[test]
fn sliced_collector_bounds_the_worst_per_command_stall() {
    const SLICE_US: f64 = 300.0;
    let unbounded = drive(FtlConfig::small_test(), 7);
    let mut config = FtlConfig::small_test();
    config.gc_budget = GcBudget::Sliced { slice_us: SLICE_US };
    let sliced = drive(config, 7);

    let u = unbounded.stats();
    let s = sliced.stats();
    assert!(u.gc_runs > 0, "workload must trigger collection");
    assert!(s.gc_runs > 0, "sliced run must also collect victims");
    assert!(s.gc_slices > 0 && s.gc_yield_count > 0, "slices must park mid-victim");

    // The regression this file exists for: the run-to-completion collector
    // charges a whole victim (or several) to one command, the sliced one at
    // most a budget overrun plus the emergency floor. The old worst case
    // must exceed the new one by at least the ratio of a victim's
    // relocation cost to the slice budget — conservatively pinned at the
    // unbounded worst case over ten slice budgets, so a future change that
    // quietly reintroduces collection bursts fails loudly here.
    let worst_unbounded = u.gc_stall.max_us();
    let worst_sliced = s.gc_stall.max_us();
    assert!(
        worst_unbounded >= worst_sliced + 10.0 * SLICE_US,
        "unbounded worst stall {worst_unbounded} must exceed sliced {worst_sliced} \
         by >= 10 slice budgets ({SLICE_US} us each)"
    );
    // Both runs end with the same live data, whatever the collector.
    for lpn in 0..unbounded.geometry_info().logical_pages {
        assert_eq!(
            unbounded.mapping().lookup(lpn).is_some(),
            sliced.mapping().lookup(lpn).is_some(),
            "liveness diverged at lpn {lpn}"
        );
    }
}

#[test]
fn unbounded_default_keeps_slice_stats_at_zero() {
    let dev = drive(FtlConfig::small_test(), 11);
    let s = dev.stats();
    assert!(s.gc_runs > 0, "workload must trigger collection");
    // The slice machinery must be fully inert under the default budget —
    // these fields joining the bit-identity suites is only meaningful if
    // the legacy path provably never touches them.
    assert_eq!(s.gc_slices, 0, "unbounded collection must not count slices");
    assert_eq!(s.gc_yield_count, 0, "unbounded collection never yields");
    assert!(s.gc_slice_us.samples_us().is_empty(), "no slice durations");
    // Stall accounting, by contrast, is mode-independent: the write
    // histogram's collection component is split out either way.
    assert!(s.gc_stall_us > 0.0, "unbounded stalls must still be accounted");
    assert!(!s.gc_stall.samples_us().is_empty());
    assert!(s.gc_stall.max_us() <= s.gc_stall_us);
}

#[test]
fn gc_allowance_gates_ladder_slices_but_not_the_emergency_floor() {
    const SLICE_US: f64 = 300.0;
    let drive_with_allowance = |allowance: Option<f64>| {
        let mut config = FtlConfig::small_test();
        config.gc_budget = GcBudget::Sliced { slice_us: SLICE_US };
        let mut dev = Ssd::new(config, 3).unwrap();
        if let Some(a) = allowance {
            dev.set_gc_allowance(a);
        }
        let info = dev.geometry_info();
        let reqs =
            Workload::random_write(0.6).generate(&info, (info.logical_pages * 3) as usize, 7);
        for req in &reqs {
            match req.op {
                IoOp::Write => drop(dev.write(req.lpn).unwrap()),
                IoOp::Read => drop(dev.read(req.lpn).unwrap()),
                IoOp::Trim => dev.trim(req.lpn).unwrap(),
            }
        }
        dev
    };

    // The default (no allowance set) and an explicit INFINITY allowance are
    // the same device, bit for bit — the cap only exists once finite.
    let plain = drive_with_allowance(None);
    let uncapped = drive_with_allowance(Some(f64::INFINITY));
    let (p, u) = (plain.stats(), uncapped.stats());
    assert!(p.gc_yield_count > 0, "workload must park ladder slices");
    assert_eq!(p.gc_slices, u.gc_slices);
    assert_eq!(p.gc_yield_count, u.gc_yield_count);
    assert_eq!(p.gc_stall_us.to_bits(), u.gc_stall_us.to_bits());
    assert_eq!(p.gc_relocations, u.gc_relocations);

    // A zero allowance suppresses every ladder slice: collection then runs
    // only through the emergency floor, whose unbudgeted reclaim never
    // yields. Data integrity must survive the starved collector.
    let starved = drive_with_allowance(Some(0.0));
    let s = starved.stats();
    assert_eq!(s.gc_yield_count, 0, "no ladder slices means nothing ever parks");
    assert!(s.gc_runs > 0, "the emergency floor must still reclaim space");
    for lpn in 0..plain.geometry_info().logical_pages {
        assert_eq!(
            plain.mapping().lookup(lpn).is_some(),
            starved.mapping().lookup(lpn).is_some(),
            "liveness diverged at lpn {lpn}"
        );
    }

    // NaN and negative allowances clamp to zero rather than poisoning the
    // budget comparison.
    for bogus in [f64::NAN, -1.0] {
        let clamped = drive_with_allowance(Some(bogus));
        let c = clamped.stats();
        assert_eq!(c.gc_slices, s.gc_slices, "allowance {bogus} must behave like 0");
        assert_eq!(c.gc_stall_us.to_bits(), s.gc_stall_us.to_bits());
    }
}

#[test]
fn one_allowance_caps_collection_and_patrol_together() {
    // Background commands pay both kinds of ladder work, and a 1 µs
    // allowance is less than any one word-line step: whichever kind pays
    // first spends the whole allowance, so no command may also run the
    // other kind's slice.
    let mut config = FtlConfig::small_test();
    config.gc_budget = GcBudget::Sliced { slice_us: 300.0 };
    config.integrity = IntegrityConfig {
        track: true,
        retention_hours_per_us: 0.0,
        patrol: PatrolConfig::On {
            interval_us: 2_000.0,
            slice_us: 300.0,
            refresh_fraction: 0.5,
            order: PatrolOrder::Blind,
        },
    };
    let mut dev = Ssd::new(config, 3).unwrap();
    let info = dev.geometry_info();
    let reqs = Workload::random_write(0.6).generate(&info, (info.logical_pages * 3) as usize, 7);
    let (mut collected, mut scrubbed, mut both) = (0, 0, 0);
    for req in &reqs {
        let (yields, scanned) = (dev.stats().gc_yield_count, dev.stats().patrol_scanned_pages);
        dev.set_gc_allowance(1.0);
        dev.write_with_class(req.lpn, QosClass::Background).unwrap();
        // A yield is a ladder slice: the emergency floor never parks.
        let gc = dev.stats().gc_yield_count > yields;
        let patrol = dev.stats().patrol_scanned_pages > scanned;
        collected += u32::from(gc);
        scrubbed += u32::from(patrol);
        both += u32::from(gc && patrol);
    }
    assert!(collected > 0, "the workload must pay collection slices");
    assert!(scrubbed > 0, "the workload must pay patrol slices");
    assert_eq!(both, 0, "a command spent its allowance on both kinds of ladder work");
}

#[test]
fn program_failure_on_relocated_page_while_parked_restages_without_data_loss() {
    // Tiny slices park the job on nearly every quantum; a high program-fail
    // rate then lands failures on relocated pages while the victim is
    // half-collected. The contract: the failed program's payload is
    // restaged (remapped_writes), the victim's live data survives, and
    // every acknowledged write is still readable at the end.
    let mut config = FtlConfig::small_test();
    config.gc_budget = GcBudget::Sliced { slice_us: 120.0 };
    // Each failure retires a block, and failure handling can itself chain
    // extra superblock assemblies; widen over-provisioning so retirements
    // and remap chains stay inside the spare pool on this tiny geometry.
    config.overprovision = 0.45;
    config.fault.program_fail_prob = 0.003;
    let mut dev = Ssd::new(config, 5).unwrap();
    let info = dev.geometry_info();
    let reqs = Workload::random_write(0.6).generate(&info, (info.logical_pages * 3) as usize, 13);
    let mut live: HashSet<u64> = HashSet::new();
    for req in &reqs {
        match req.op {
            IoOp::Write => {
                dev.write(req.lpn).unwrap();
                live.insert(req.lpn);
            }
            IoOp::Read => drop(dev.read(req.lpn).unwrap()),
            IoOp::Trim => {
                dev.trim(req.lpn).unwrap();
                live.remove(&req.lpn);
            }
        }
    }
    let s = dev.stats();
    assert!(s.gc_yield_count > 0, "jobs must park mid-victim");
    assert!(s.gc_relocations > 0, "collection must relocate pages");
    assert!(s.degraded_superblocks > 0, "failures must actually fire");
    assert!(s.remapped_writes > 0, "failed programs must restage their payload");
    // Every acknowledged write survives collection + failures: the read
    // path debug-asserts the stored tag matches the LPN, so a mix-up
    // between a stale victim copy and its relocated twin trips here too.
    for &lpn in &live {
        assert!(
            dev.read(lpn).unwrap().is_some(),
            "live lpn {lpn} lost across preempted collection with program failures"
        );
    }
    for lpn in 0..info.logical_pages {
        assert_eq!(
            dev.mapping().lookup(lpn).is_some(),
            live.contains(&lpn),
            "mapping liveness wrong at lpn {lpn}"
        );
    }
}
