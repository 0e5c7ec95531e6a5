//! Preemptive-GC contract.
//!
//! Properties of the sliced collector that the bench numbers rest on: the
//! worst single-command collection stall shrinks by at least the
//! configured budget ratio versus the run-to-completion collector; the
//! default `GcBudget::Unbounded` leaves every slice statistic untouched
//! (so the goldens cannot have moved); latency-critical writes, which never
//! pay a ladder slice, still collect through the emergency floor; and a
//! program failure landing on a relocated page while the job is parked
//! restages the payload without losing any of the victim's live data.

use std::collections::HashSet;

use ftl::{FtlConfig, GcBudget, IoOp, QosClass, Ssd, Workload};

/// Overwrite-heavy workload sized to keep the collector busy: three times
/// the logical capacity of random writes, each of class `class`.
fn drive(config: FtlConfig, seed: u64, class: QosClass) -> Ssd {
    let mut dev = Ssd::new(config, 3).unwrap();
    let info = dev.geometry_info();
    let reqs = Workload::random_write(0.6).generate(&info, (info.logical_pages * 3) as usize, seed);
    for req in &reqs {
        match req.op {
            IoOp::Write => drop(dev.write_with_class(req.lpn, class).unwrap()),
            IoOp::Read => drop(dev.read(req.lpn).unwrap()),
            IoOp::Trim => dev.trim(req.lpn).unwrap(),
        }
    }
    dev
}

#[test]
fn sliced_collector_bounds_the_worst_per_command_stall() {
    const SLICE_US: f64 = 300.0;
    let unbounded = drive(FtlConfig::small_test(), 7, QosClass::Standard);
    let mut config = FtlConfig::small_test();
    config.gc_budget = GcBudget::Sliced { slice_us: SLICE_US };
    let sliced = drive(config, 7, QosClass::Standard);

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
    let dev = drive(FtlConfig::small_test(), 11, QosClass::Standard);
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
fn latency_critical_writes_collect_through_the_emergency_floor_alone() {
    let mut config = FtlConfig::small_test();
    config.gc_budget = GcBudget::Sliced { slice_us: 300.0 };
    let standard = drive(config.clone(), 7, QosClass::Standard);
    assert!(standard.stats().gc_yield_count > 0, "standard writes must park ladder slices");

    // Latency-critical writes never pay a ladder slice, so collection runs
    // only through the emergency floor, whose unbudgeted reclaim never
    // yields. Data integrity must survive the starved collector.
    let critical = drive(config, 7, QosClass::LatencyCritical);
    let s = critical.stats();
    assert_eq!(s.gc_yield_count, 0, "no ladder slices means nothing ever parks");
    assert!(s.gc_runs > 0, "the emergency floor must still reclaim space");
    for lpn in 0..standard.geometry_info().logical_pages {
        assert_eq!(
            standard.mapping().lookup(lpn).is_some(),
            critical.mapping().lookup(lpn).is_some(),
            "liveness diverged at lpn {lpn}"
        );
    }
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
