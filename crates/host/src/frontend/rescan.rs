//! The rescan drain, kept as the test reference for [`HostFrontend::run`]'s
//! event drain, the way `crates/ftl/tests/sched_equivalence.rs` keeps a
//! naive min-scan for the scheduler primitives.
//!
//! Before every dispatch the rescan drain admits every tenant and rebuilds
//! a `Vec<bool>` readiness mask. It shares the arbiter, the queues and
//! admission, and the dispatch step with the event drain, which must find
//! the same admissions, picks and dispatches without the rescans.

use super::HostFrontend;
use crate::arbiter::Arbitration;
use crate::queue::{TenantSpec, TenantState, TenantStats};
use flash_model::FlashConfig;
use ftl::{FtlConfig, GcBudget, IoOp, IoRequest, QosClass, QueueModel, Ssd, SsdStats};
use proptest::prelude::*;

impl HostFrontend {
    /// [`HostFrontend::run`] over the rescan drain.
    pub(super) fn run_rescan(&mut self) -> ftl::Result<()> {
        self.ssd.timed_begin();
        let result = self.drain_rescan();
        self.ssd.timed_end();
        result
    }

    fn drain_rescan(&mut self) -> ftl::Result<()> {
        loop {
            let now = self.now;
            for tenant in &mut self.tenants {
                tenant.admit(now);
            }
            let mut ready: Vec<bool> = self.tenants.iter().map(|t| !t.sq.is_empty()).collect();
            // While the device wants a GC slice, drain latency-critical
            // queues first (work-conserving: only while one is ready).
            if self.ssd.gc_slice_pending()
                && self
                    .tenants
                    .iter()
                    .zip(&ready)
                    .any(|(t, &r)| r && t.spec.qos == QosClass::LatencyCritical)
            {
                for (t, r) in self.tenants.iter().zip(ready.iter_mut()) {
                    *r = *r && t.spec.qos == QosClass::LatencyCritical;
                }
            }
            let Some(k) = self.arbiter.pick(&ready) else {
                // Every queue is empty: jump to the next arrival, or stop
                // once all streams are drained.
                let next = self
                    .tenants
                    .iter()
                    .filter_map(TenantState::next_arrival)
                    .fold(f64::INFINITY, f64::min);
                if !next.is_finite() {
                    return Ok(());
                }
                self.now = self.now.max(next);
                continue;
            };
            self.dispatch(k)?;
        }
    }
}

/// xorshift64 stream for drawing one scenario from a proptest seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// One randomized frontend scenario.
#[derive(Debug, Clone)]
struct Scenario {
    specs: Vec<TenantSpec>,
    streams: Vec<Vec<(f64, IoRequest)>>,
    arbitration: Arbitration,
    queue_model: QueueModel,
}

/// A device small enough that a few thousand writes keep the sliced
/// collector busy.
fn device(queue_model: QueueModel) -> Ssd {
    let config = FtlConfig {
        flash: FlashConfig::builder()
            .chips(4)
            .planes_per_chip(1)
            .blocks_per_plane(16)
            .pwl_layers(4)
            .strings(2)
            .build(),
        gc_budget: GcBudget::Sliced { slice_us: 200.0 },
        idle_gc: true,
        queue_model,
        ..FtlConfig::small_test()
    };
    Ssd::new(config, 5).expect("valid config")
}

fn scenario(seed: u64) -> Scenario {
    let mut d = Draw(seed | 1);
    let tenants = d.range(1, 130) as usize;
    let logical = device(QueueModel::Single).geometry_info().logical_pages;
    let specs = (0..tenants)
        .map(|i| {
            let qos = [QosClass::LatencyCritical, QosClass::Standard, QosClass::Background]
                [d.range(0, 2) as usize];
            let mut spec = TenantSpec::new(&format!("t{i}"), qos).weight(d.range(1, 8) as u32);
            if d.range(0, 3) != 0 {
                spec = spec.queue_depth(d.range(1, 32) as usize);
            }
            spec
        })
        .collect();
    // About three times the logical space in writes, split unevenly, so
    // collection runs. Arrivals sit on a coarse grid shared by every
    // tenant, so they tie across tenants; the grid's spacing sets the load
    // from a standing backlog that overruns the shallow queues to gaps
    // where every queue empties.
    let total = logical * 3;
    let spacing = [5.0, 25.0, 150.0][d.range(0, 2) as usize];
    let mut streams = vec![Vec::new(); tenants];
    for _ in 0..total {
        let t = d.range(0, tenants as u64 - 1) as usize;
        let at = spacing * d.range(0, total / 3) as f64;
        let lpn = d.range(0, logical - 1);
        let req = match d.range(0, 19) {
            0..=2 => IoRequest::read(lpn),
            3 => IoRequest { op: IoOp::Trim, lpn },
            _ => IoRequest::write(lpn),
        };
        streams[t].push((at, req));
    }
    let arbitration =
        if d.range(0, 1) == 0 { Arbitration::RoundRobin } else { Arbitration::WeightedRoundRobin };
    let queue_model = if d.range(0, 1) == 0 { QueueModel::Single } else { QueueModel::PerChip };
    Scenario { specs, streams, arbitration, queue_model }
}

fn replay(s: &Scenario, rescan: bool) -> HostFrontend {
    let mut front = HostFrontend::new(device(s.queue_model), s.specs.clone(), s.arbitration);
    for (tenant, stream) in s.streams.iter().enumerate() {
        front.submit(tenant, stream);
    }
    if rescan { front.run_rescan() } else { front.run() }.expect("scenario replays");
    front
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn tenant_view(t: &TenantStats) -> impl PartialEq + std::fmt::Debug {
    (
        (t.completed, t.backpressured, t.depth_high_water),
        t.queue_wait_us.to_bits(),
        bits(t.write_latency.samples_us()),
        bits(t.read_latency.samples_us()),
    )
}

fn device_view(s: &SsdStats) -> impl PartialEq + std::fmt::Debug {
    (
        (s.host_writes, s.host_writes_by_class, s.host_reads, s.host_trims),
        (s.gc_runs, s.gc_relocations, s.gc_slices, s.gc_yield_count, s.queue_depth_max),
        bits(&[s.gc_stall_us, s.busy_us, s.queue_wait_us, s.trim_wait_us, s.makespan_us]),
        bits(&s.chip_busy_us),
        bits(s.write_latency.samples_us()),
        bits(s.read_latency.samples_us()),
        bits(s.gc_slice_us.samples_us()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The event drain must reproduce the rescan drain end to end —
    /// dispatch order, every per-tenant stat and every device stat, bit for
    /// bit — for any tenant count (including counts that cross a 64-bit
    /// mask word), weights, queue depths, arbitration, tied arrivals across
    /// tenants, and a sliced collector whose pending slices switch on the
    /// latency-critical-first mask.
    #[test]
    fn event_drain_matches_rescan_drain_end_to_end(seed in 0u64..u64::MAX) {
        let s = scenario(seed);
        let rescan = replay(&s, true);
        let event = replay(&s, false);
        let tag = format!(
            "{} tenants, {:?}, {:?}",
            s.specs.len(),
            s.arbitration,
            s.queue_model
        );
        prop_assert!(rescan.device().stats().gc_slices > 0, "{}: the collector must slice", tag);
        prop_assert!(rescan.drained() && event.drained(), "{}: undrained", tag);
        prop_assert_eq!(rescan.dispatch_log(), event.dispatch_log(), "{}: dispatch order", tag);
        for (i, (a, b)) in rescan.all_stats().iter().zip(event.all_stats()).enumerate() {
            prop_assert_eq!(tenant_view(a), tenant_view(b), "{}: tenant {}", tag, i);
        }
        prop_assert_eq!(
            device_view(rescan.device().stats()),
            device_view(event.device().stats()),
            "{}: device stats",
            tag
        );
    }
}
