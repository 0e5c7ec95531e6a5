//! Randomized oracles for the frontend's dispatch machinery.
//!
//! * The event drain (`engine = Batched`) must reproduce the rescan drain
//!   (`engine = Stepper`) end to end — dispatch order, every per-tenant
//!   stat and every device stat, bit for bit — for any tenant count
//!   (including counts that cross a 64-bit mask word), weights, queue
//!   depths, arbitration, tied arrivals across tenants, and a sliced
//!   collector whose pending slices switch on the latency-critical-first
//!   mask.
//! * `Arbiter::pick` and `Arbiter::pick_mask` must grant exactly what a
//!   plain modulo scan over the queues grants, pick for pick.

use flash_model::FlashConfig;
use ftl::{EngineMode, FtlConfig, GcBudget, IoOp, IoRequest, QosClass, QueueModel, Ssd, SsdStats};
use host::{Arbiter, Arbitration, HostFrontend, TenantSpec, TenantStats};
use proptest::prelude::*;

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
fn device(engine: EngineMode, queue_model: QueueModel) -> Ssd {
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
        engine,
        ..FtlConfig::small_test()
    };
    Ssd::new(config, 5).expect("valid config")
}

fn scenario(seed: u64) -> Scenario {
    let mut d = Draw(seed | 1);
    let tenants = d.range(1, 130) as usize;
    let logical = device(EngineMode::Stepper, QueueModel::Single).geometry_info().logical_pages;
    let specs = (0..tenants)
        .map(|i| {
            let qos = [QosClass::LatencyCritical, QosClass::Standard, QosClass::Background]
                [d.range(0, 2) as usize];
            let mut spec = TenantSpec::new(&format!("t{i}"), qos).weight(d.range(1, 8) as u32);
            if d.range(0, 3) != 0 {
                spec = spec.queue_depth(d.range(1, 32) as usize);
            }
            if d.range(0, 7) == 0 {
                spec = spec.gc_slo(d.range(0, 400) as f64, 5_000.0);
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

fn replay(s: &Scenario, engine: EngineMode) -> HostFrontend {
    let mut front =
        HostFrontend::new(device(engine, s.queue_model), s.specs.clone(), s.arbitration);
    for (tenant, stream) in s.streams.iter().enumerate() {
        front.submit(tenant, stream);
    }
    front.run().expect("scenario replays");
    front
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn tenant_view(t: &TenantStats) -> impl PartialEq + std::fmt::Debug {
    (
        (t.completed, t.backpressured, t.depth_high_water, t.gc_throttled),
        (t.queue_wait_us.to_bits(), t.gc_debt_us.to_bits(), t.gc_window_peak_us.to_bits()),
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

/// The pre-bitmask arbiter: probe every queue in turn with a modulo.
struct ModuloScan {
    kind: Arbitration,
    weights: Vec<u32>,
    credits: Vec<u32>,
    cursor: usize,
}

impl ModuloScan {
    fn new(kind: Arbitration, weights: Vec<u32>) -> Self {
        let cursor = weights.len() - 1;
        ModuloScan { kind, credits: weights.clone(), weights, cursor }
    }

    fn pick(&mut self, ready: &[bool]) -> Option<usize> {
        let n = self.weights.len();
        if !ready.iter().any(|&r| r) {
            return None;
        }
        loop {
            for off in 1..=n {
                let i = (self.cursor + off) % n;
                let credit = self.kind == Arbitration::RoundRobin || self.credits[i] > 0;
                if ready[i] && credit {
                    if self.kind == Arbitration::WeightedRoundRobin {
                        self.credits[i] -= 1;
                    }
                    self.cursor = i;
                    return Some(i);
                }
            }
            self.credits.copy_from_slice(&self.weights);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn event_drain_matches_rescan_drain_end_to_end(seed in 0u64..u64::MAX) {
        let s = scenario(seed);
        let stepper = replay(&s, EngineMode::Stepper);
        let batched = replay(&s, EngineMode::Batched);
        let tag = format!(
            "{} tenants, {:?}, {:?}",
            s.specs.len(),
            s.arbitration,
            s.queue_model
        );
        prop_assert!(stepper.device().stats().gc_slices > 0, "{}: the collector must slice", tag);
        prop_assert!(stepper.drained() && batched.drained(), "{}: undrained", tag);
        prop_assert_eq!(stepper.dispatch_log(), batched.dispatch_log(), "{}: dispatch order", tag);
        for (i, (a, b)) in stepper.all_stats().iter().zip(batched.all_stats()).enumerate() {
            prop_assert_eq!(tenant_view(a), tenant_view(b), "{}: tenant {}", tag, i);
        }
        prop_assert_eq!(
            device_view(stepper.device().stats()),
            device_view(batched.device().stats()),
            "{}: device stats",
            tag
        );
    }

    #[test]
    fn bitmask_arbiter_matches_the_modulo_scan(
        seed in 0u64..u64::MAX,
        which in 0usize..6,
        wrr in any::<bool>(),
    ) {
        let n: usize = [1, 2, 63, 64, 65, 129][which];
        let kind = if wrr { Arbitration::WeightedRoundRobin } else { Arbitration::RoundRobin };
        let mut d = Draw(seed | 1);
        let weights: Vec<u32> = (0..n).map(|_| d.range(1, 8) as u32).collect();
        let mut by_bool = Arbiter::new(kind, weights.clone());
        let mut by_mask = Arbiter::new(kind, weights.clone());
        let mut oracle = ModuloScan::new(kind, weights);
        let words = n.div_ceil(64);
        for step in 0..600 {
            // Densities from "one queue in a hundred" to "all ready".
            let density = [1, 8, 50, 90, 100][d.range(0, 4) as usize];
            let ready: Vec<bool> = (0..n).map(|_| d.range(1, 100) <= density).collect();
            // Junk bits past the last queue, and a junk extra word, must
            // be ignored.
            let mut mask = vec![0u64; words + 1];
            for (i, _) in ready.iter().enumerate().filter(|(_, &r)| r) {
                mask[i / 64] |= 1 << (i % 64);
            }
            if !n.is_multiple_of(64) {
                mask[words - 1] |= d.next() << (n % 64);
            }
            mask[words] = d.next();
            let want = oracle.pick(&ready);
            prop_assert_eq!(by_bool.pick(&ready), want, "pick, n={}, step {}", n, step);
            prop_assert_eq!(by_mask.pick_mask(&mask), want, "pick_mask, n={}, step {}", n, step);
        }
    }
}
