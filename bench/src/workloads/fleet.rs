//! `fleet_integrity`: a sharded multi-user fleet with patrol scrubbing,
//! parity and integrity tracking live on every device.
//!
//! Untraced reps time `fleet::run_fleet` itself. Traced reps replay the
//! same fleet through an outside replica of its per-device loop (same seed
//! salt, tenant roster and reduction order), which is what lets them time
//! each phase per device; its folded p99.9 and command count must equal
//! `run_fleet`'s bit for bit.

use super::{ratio, time_build, SimLatency};
use crate::run::{Checks, Rep, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use fleet::{run_fleet, FleetConfig, FleetWorkload};
use ftl::{
    EngineMode, FtlConfig, GcBudget, IntegrityConfig, LatencyHistogram, OrganizationScheme,
    ParityConfig, PatrolConfig, PatrolOrder, QosClass, QueueModel, Ssd, SsdStats,
};
use host::{Arbitration, HostFrontend, TenantSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// `fleet::run_fleet`'s salt for per-device construction seeds.
const DEVICE_SEED_SALT: u64 = 0x4445_5649_4345_5f53;

/// Aggregate arrival gap per device, µs — the `repro fleet` pacing.
const DEVICE_GAP_US: f64 = 900.0;

/// Worker threads, capped at the host's cores.
const WORKERS: usize = 2;

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(WORKERS)
}

/// The `repro parity` soak device — QSTR-MED with sliced GC, plus, when
/// `integrity` is set, parity, integrity tracking and PV-aware patrol —
/// with two changes this pacing needs. Its simulated span is about 100x the
/// soak's, so retention aging is off: at any rate down to 1e-6 h/µs whole
/// stripes rot faster than patrol scrubs and parity rebuilds fail. Read
/// disturb is still tracked, and patrol refreshes at 0.1 of the limit: at
/// 0.2, disturbed pages already went uncorrectable with their stripes.
fn device_config(integrity: bool) -> FtlConfig {
    let mut c = FtlConfig {
        scheme: OrganizationScheme::QstrMed { candidates: 4 },
        queue_model: QueueModel::PerChip,
        engine: EngineMode::Batched,
        idle_gc: true,
        gc_budget: GcBudget::Sliced { slice_us: 300.0 },
        overprovision: 0.45,
        gc_low_watermark: 3,
        gc_high_watermark: 5,
        ..FtlConfig::small_test()
    };
    if integrity {
        c.parity = ParityConfig::On;
        c.fault.page_type_ber_spread = 0.35;
        c.integrity = IntegrityConfig {
            track: true,
            retention_hours_per_us: 0.0,
            patrol: PatrolConfig::On {
                interval_us: 10_000.0,
                slice_us: 2_000.0,
                refresh_fraction: 0.1,
                order: PatrolOrder::SlowPoolFirst,
            },
        };
    }
    c
}

/// `fleet::run_fleet`'s three-tenant roster.
fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("lc", QosClass::LatencyCritical).weight(4).queue_depth(8),
        TenantSpec::new("std", QosClass::Standard).weight(2).queue_depth(16),
        TenantSpec::new("bg", QosClass::Background).weight(1).queue_depth(32),
    ]
}

fn device_seed(fleet_seed: u64, device: usize) -> u64 {
    (fleet_seed ^ DEVICE_SEED_SALT)
        .wrapping_add((device as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One device of the traced replica.
struct DeviceRun {
    spans: Vec<(&'static str, f64, f64)>,
    latency: LatencyHistogram,
    p99_us: f64,
    completed: u64,
    front: Option<HostFrontend>,
    error: Option<String>,
}

/// Replays one shard exactly as `fleet::run_fleet` does, timing each phase
/// against the rep's clock.
fn replay_device(config: &FleetConfig, device: usize, origin: Instant) -> DeviceRun {
    let clock = || origin.elapsed().as_secs_f64();
    let mut run = DeviceRun {
        spans: Vec::with_capacity(5),
        latency: LatencyHistogram::new(),
        p99_us: 0.0,
        completed: 0,
        front: None,
        error: None,
    };
    let t = clock();
    let ssd = Ssd::new(config.device_config.clone(), device_seed(config.fleet_seed, device));
    run.spans.push(("fleet.device_new", t, clock()));
    let ssd = match ssd {
        Ok(ssd) => ssd,
        Err(e) => {
            run.error = Some(e.to_string());
            return run;
        }
    };
    let t = clock();
    let stream =
        config.workload.device_stream(config.fleet_seed, device, ssd.geometry_info().logical_pages);
    run.spans.push(("fleet.stream_gen", t, clock()));
    let t = clock();
    let mut front = HostFrontend::new(ssd, tenants(), config.arbitration);
    front.submit_traced_batched(&stream);
    run.spans.push(("fleet.submit", t, clock()));
    let t = clock();
    run.error = front.run().err().map(|e| e.to_string());
    run.spans.push(("fleet.device_run", t, clock()));
    let t = clock();
    let all = front.all_stats();
    run.latency =
        LatencyHistogram::fold(all.iter().flat_map(|t| [&t.write_latency, &t.read_latency]));
    run.p99_us = run.latency.quantile_us(0.99);
    run.completed = all.iter().map(|t| t.completed).sum();
    run.spans.push(("fleet.device_fold", t, clock()));
    run.front = Some(front);
    run
}

pub struct Fleet {
    seed: u64,
    users: u64,
    devices: usize,
    /// Σ `shard_ops` lengths, computed on first use.
    expected: Option<u64>,
    /// `run_fleet`'s (command count, p99.9 bits), from the first rep.
    reference: Option<(u64, u64)>,
    /// Serial per-device seconds of each traced rep.
    serial_s: Vec<f64>,
}

impl Fleet {
    pub fn new(seed: u64, quick: bool) -> Self {
        let (users, devices) = if quick { (2_000, 2) } else { (120_000, 8) };
        Fleet { seed, users, devices, expected: None, reference: None, serial_s: Vec::new() }
    }

    fn config(&self, integrity: bool) -> FleetConfig {
        let mut workload = FleetWorkload::new(self.users, self.devices);
        // `repro fleet` pacing: a stationary per-device load, with user
        // starts spread over one stream length.
        workload.mean_gap_us = DEVICE_GAP_US * self.users as f64 / self.devices as f64;
        workload.start_spread_us = workload.mean_gap_us * workload.mean_ops_per_user;
        FleetConfig {
            device_config: device_config(integrity),
            workload,
            fleet_seed: self.seed,
            arbitration: Arbitration::WeightedRoundRobin,
            workers: workers(),
        }
    }

    /// Set-up is one shard's construction; `run_fleet` builds its own.
    fn shard(&self) -> Ssd {
        Ssd::new(device_config(true), device_seed(self.seed, 0)).expect("valid config")
    }

    /// Commands the fleet must complete: every shard's op count.
    fn expected(&mut self, config: &FleetConfig, logical_pages: u64) -> u64 {
        *self.expected.get_or_insert_with(|| {
            (0..self.devices)
                .map(|d| {
                    config.workload.shard_ops(config.fleet_seed, d, logical_pages).len() as u64
                })
                .sum()
        })
    }

    /// The traced replica: per-device phases timed on worker threads, then
    /// the device-order reduction. Returns (commands, latency, layers).
    fn replica(
        &mut self,
        tr: &mut Tracer,
        config: &FleetConfig,
        checks: &mut Checks,
    ) -> (u64, SimLatency, Vec<(&'static str, f64)>) {
        let origin = tr.origin();
        let devices = self.devices;
        let runs: Vec<DeviceRun> = tr.span("fleet.devices", |tr| {
            // Workers claim device ids from a shared cursor, as run_fleet's do.
            let cursor = AtomicUsize::new(0);
            let mut runs: Vec<(usize, DeviceRun)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..config.workers.min(devices))
                    .map(|_| {
                        scope.spawn(|| {
                            let mut mine = Vec::new();
                            loop {
                                let device = cursor.fetch_add(1, Ordering::Relaxed);
                                if device >= devices {
                                    return mine;
                                }
                                mine.push((device, replay_device(config, device, origin)));
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("replica worker panicked"))
                    .collect()
            });
            runs.sort_by_key(|&(device, _)| device);
            tr.adopt(runs.iter().flat_map(|(_, r)| r.spans.iter().copied()));
            runs.into_iter().map(|(_, r)| r).collect()
        });
        for (device, run) in runs.iter().enumerate() {
            if let Some(e) = &run.error {
                checks.expect(false, || format!("device {device} failed: {e}"));
            }
        }
        let (total, sim) = tr.span("fleet.fold", |_| {
            let latency = LatencyHistogram::fold(runs.iter().map(|r| &r.latency));
            (
                runs.iter().map(|r| r.completed).sum::<u64>(),
                SimLatency::of(&latency, "fleet latency", checks),
            )
        });
        if let Some(reference) = self.reference {
            let p999 = sim.p999_us();
            checks.expect(reference == (total, p999.to_bits()), || {
                format!(
                    "replica (commands, p999) {:?} differs from run_fleet's {reference:?}",
                    (total, p999)
                )
            });
        }

        let fleet_sum = |f: &dyn Fn(&SsdStats) -> f64| -> f64 {
            runs.iter()
                .filter_map(|r| r.front.as_ref())
                .map(|front| f(front.device().stats()))
                .sum()
        };
        let rebuilds_failed = fleet_sum(&|s| s.rebuilds_failed as f64);
        checks
            .expect(rebuilds_failed == 0.0, || format!("{rebuilds_failed} parity rebuilds failed"));
        let mut p99s: Vec<f64> = runs.iter().map(|r| r.p99_us).collect();
        p99s.sort_by(f64::total_cmp);
        let skew = ratio(p99s.last().copied().unwrap_or(0.0), p99s[p99s.len() / 2]);
        let phases = ["fleet.device_new", "fleet.stream_gen", "fleet.submit", "fleet.device_run"];
        let serial_s: f64 = phases.iter().chain(&["fleet.device_fold"]).map(|n| tr.total(n)).sum();
        self.serial_s.push(serial_s);
        let layers = vec![
            ("fleet.stream_gen_s", tr.total("fleet.stream_gen")),
            ("fleet.device_new_s", tr.total("fleet.device_new")),
            ("fleet.submit_s", tr.total("fleet.submit")),
            ("fleet.device_run_s", tr.total("fleet.device_run")),
            ("fleet.device_run_max_s", tr.max("fleet.device_run")),
            ("fleet.fold_s", tr.total("fleet.device_fold") + tr.total("fleet.fold")),
            ("fleet.sim_device_skew", skew),
            ("ftl.patrol_scanned_pages", fleet_sum(&|s| s.patrol_scanned_pages as f64)),
            ("ftl.patrol_refreshes", fleet_sum(&|s| s.patrol_refreshes as f64)),
            ("ftl.parity_verified", fleet_sum(&|s| s.parity_verified as f64)),
            ("ftl.rebuild_reads", fleet_sum(&|s| s.rebuild_reads as f64)),
            ("ftl.rebuilds_ok", fleet_sum(&|s| s.rebuilds_ok as f64)),
            ("ftl.rebuilds_failed", rebuilds_failed),
            ("ftl.uncorrectable_reads", fleet_sum(&|s| s.uncorrectable_reads as f64)),
            ("ftl.gc_relocations", fleet_sum(&|s| s.gc_relocations as f64)),
            ("ftl.host_reads", fleet_sum(&|s| s.host_reads as f64)),
            (
                "ftl.waf",
                1.0 + ratio(
                    fleet_sum(&|s| s.gc_relocations as f64),
                    fleet_sum(&|s| s.host_writes as f64),
                ),
            ),
            ("ftl.sim_patrol_us", fleet_sum(&|s| s.patrol_us)),
            ("ftl.sim_rebuild_us", fleet_sum(&|s| s.rebuild_us)),
        ];
        (total, sim, layers)
    }
}

impl Workload for Fleet {
    fn setup_s(&self) -> f64 {
        time_build(|| self.shard())
    }

    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut checks = Checks::default();
        let config = self.config(true);
        let logical_pages = tr.span("ftl.new", |_| self.shard()).geometry_info().logical_pages;

        let (total, sim, layers) = if tr.per_step() {
            self.replica(tr, &config, &mut checks)
        } else {
            match tr.span("fleet.run_fleet", |_| run_fleet(&config)) {
                Ok(report) => {
                    self.reference.get_or_insert((report.total_commands, report.p999_us.to_bits()));
                    let sim = SimLatency::of(&report.latency, "fleet latency", &mut checks);
                    (report.total_commands, sim, Vec::new())
                }
                Err(e) => {
                    checks.expect(false, || format!("run_fleet failed: {e}"));
                    (
                        0,
                        SimLatency::of(&LatencyHistogram::new(), "fleet latency", &mut checks),
                        Vec::new(),
                    )
                }
            }
        };
        tr.span("bench.check", |_| {
            let expected = self.expected(&config, logical_pages);
            checks.count("fleet commands completed", expected, expected.abs_diff(total));
        });

        let mut rep = Rep::finish(tr, tr.total("ftl.new"), tr.total("fleet.run_fleet"), total);
        rep.sim = sim.metrics();
        rep.layers = layers;
        rep.layers.push(("sim.samples", sim.samples));
        rep.layers.push(("ftl.new_s", tr.total("ftl.new")));
        rep.checks = checks;
        rep
    }

    fn finish_traced(
        &mut self,
        untraced: &[Rep],
        _traced: &[Rep],
        checks: &mut Checks,
    ) -> Vec<(&'static str, f64)> {
        let on_s = median(&untraced.iter().map(|r| r.measured_s).collect::<Vec<_>>());
        // Reference leg: the same fleet with integrity, patrol and parity off.
        let start = Instant::now();
        let off = run_fleet(&self.config(false));
        let off_s = start.elapsed().as_secs_f64();
        checks.expect(off.is_ok(), || format!("reference run_fleet failed: {:?}", off.err()));
        vec![
            ("fleet.parallel_eff", median(&self.serial_s) / (workers() as f64 * on_s)),
            ("fleet.integrity_share", 1.0 - off_s / on_s),
        ]
    }
}
