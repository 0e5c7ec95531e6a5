//! Before/after wall-clock for the event-driven replay core (BENCH_3).
//!
//! "Before" is the stepper path: the original one-op-at-a-time replay loop
//! (fresh latency synthesis per op, `BinaryHeap` depth tracking, per-op
//! histogram inserts) and, for the traced
//! class, the legacy quadratic `submit_traced` admission. "After" is the
//! batched engine: calendar-queue completion tracking, prefix-cached
//! latency synthesis, struct-of-arrays stat accumulators folded once at
//! `timed_end`, the frontend's
//! event-driven drain (arena-backed records, packed readiness mask), and
//! single-sort batched admission.
//!
//! Three classes, each asserted bit-identical before the speedup counts:
//!
//! * `device_replay` — `Ssd::run_timed` over a saturated mixed stream on
//!   the `repro ssd` device shape; measures the device core alone.
//! * `frontend_replay` — sixteen tenants with bounded queues under WRR;
//!   measures how the drain loops scale with queue count (the legacy loop
//!   re-admits every tenant per dispatch; the event-driven one is O(1)).
//! * `traced_tenants_e2e_ssd_shape` — a tenant-tagged trace from admission through
//!   replay; admission and replay are timed separately, and this is the
//!   headline: the legacy path re-sorts a growing stream per request, so
//!   the batched path must clear 10x end to end.
//!
//! Usage: `cargo run --release -p repro-bench --bin perf_events [--quick] [--out BENCH_3.json]`

use flash_model::{CellType, FlashConfig, Geometry};
use ftl::trace::TracedRequest;
use ftl::{
    poisson_arrivals, EngineMode, FtlConfig, IoOp, IoRequest, QosClass, QueueModel, Ssd, Workload,
};
use host::{Arbitration, HostFrontend, TenantSpec};
use std::time::Instant;

/// The `repro ssd` device shape: 4 chips x 48 blocks x 96 LWLs, TLC.
fn ssd_shape(engine: EngineMode) -> FtlConfig {
    let mut config = FtlConfig::small_test();
    config.flash = FlashConfig {
        geometry: Geometry::new(4, 1, 48, 24, 4, CellType::Tlc),
        variation: flash_model::VariationConfig::default(),
    };
    config.queue_model = QueueModel::PerChip;
    config.engine = engine;
    config
}

/// Everything that must match between the engines on a device replay.
#[derive(Debug, PartialEq, Eq)]
struct DeviceSnapshot {
    host_writes: u64,
    host_reads: u64,
    gc_runs: u64,
    gc_relocations: u64,
    write_len: usize,
    write_mean_bits: u64,
    write_p99_bits: u64,
    read_mean_bits: u64,
    busy_bits: u64,
    queue_wait_bits: u64,
    makespan_bits: u64,
    queue_depth_max: u64,
}

impl DeviceSnapshot {
    fn of(ssd: &Ssd) -> Self {
        let s = ssd.stats();
        DeviceSnapshot {
            host_writes: s.host_writes,
            host_reads: s.host_reads,
            gc_runs: s.gc_runs,
            gc_relocations: s.gc_relocations,
            write_len: s.write_latency.len(),
            write_mean_bits: s.write_latency.mean_us().to_bits(),
            write_p99_bits: s.write_latency.quantile_us(0.99).to_bits(),
            read_mean_bits: s.read_latency.mean_us().to_bits(),
            busy_bits: s.busy_us.to_bits(),
            queue_wait_bits: s.queue_wait_us.to_bits(),
            makespan_bits: s.makespan_us.to_bits(),
            queue_depth_max: s.queue_depth_max,
        }
    }
}

/// Per-tenant view that must match between the frontend drains.
#[derive(Debug, PartialEq, Eq)]
struct TenantSnapshot {
    completed: u64,
    backpressured: u64,
    depth_high_water: usize,
    queue_wait_bits: u64,
    write_mean_bits: u64,
    read_mean_bits: u64,
}

fn tenant_snapshots(front: &HostFrontend) -> Vec<TenantSnapshot> {
    front
        .all_stats()
        .iter()
        .map(|t| TenantSnapshot {
            completed: t.completed,
            backpressured: t.backpressured,
            depth_high_water: t.depth_high_water,
            queue_wait_bits: t.queue_wait_us.to_bits(),
            write_mean_bits: t.write_latency.mean_us().to_bits(),
            read_mean_bits: t.read_latency.mean_us().to_bits(),
        })
        .collect()
}

/// One timed comparison row of the output JSON.
struct Timing {
    name: &'static str,
    ops: usize,
    before_s: f64,
    after_s: f64,
    /// (admission, replay) split, traced class only.
    split: Option<[f64; 4]>,
}

impl Timing {
    fn speedup(&self) -> f64 {
        self.before_s / self.after_s
    }

    fn to_json(&self) -> String {
        let split = match self.split {
            Some([ab, rb, aa, ra]) => format!(
                ", \"admission_before_s\": {ab:.3}, \"replay_before_s\": {rb:.3}, \
                 \"admission_after_s\": {aa:.3}, \"replay_after_s\": {ra:.3}"
            ),
            None => String::new(),
        };
        format!(
            "    {{\"name\": \"{}\", \"ops\": {}, \"before_s\": {:.3}, \"after_s\": {:.3}, \
             \"before_ops_per_s\": {:.0}, \"after_ops_per_s\": {:.0}, \"speedup\": {:.2}{}}}",
            self.name,
            self.ops,
            self.before_s,
            self.after_s,
            self.ops as f64 / self.before_s,
            self.ops as f64 / self.after_s,
            self.speedup(),
            split,
        )
    }
}

/// Mixed saturated stream: writes with reads and trims folded in, arriving
/// far faster than the device drains.
fn device_stream(ssd: &Ssd, cycles: u64) -> Vec<(f64, IoRequest)> {
    let info = ssd.geometry_info();
    let n = (info.logical_pages * cycles) as usize;
    let mut reqs = Workload::hot_cold_80_20().generate(&info, n, 5);
    for (i, r) in reqs.iter_mut().enumerate() {
        match i % 7 {
            3 => r.op = IoOp::Read,
            6 if i % 14 == 6 => r.op = IoOp::Trim,
            _ => {}
        }
    }
    poisson_arrivals(&reqs, 25.0, 9)
}

fn device_replay(cycles: u64, reps: usize) -> Timing {
    let run = |engine| {
        let mut best = f64::INFINITY;
        let mut ops = 0;
        let mut snap = None;
        for _ in 0..reps {
            let mut ssd = Ssd::new(ssd_shape(engine), 11).expect("valid config");
            let stream = device_stream(&ssd, cycles);
            ops = stream.len();
            let t = Instant::now();
            ssd.run_timed(&stream).expect("workload fits the device");
            best = best.min(t.elapsed().as_secs_f64());
            let s = DeviceSnapshot::of(&ssd);
            if let Some(prev) = &snap {
                assert_eq!(prev, &s, "device replay is nondeterministic across reps");
            }
            snap = Some(s);
        }
        (best, ops, snap.expect("reps >= 1"))
    };
    let (before_s, ops, before) = run(EngineMode::Stepper);
    let (after_s, _, after) = run(EngineMode::Batched);
    assert_eq!(before, after, "device replay: engines diverged");
    eprintln!(
        "device_replay: stepper {before_s:.2}s, batched {after_s:.2}s ({:.2}x) over {ops} ops",
        before_s / after_s
    );
    Timing { name: "device_replay_ssd_shape", ops, before_s, after_s, split: None }
}

/// The traced class keeps the original three QoS-diverse tenants.
fn tenant_specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("lc", QosClass::LatencyCritical).weight(4).queue_depth(8),
        TenantSpec::new("std", QosClass::Standard).weight(2).queue_depth(16),
        TenantSpec::new("bg", QosClass::Background).weight(1).queue_depth(32),
    ]
}

/// Sixteen tenants cycling through the QoS classes. The legacy drain
/// re-admits every tenant and rebuilds a readiness vector per dispatch —
/// O(tenants) — while the event-driven drain is O(1) per dispatch, so this
/// class measures how the frontends scale with queue count.
const FRONTEND_TENANTS: usize = 16;

fn frontend_specs() -> Vec<TenantSpec> {
    (0..FRONTEND_TENANTS)
        .map(|i| {
            let qos = match i % 3 {
                0 => QosClass::LatencyCritical,
                1 => QosClass::Standard,
                _ => QosClass::Background,
            };
            TenantSpec::new(&format!("t{i:02}"), qos)
                .weight(1 + (i as u32) % 4)
                .queue_depth(8 + (i % 3) * 8)
        })
        .collect()
}

/// Per-tenant saturated streams over disjoint LPN spans.
fn tenant_streams(ssd: &Ssd, tenants: u64, per_tenant: usize) -> Vec<Vec<(f64, IoRequest)>> {
    let info = ssd.geometry_info();
    let span = info.logical_pages / tenants;
    (0..tenants)
        .map(|tenant| {
            let mut reqs =
                Workload::random_write(0.3).generate(&info, per_tenant, 21 ^ (tenant * 0x9e37));
            for (i, r) in reqs.iter_mut().enumerate() {
                r.lpn = r.lpn % span + tenant * span;
                if i % 5 == 3 {
                    r.op = IoOp::Read;
                }
            }
            poisson_arrivals(&reqs, 75.0, 31 + tenant)
        })
        .collect()
}

fn frontend_replay(per_tenant: usize, reps: usize) -> Timing {
    let run = |engine| {
        let mut best = f64::INFINITY;
        let mut snap = None;
        for _ in 0..reps {
            let ssd = Ssd::new(ssd_shape(engine), 11).expect("valid config");
            let streams = tenant_streams(&ssd, FRONTEND_TENANTS as u64, per_tenant);
            let mut front =
                HostFrontend::new(ssd, frontend_specs(), Arbitration::WeightedRoundRobin);
            for (tenant, stream) in streams.iter().enumerate() {
                front.submit(tenant, stream);
            }
            let t = Instant::now();
            front.run().expect("workload fits the device");
            best = best.min(t.elapsed().as_secs_f64());
            assert!(front.drained());
            let s = (DeviceSnapshot::of(front.device()), tenant_snapshots(&front));
            if let Some(prev) = &snap {
                assert_eq!(prev, &s, "frontend replay is nondeterministic across reps");
            }
            snap = Some(s);
        }
        let (dev, tenants) = snap.expect("reps >= 1");
        (best, dev, tenants)
    };
    let (before_s, before_dev, before_tenants) = run(EngineMode::Stepper);
    let (after_s, after_dev, after_tenants) = run(EngineMode::Batched);
    assert_eq!(before_dev, after_dev, "frontend replay: device stats diverged");
    assert_eq!(before_tenants, after_tenants, "frontend replay: tenant stats diverged");
    eprintln!(
        "frontend_replay: stepper {before_s:.2}s, batched {after_s:.2}s ({:.2}x)",
        before_s / after_s
    );
    Timing {
        name: "frontend_replay_16tenants",
        ops: per_tenant * FRONTEND_TENANTS,
        before_s,
        after_s,
        split: None,
    }
}

/// A tenant-tagged timed trace: three tenants interleaved request by
/// request with jittered (non-monotonic per tenant) arrivals, so admission
/// genuinely has to sort.
fn traced_stream(ssd: &Ssd, total: usize) -> Vec<(f64, TracedRequest)> {
    let info = ssd.geometry_info();
    let span = info.logical_pages / 3;
    (0..total)
        .map(|i| {
            let tenant = (i % 3) as u64;
            let mix = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
            let lpn = tenant * span + mix % span;
            let request = if i % 5 == 3 { IoRequest::read(lpn) } else { IoRequest::write(lpn) };
            // Coarsely increasing with +-25ms jitter: out of order within
            // each tenant, so every legacy submit re-sorts for real.
            let arrival = i as f64 * 50.0 + (mix % 1000) as f64 * 50.0;
            (arrival, TracedRequest { tenant: tenant as u32, request })
        })
        .collect()
}

fn traced_e2e(total: usize) -> Timing {
    let run = |engine| {
        let ssd = Ssd::new(ssd_shape(engine), 11).expect("valid config");
        let trace = traced_stream(&ssd, total);
        let mut front = HostFrontend::new(ssd, tenant_specs(), Arbitration::WeightedRoundRobin);
        let t = Instant::now();
        if engine == EngineMode::Batched {
            front.submit_traced_batched(&trace);
        } else {
            front.submit_traced(&trace);
        }
        let admission_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        front.run().expect("workload fits the device");
        let replay_s = t.elapsed().as_secs_f64();
        assert!(front.drained());
        (admission_s, replay_s, DeviceSnapshot::of(front.device()), tenant_snapshots(&front))
    };
    let (adm_before, rep_before, before_dev, before_tenants) = run(EngineMode::Stepper);
    let (adm_after, rep_after, after_dev, after_tenants) = run(EngineMode::Batched);
    assert_eq!(before_dev, after_dev, "traced e2e: device stats diverged");
    assert_eq!(before_tenants, after_tenants, "traced e2e: tenant stats diverged");
    let (before_s, after_s) = (adm_before + rep_before, adm_after + rep_after);
    eprintln!(
        "traced_tenants_e2e: stepper {before_s:.2}s (admit {adm_before:.2} + replay \
         {rep_before:.2}), batched {after_s:.2}s (admit {adm_after:.2} + replay {rep_after:.2}) \
         — {:.2}x",
        before_s / after_s
    );
    Timing {
        name: "traced_tenants_e2e_ssd_shape",
        ops: total,
        before_s,
        after_s,
        split: Some([adm_before, rep_before, adm_after, rep_after]),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = match args.iter().position(|a| a == "--out") {
        Some(i) => args.get(i + 1).cloned().expect("--out takes a path"),
        None => "BENCH_3.json".to_string(),
    };

    let reps = if quick { 1 } else { 3 };
    let device = device_replay(if quick { 1 } else { 4 }, reps);
    let frontend = frontend_replay(if quick { 1_500 } else { 12_000 }, reps);
    let traced = traced_e2e(if quick { 24_000 } else { 165_000 });

    let runs: Vec<String> = [&device, &frontend, &traced].iter().map(|t| t.to_json()).collect();
    let json = format!(
        "{{\n  \"bench\": \"Event-driven replay core: per-op stepper loop + quadratic traced \
         admission (before) vs batched calendar-queue engine + single-sort admission (after); \
         full stat set asserted bit-identical per class\",\n  \
         \"command\": \"cargo run --release -p repro-bench --bin perf_events\",\n  \
         \"quick\": {quick},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        runs.join(",\n")
    );
    std::fs::write(&out, json).expect("write BENCH_3.json");
    eprintln!("wrote {out}");

    if !quick {
        assert!(
            traced.speedup() >= 10.0,
            "expected >= 10x on the traced end-to-end class, got {:.2}x",
            traced.speedup()
        );
    }
}
