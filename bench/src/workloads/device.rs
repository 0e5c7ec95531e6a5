//! `device_gc_churn`: one GC-heavy device replay through the FTL's timed
//! engine, then a flush and a power-cycle recovery.

use super::{ratio, sub_seed, time_build, SimLatency};
use crate::run::{Checks, Rep, Workload};
use crate::trace::{Step, StepClass, Tracer};
use flash_model::{CellType, FlashConfig, Geometry, VariationConfig};
use ftl::{
    poisson_arrivals, EngineMode, FtlConfig, GcBudget, GeometryInfo, IoOp, IoRequest,
    LatencyHistogram, OrganizationScheme, QosClass, QueueModel, Ssd,
};
use std::time::Instant;

/// Mean arrival gap, µs. Collection bursts still queue commands, but the
/// busiest chip stays about 30% utilized; at 500 µs the tail tracked
/// backlog and its p99.9 swung 114-162 ms across seeds.
const GAP_US: f64 = 800.0;

/// Every seventh churn command is a read.
const READ_EVERY: usize = 7;

pub struct Device {
    seed: u64,
    /// Blocks per chip.
    blocks: u32,
    /// Uniform-random churn after the fill, in multiples of logical capacity.
    churn: u64,
}

impl Device {
    pub fn new(seed: u64, quick: bool) -> Self {
        let (blocks, churn) = if quick { (24, 1) } else { (400, 2) };
        Device { seed, blocks, churn }
    }

    fn config(&self) -> FtlConfig {
        FtlConfig {
            flash: FlashConfig {
                geometry: Geometry::new(4, 1, self.blocks, 24, 4, CellType::Tlc),
                variation: VariationConfig::default(),
            },
            scheme: OrganizationScheme::QstrMed { candidates: 4 },
            gc_budget: GcBudget::Sliced { slice_us: 300.0 },
            idle_gc: true,
            engine: EngineMode::Batched,
            queue_model: QueueModel::PerChip,
            ..FtlConfig::small_test()
        }
    }

    fn build(&self) -> Ssd {
        Ssd::new(self.config(), self.seed).expect("valid config")
    }

    /// A sequential fill of the logical space, then `churn` capacities of
    /// uniform-random commands, on Poisson arrivals.
    fn stream(&self, info: &GeometryInfo) -> Vec<(f64, IoRequest)> {
        let capacity = usize::try_from(info.logical_pages).expect("capacity fits usize");
        let mut reqs = ftl::Workload::SequentialWrite.generate(info, capacity, 0);
        let churn = capacity * self.churn as usize;
        let mut random =
            ftl::Workload::random_write(1.0).generate(info, churn, sub_seed(self.seed, 1));
        for r in random.iter_mut().skip(READ_EVERY - 1).step_by(READ_EVERY) {
            r.op = IoOp::Read;
        }
        reqs.extend(random);
        poisson_arrivals(&reqs, GAP_US, sub_seed(self.seed, 2))
    }
}

/// Counters that move when a step did collection work.
fn gc_marks(ssd: &Ssd) -> (u64, u64) {
    let s = ssd.stats();
    (s.gc_slices, s.gc_relocations)
}

impl Workload for Device {
    fn setup_s(&self) -> f64 {
        time_build(|| self.build())
    }

    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut checks = Checks::default();
        let mut ssd = tr.span("ftl.new", |_| self.build());
        let stream = tr.span("bench.gen", |_| self.stream(&ssd.geometry_info()));
        let reads = stream.iter().filter(|(_, r)| r.op == IoOp::Read).count() as u64;
        let writes = stream.len() as u64 - reads;

        let mut errors = 0u64;
        ssd.timed_begin();
        if tr.per_step() {
            for &(arrival, request) in &stream {
                let before = gc_marks(&ssd);
                let t = Instant::now();
                let result = ssd.timed_step(arrival, request, QosClass::Standard);
                let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let class = if gc_marks(&ssd) != before {
                    Step::Gc
                } else if request.op == IoOp::Read {
                    Step::Read
                } else {
                    Step::Write
                };
                tr.step(class, ns);
                errors += u64::from(result.is_err());
            }
        } else {
            tr.span("ftl.replay", |_| {
                for &(arrival, request) in &stream {
                    errors +=
                        u64::from(ssd.timed_step(arrival, request, QosClass::Standard).is_err());
                }
            });
        }
        tr.span("ftl.timed_end", |_| ssd.timed_end());
        checks.count("timed steps", stream.len() as u64, errors);

        let sim = tr.span("ftl.report", |_| {
            let s = ssd.stats();
            let all = LatencyHistogram::fold([&s.write_latency, &s.read_latency]);
            SimLatency::of(&all, "device latency", &mut checks)
        });
        let flushed = tr.span("ftl.flush", |_| ssd.flush());
        checks.expect(flushed.is_ok(), || format!("flush failed: {flushed:?}"));

        let flushed_map = tr.span("bench.check", |_| {
            let s = ssd.stats();
            let completed = (s.host_writes, s.host_reads);
            checks.expect(completed == (writes, reads), || {
                format!("completed (writes, reads) {completed:?}, stream has {:?}", (writes, reads))
            });
            let samples = (s.write_latency.len() as u64, s.read_latency.len() as u64);
            checks.expect(samples == (writes, reads), || {
                format!("latency samples {samples:?}, stream has {:?}", (writes, reads))
            });
            let last_arrival = stream.last().map_or(0.0, |&(t, _)| t);
            checks.expect(s.makespan_us >= last_arrival, || {
                format!("makespan {} µs before the last arrival {last_arrival} µs", s.makespan_us)
            });
            let mapping = ssd.mapping();
            (0..mapping.capacity()).map(|lpn| mapping.lookup(lpn)).collect::<Vec<_>>()
        });
        // Recovery rebuilds the block manager, and its count with it.
        let distance_checks = ssd.distance_checks();
        let report = tr.span("ftl.recover", |_| ssd.recover());
        let scanned = match &report {
            Ok(r) => r.scanned_pages,
            Err(e) => {
                checks.expect(false, || format!("recover failed: {e}"));
                0
            }
        };
        tr.span("bench.check", |_| {
            let mapping = ssd.mapping();
            let lost =
                flushed_map.iter().zip(0..).filter(|&(&m, lpn)| mapping.lookup(lpn) != m).count();
            checks.count("mappings across recover()", flushed_map.len() as u64, lost as u64);
        });

        let s = ssd.stats();
        let gc = tr.class(Step::Gc);
        let hist = tr.step_histogram();
        let step_ns = |q| hist.and_then(|h| h.quantile_ns(q)).unwrap_or(0.0);
        let mean_ns = |c: &StepClass| ratio(c.total_s * 1e9, c.count as f64);
        let measured_s = ["ftl.replay", "ftl.timed_end", "ftl.report", "ftl.flush", "ftl.recover"]
            .iter()
            .map(|n| tr.total(n))
            .sum();
        let commands = stream.len() as f64;
        let mut rep = Rep::finish(tr, tr.total("ftl.new"), measured_s, stream.len() as u64);
        rep.sim = sim.metrics();
        rep.layers = vec![
            ("sim.samples", sim.samples),
            ("ftl.new_s", tr.total("ftl.new")),
            ("ftl.step_write_s", tr.class(Step::Write).total_s),
            ("ftl.step_write_ns", mean_ns(&tr.class(Step::Write))),
            ("ftl.step_read_s", tr.class(Step::Read).total_s),
            ("ftl.step_read_ns", mean_ns(&tr.class(Step::Read))),
            ("ftl.step_gc_s", gc.total_s),
            ("ftl.step_gc_ns", mean_ns(&gc)),
            ("ftl.step_ns_p50", step_ns(0.5)),
            ("ftl.step_ns_p999", step_ns(0.999)),
            ("ftl.ns_per_relocation", ratio(gc.total_s * 1e9, s.gc_relocations as f64)),
            ("ftl.timed_end_s", tr.total("ftl.timed_end")),
            ("ftl.report_s", tr.total("ftl.report")),
            ("ftl.flush_s", tr.total("ftl.flush")),
            ("ftl.recover_s", tr.total("ftl.recover")),
            ("ftl.host_reads", s.host_reads as f64),
            ("ftl.gc_relocations", s.gc_relocations as f64),
            ("ftl.gc_slices", s.gc_slices as f64),
            ("ftl.superwl_programs", s.superwl_programs as f64),
            ("ftl.superblock_erases", s.superblock_erases as f64),
            ("ftl.distance_checks", distance_checks as f64),
            ("ftl.recovery_scan_pages", scanned as f64),
            ("ftl.waf", s.waf()),
            ("ftl.extra_pgm_us", s.extra_program_per_op_us()),
            ("ftl.sim_queue_wait_us_mean", s.queue_wait_us / commands),
            ("ftl.sim_gc_stall_us_mean", s.gc_stall_us / commands),
            ("ftl.sim_chip_util_max", s.chip_utilization().into_iter().fold(0.0, f64::max)),
            ("ftl.sim_queue_depth_max", s.queue_depth_max as f64),
        ];
        rep.checks = checks;
        rep
    }
}
