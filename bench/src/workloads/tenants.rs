//! `tenants_read_mostly`: sixteen QoS tenants behind the host frontend's
//! admission and arbitration, on a device too roomy to collect garbage.

use super::{ratio, sub_seed, time_build, SimLatency};
use crate::run::{Checks, Rep, Workload};
use crate::trace::Tracer;
use flash_model::{CellType, FlashConfig, Geometry, VariationConfig};
use ftl::{
    poisson_arrivals, EngineMode, FtlConfig, GeometryInfo, IoOp, IoRequest, LatencyHistogram,
    OrganizationScheme, QosClass, QueueModel, Ssd,
};
use host::{Arbitration, HostFrontend, TenantStats};

const TENANTS: u64 = 16;

/// Mean arrival gap per tenant, µs (200 µs across all sixteen). Below the
/// device's write rate even during the fills; at 2,400 µs the fills
/// outrun the device and the tail measures a growing backlog.
const GAP_US: f64 = 3_200.0;

/// One command in twenty after the initial fill is a write.
const WRITE_EVERY: usize = 20;

pub struct Tenants {
    seed: u64,
    /// Blocks per chip.
    blocks: u32,
    /// Uniform commands per tenant after its fill, in multiples of its span.
    spans: u64,
}

impl Tenants {
    pub fn new(seed: u64, quick: bool) -> Self {
        let (blocks, spans) = if quick { (24, 1) } else { (800, 2) };
        Tenants { seed, blocks, spans }
    }

    fn config(&self) -> FtlConfig {
        FtlConfig {
            flash: FlashConfig {
                geometry: Geometry::new(4, 1, self.blocks, 24, 4, CellType::Tlc),
                variation: VariationConfig::default(),
            },
            // Roomy enough that the fill plus every overwrite fits without
            // collection: this workload bypasses GC and QSTR-MED.
            overprovision: 0.45,
            scheme: OrganizationScheme::Sequential,
            engine: EngineMode::Batched,
            queue_model: QueueModel::PerChip,
            ..FtlConfig::small_test()
        }
    }

    fn ssd(&self) -> Ssd {
        Ssd::new(self.config(), self.seed).expect("valid config")
    }

    fn frontend(ssd: Ssd) -> HostFrontend {
        HostFrontend::new(ssd, Self::specs(), Arbitration::WeightedRoundRobin)
    }

    /// LC/Std/BG cycling, weights 1-4, queue depths 8/16/24.
    fn specs() -> Vec<host::TenantSpec> {
        (0..TENANTS as usize)
            .map(|i| {
                let qos =
                    [QosClass::LatencyCritical, QosClass::Standard, QosClass::Background][i % 3];
                host::TenantSpec::new(&format!("t{i:02}"), qos)
                    .weight(1 + (i % 4) as u32)
                    .queue_depth(8 + (i % 3) * 8)
            })
            .collect()
    }

    /// Each tenant writes its own span once, then issues `spans` span-lengths
    /// of uniform commands over it, nineteen in twenty of them reads.
    fn streams(&self, info: &GeometryInfo) -> Vec<Vec<(f64, IoRequest)>> {
        let span = info.logical_pages / TENANTS;
        (0..TENANTS)
            .map(|t| {
                let base = t * span;
                let mut reqs: Vec<IoRequest> = (base..base + span).map(IoRequest::write).collect();
                let n = usize::try_from(span * self.spans).expect("stream fits usize");
                let ops =
                    ftl::Workload::random_write(1.0).generate(info, n, sub_seed(self.seed, 10 + t));
                reqs.extend(ops.into_iter().enumerate().map(|(i, r)| {
                    let lpn = base + r.lpn % span;
                    if i % WRITE_EVERY == WRITE_EVERY - 1 {
                        IoRequest::write(lpn)
                    } else {
                        IoRequest::read(lpn)
                    }
                }));
                poisson_arrivals(&reqs, GAP_US, sub_seed(self.seed, 100 + t))
            })
            .collect()
    }
}

/// Every latency sample of the given tenants, writes then reads per tenant.
fn fold(tenants: &[&TenantStats], keep: impl Fn(&TenantStats) -> bool) -> LatencyHistogram {
    LatencyHistogram::fold(
        tenants.iter().filter(|t| keep(t)).flat_map(|t| [&t.write_latency, &t.read_latency]),
    )
}

impl Workload for Tenants {
    fn setup_s(&self) -> f64 {
        time_build(|| Self::frontend(self.ssd()))
    }

    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut checks = Checks::default();
        let ssd = tr.span("ftl.new", |_| self.ssd());
        let info = ssd.geometry_info();
        let mut front = tr.span("host.new", |_| Self::frontend(ssd));
        let streams = tr.span("bench.gen", |_| self.streams(&info));
        let submitted: u64 = streams.iter().map(|s| s.len() as u64).sum();
        let reads: u64 =
            streams.iter().flatten().filter(|(_, r)| r.op == IoOp::Read).count() as u64;

        tr.span("host.submit", |_| {
            for (tenant, stream) in streams.iter().enumerate() {
                front.submit(tenant, stream);
            }
        });
        let ran = tr.span("host.run", |_| front.run());
        checks.expect(ran.is_ok(), || format!("frontend run failed: {ran:?}"));

        let (sim, lc_p999, bg_p999) = tr.span("host.report", |_| {
            let all = front.all_stats();
            let sim = SimLatency::of(&fold(&all, |_| true), "tenant latency", &mut checks);
            let class_p999 = |class| fold(&all, |t| t.qos == class).quantile_us(0.999);
            (sim, class_p999(QosClass::LatencyCritical), class_p999(QosClass::Background))
        });

        let (completed, backpressured, wait_us) = tr.span("bench.check", |_| {
            let all = front.all_stats();
            checks.expect(front.drained(), || "frontend did not drain".to_string());
            let completed: u64 = all.iter().map(|t| t.completed).sum();
            checks.count("commands completed", submitted, submitted.abs_diff(completed));
            let backpressured = all.iter().map(|t| t.backpressured).sum::<u64>();
            (completed, backpressured, all.iter().map(|t| t.queue_wait_us).sum::<f64>())
        });

        let s = front.device().stats();
        if s.gc_relocations != 0 {
            eprintln!(
                "warning: tenants_read_mostly relocated {} pages; it is meant to bypass GC",
                s.gc_relocations
            );
        }
        checks.expect(s.host_reads == reads, || {
            format!("device served {} reads, streams hold {reads}", s.host_reads)
        });
        let setup_s = tr.total("ftl.new") + tr.total("host.new");
        let measured_s = tr.total("host.submit") + tr.total("host.run") + tr.total("host.report");
        let mut rep = Rep::finish(tr, setup_s, measured_s, submitted);
        rep.sim = sim.metrics();
        rep.layers = vec![
            ("sim.samples", sim.samples),
            ("ftl.new_s", tr.total("ftl.new")),
            ("host.new_s", tr.total("host.new")),
            ("host.submit_s", tr.total("host.submit")),
            ("host.run_s", tr.total("host.run")),
            ("host.run_ns_per_cmd", ratio(tr.total("host.run") * 1e9, submitted as f64)),
            ("host.report_s", tr.total("host.report")),
            ("host.backpressured", backpressured as f64),
            ("host.sim_queue_wait_us_mean", ratio(wait_us, completed as f64)),
            ("host.sim_lc_p999_us", lc_p999),
            ("host.sim_bg_p999_us", bg_p999),
            ("ftl.host_reads", s.host_reads as f64),
            ("ftl.gc_relocations", s.gc_relocations as f64),
            ("ftl.waf", s.waf()),
            ("ftl.extra_pgm_us", s.extra_program_per_op_us()),
        ];
        rep.checks = checks;
        rep
    }
}
