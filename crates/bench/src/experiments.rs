//! One function per paper table/figure. See `DESIGN.md` §4 for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured numbers.

use crate::runner::{
    measure_each, run_scheme, run_schemes_parallel, ExperimentParams, PoolCache, SchemeKind,
    SchemeStats,
};
use flash_model::{FlashArray, FlashConfig, Geometry, PwlLayer, StringId};
use ftl::{
    poisson_arrivals, FtlConfig, GcBudget, IntegrityConfig, IoOp, IoRequest, LatencyHistogram,
    OrganizationScheme, ParityConfig, PatrolConfig, PatrolOrder, QosClass, QueueModel, Ssd,
    Workload,
};
use host::{Arbitration, HostFrontend, TenantSpec};
use pvcheck::assembly::Assembler;
use pvcheck::overhead;

/// Result rows of Table I-style comparisons: every scheme with its
/// reduction and improvement percentage against the random baseline.
#[derive(Debug, Clone)]
pub struct ComparisonResult {
    /// The random baseline statistics.
    pub baseline: SchemeStats,
    /// Per-scheme statistics, in roster order.
    pub schemes: Vec<SchemeStats>,
}

impl ComparisonResult {
    /// Runs the given roster against the random baseline over a shared
    /// characterization cache.
    ///
    /// The baseline is prepended to the roster so all scheme cells —
    /// baseline included — drain from one work queue.
    #[must_use]
    pub fn run(params: &ExperimentParams, cache: &PoolCache, roster: &[SchemeKind]) -> Self {
        let mut kinds = Vec::with_capacity(roster.len() + 1);
        kinds.push(SchemeKind::Random);
        kinds.extend_from_slice(roster);
        let mut all = run_schemes_parallel(params, cache, &kinds);
        let schemes = all.split_off(1);
        let baseline = all.pop().expect("roster always contains the baseline");
        ComparisonResult { baseline, schemes }
    }
}

/// Table I: the eight organization directions.
#[must_use]
pub fn table1(params: &ExperimentParams, cache: &PoolCache) -> ComparisonResult {
    ComparisonResult::run(params, cache, &SchemeKind::table1_roster())
}

/// Table II: STR-RANK under window sizes 8, 6, 4, 2.
#[must_use]
pub fn table2(params: &ExperimentParams, cache: &PoolCache) -> ComparisonResult {
    let roster = [
        SchemeKind::StrRank(8),
        SchemeKind::StrRank(6),
        SchemeKind::StrRank(4),
        SchemeKind::StrRank(2),
    ];
    ComparisonResult::run(params, cache, &roster)
}

/// Table V / Figure 12: the headline comparison (random, sequential,
/// optimal, QSTR-MED(4), STR-MED(4)).
#[must_use]
pub fn table5(params: &ExperimentParams, cache: &PoolCache) -> ComparisonResult {
    let roster = [
        SchemeKind::Sequential,
        SchemeKind::Optimal(8),
        SchemeKind::QstrMed(4),
        SchemeKind::StrMed(4),
    ];
    ComparisonResult::run(params, cache, &roster)
}

/// Figure 5 data: characterization curves.
#[derive(Debug, Clone)]
pub struct Fig5Data {
    /// `(chip, plane, block, tBERS µs)` per block.
    pub erase_rows: Vec<(u16, u16, u32, f64)>,
    /// `(chip, plane, block, lwl, tPROG µs)` for one block per plane.
    pub program_rows: Vec<(u16, u16, u32, u32, f64)>,
}

/// Figure 5: per-block erase latency across two chips with four planes
/// each, and per-word-line program latency for one block per plane.
#[must_use]
pub fn fig5(seed: u64, blocks_per_plane: u32) -> Fig5Data {
    let config = FlashConfig::builder()
        .chips(2)
        .planes_per_chip(4)
        .blocks_per_plane(blocks_per_plane)
        .pwl_layers(96)
        .strings(4)
        .build();
    let array = FlashArray::new(config.clone(), seed);
    let model = array.latency_model();
    let mut erase_rows = Vec::new();
    let mut program_rows = Vec::new();
    for addr in config.geometry.blocks() {
        erase_rows.push((addr.chip.0, addr.plane.0, addr.block.0, model.erase_latency_us(addr, 0)));
        if addr.block.0 == 25 {
            for lwl in config.geometry.lwls() {
                program_rows.push((
                    addr.chip.0,
                    addr.plane.0,
                    addr.block.0,
                    lwl.0,
                    model.program_latency_us(addr.wl(lwl), 1),
                ));
            }
        }
    }
    Fig5Data { erase_rows, program_rows }
}

/// Figure 6 data: extra latency of every random superblock.
#[derive(Debug, Clone)]
pub struct Fig6Data {
    /// `(superblock index, extra PGM µs, extra ERS µs)` at P/E 0.
    pub per_superblock: Vec<(usize, f64, f64)>,
    /// `(P/E cycle, mean extra PGM µs, mean extra ERS µs)`.
    pub per_pe: Vec<(u32, f64, f64)>,
}

/// Figure 6: the random baseline's extra latency per superblock, and its
/// trend across P/E cycles.
#[must_use]
pub fn fig6(params: &ExperimentParams, cache: &PoolCache) -> Fig6Data {
    let pool = cache.pool(params.group_seeds[0], params.pe_points[0]);
    let sbs = SchemeKind::Random.assembler(params.group_seeds[0]).assemble(&pool);
    let per_superblock = measure_each(&pool, &sbs)
        .into_iter()
        .enumerate()
        .map(|(i, e)| (i, e.program_us, e.erase_us))
        .collect();
    let mut per_pe = Vec::new();
    for &pe in &params.pe_points {
        let single = ExperimentParams { pe_points: vec![pe], ..params.clone() };
        let stats = run_scheme(&single, cache, SchemeKind::Random);
        per_pe.push((pe, stats.extra_pgm_us, stats.extra_ers_us));
    }
    Fig6Data { per_superblock, per_pe }
}

/// A histogram of per-superblock extra program latency.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Scheme name.
    pub name: String,
    /// Bin width, µs.
    pub bin_us: f64,
    /// Count of superblocks per bin (bin i covers `[i*bin, (i+1)*bin)`).
    pub counts: Vec<u32>,
}

/// Figure 13: distribution of extra program latency per scheme.
#[must_use]
pub fn fig13(params: &ExperimentParams, cache: &PoolCache, bin_us: f64) -> Vec<Histogram> {
    let kinds = [
        SchemeKind::Random,
        SchemeKind::Sequential,
        SchemeKind::Optimal(8),
        SchemeKind::QstrMed(4),
    ];
    let pe = params.pe_points[0];
    let pools: Vec<_> = params.group_seeds.iter().map(|&seed| cache.pool(seed, pe)).collect();
    kinds
        .iter()
        .map(|&kind| {
            let mut counts: Vec<u32> = Vec::new();
            for (gi, pool) in pools.iter().enumerate() {
                let sbs = kind.assembler(params.group_seeds[gi]).assemble(pool);
                for e in measure_each(pool, &sbs) {
                    let bin = (e.program_us / bin_us) as usize;
                    if counts.len() <= bin {
                        counts.resize(bin + 1, 0);
                    }
                    counts[bin] += 1;
                }
            }
            Histogram { name: kind.name(), bin_us, counts }
        })
        .collect()
}

/// Figure 14 data: per-superblock extra program latency for STR-MED vs
/// QSTR-MED (sorted ascending), showing their equivalence.
#[derive(Debug, Clone)]
pub struct Fig14Data {
    /// `(rank, STR-MED extra PGM µs, QSTR-MED extra PGM µs, random µs)`.
    pub rows: Vec<(usize, f64, f64, f64)>,
}

/// Figure 14: all superblocks, STR-MED(4) vs QSTR-MED(4).
#[must_use]
pub fn fig14(params: &ExperimentParams, cache: &PoolCache) -> Fig14Data {
    let pool = cache.pool(params.group_seeds[0], params.pe_points[0]);
    let sorted_extras = |kind: SchemeKind| -> Vec<f64> {
        let sbs = kind.assembler(params.group_seeds[0]).assemble(&pool);
        let mut v: Vec<f64> = measure_each(&pool, &sbs).iter().map(|e| e.program_us).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        v
    };
    let str_med = sorted_extras(SchemeKind::StrMed(4));
    let qstr = sorted_extras(SchemeKind::QstrMed(4));
    let random = sorted_extras(SchemeKind::Random);
    let rows = str_med
        .iter()
        .zip(&qstr)
        .zip(&random)
        .enumerate()
        .map(|(i, ((&s, &q), &r))| (i, s, q, r))
        .collect();
    Fig14Data { rows }
}

/// Figure 15 data: latency stability across P/E cycles.
#[derive(Debug, Clone)]
pub struct Fig15Data {
    /// `(P/E, random extra PGM, QSTR extra PGM, random extra ERS, QSTR extra ERS)`.
    pub rows: Vec<(u32, f64, f64, f64, f64)>,
}

/// Figure 15: QSTR-MED's extra latencies vs. the baseline across wear.
#[must_use]
pub fn fig15(params: &ExperimentParams, cache: &PoolCache, pe_points: &[u32]) -> Fig15Data {
    let rows = pe_points
        .iter()
        .map(|&pe| {
            let single = ExperimentParams { pe_points: vec![pe], ..params.clone() };
            let rnd = run_scheme(&single, cache, SchemeKind::Random);
            let qstr = run_scheme(&single, cache, SchemeKind::QstrMed(4));
            (pe, rnd.extra_pgm_us, qstr.extra_pgm_us, rnd.extra_ers_us, qstr.extra_ers_us)
        })
        .collect();
    Fig15Data { rows }
}

/// Overhead numbers (§VI-B-2, §VI-D, Equation 2).
#[derive(Debug, Clone)]
pub struct OverheadData {
    /// STR-MED(4) distance checks per superblock on four pools.
    pub str_med_checks: u64,
    /// QSTR-MED(4) distance checks per superblock on four pools.
    pub qstr_med_checks: u64,
    /// Reduction percentage.
    pub reduction_pct: f64,
    /// `(drive capacity bytes, block bytes, LWLs, metadata bytes)` rows.
    pub space_rows: Vec<(u64, u64, u32, u64)>,
    /// Measured distance checks per assembled superblock from a QSTR run.
    pub measured_checks_per_superblock: f64,
}

/// Computing- and space-overhead analysis.
#[must_use]
pub fn overhead_analysis(params: &ExperimentParams, cache: &PoolCache) -> OverheadData {
    let pool = cache.pool(params.group_seeds[0], params.pe_points[0]);
    let mut qstr = pvcheck::assembly::QstrMed::with_candidates(4);
    let sbs = qstr.assemble(&pool);
    let measured = qstr.distance_checks() as f64 / sbs.len().max(1) as f64;
    let space_rows = vec![
        (1 << 40, 8 << 20, 384, overhead::drive_footprint_bytes(1 << 40, 8 << 20, 384)),
        (2 << 40, 8 << 20, 384, overhead::drive_footprint_bytes(2 << 40, 8 << 20, 384)),
        (1 << 40, 16 << 20, 768, overhead::drive_footprint_bytes(1 << 40, 16 << 20, 768)),
    ];
    OverheadData {
        str_med_checks: overhead::str_med_distance_checks(4, 4),
        qstr_med_checks: overhead::qstr_med_distance_checks(4, 4),
        reduction_pct: overhead::check_reduction_percent(4, 4, 4),
        space_rows,
        measured_checks_per_superblock: measured,
    }
}

/// The device sweeps' roster: the random baseline, PV-blind sequential
/// assembly and QSTR-MED.
const DEVICE_SCHEMES: [OrganizationScheme; 3] = [
    OrganizationScheme::Random,
    OrganizationScheme::Sequential,
    OrganizationScheme::QstrMed { candidates: 4 },
];

/// PV-blind sequential assembly against QSTR-MED: the pair the QoS,
/// parity, fleet and integrity sweeps compare.
const PV_SCHEMES: [OrganizationScheme; 2] =
    [OrganizationScheme::Sequential, OrganizationScheme::QstrMed { candidates: 4 }];

/// Both arbitration mechanisms, swept by the QoS and fleet experiments.
const ARBITRATIONS: [Arbitration; 2] = [Arbitration::RoundRobin, Arbitration::WeightedRoundRobin];

/// The base every device sweep varies: the small-test device over
/// `geometry` with default process variation, organized by `scheme`.
fn device_config(geometry: &Geometry, scheme: OrganizationScheme) -> FtlConfig {
    FtlConfig {
        flash: FlashConfig {
            geometry: geometry.clone(),
            variation: flash_model::VariationConfig::default(),
        },
        scheme,
        ..FtlConfig::small_test()
    }
}

/// End-to-end SSD comparison rows.
#[derive(Debug, Clone)]
pub struct SsdRow {
    /// Organization scheme name.
    pub scheme: String,
    /// Mean host write latency, µs.
    pub write_mean_us: f64,
    /// 99th-percentile host write latency, µs.
    pub write_p99_us: f64,
    /// Write amplification factor.
    pub waf: f64,
    /// Mean extra program latency per super word-line program, µs.
    pub extra_pgm_per_op_us: f64,
    /// Mean extra erase latency per superblock erase, µs.
    pub extra_ers_per_op_us: f64,
    /// Total device busy time, µs.
    pub busy_us: f64,
    /// QSTR-MED distance checks (0 for other schemes).
    pub distance_checks: u64,
}

/// §V-D end-to-end: the same workload against random, sequential and
/// QSTR-MED organization with function-based placement.
///
/// # Panics
///
/// Panics if the simulated device rejects the workload (an internal bug).
#[must_use]
pub fn ssd_experiment(geometry: &Geometry, writes: usize, seed: u64) -> Vec<SsdRow> {
    DEVICE_SCHEMES
        .into_iter()
        .map(|scheme| {
            let config = device_config(geometry, scheme);
            let mut ssd = Ssd::new(config, seed).expect("experiment config is valid");
            let reqs =
                Workload::hot_cold_80_20().generate(&ssd.geometry_info(), writes, seed ^ 0xabc);
            ssd.run(&reqs).expect("workload fits the device");
            let stats = ssd.stats();
            SsdRow {
                scheme: format!("{scheme:?}"),
                write_mean_us: stats.write_latency.mean_us(),
                write_p99_us: stats.write_latency.quantile_us(0.99),
                waf: stats.waf(),
                extra_pgm_per_op_us: stats.extra_program_per_op_us(),
                extra_ers_per_op_us: stats.extra_erase_per_op_us(),
                busy_us: stats.busy_us,
                distance_checks: ssd.distance_checks(),
            }
        })
        .collect()
}

/// One cell of the queueing sweep: an organization scheme replayed under a
/// timing model.
#[derive(Debug, Clone)]
pub struct QueueingRow {
    /// Organization scheme name.
    pub scheme: String,
    /// Timing model name (`Single` or `PerChip`).
    pub queue_model: String,
    /// Mean host write latency (wait + service), µs.
    pub write_mean_us: f64,
    /// 99th-percentile host write latency, µs.
    pub write_p99_us: f64,
    /// Completion time of the last request, µs.
    pub makespan_us: f64,
    /// Sum of per-op service times, µs (model-independent).
    pub service_us: f64,
    /// Peak number of requests in flight.
    pub queue_depth_max: u64,
    /// Mean busy fraction over chip/plane groups + the host channel
    /// (0 under `Single`, which keeps no per-group clocks).
    pub mean_chip_utilization: f64,
    /// Peak busy fraction over chip/plane groups + the host channel.
    pub peak_chip_utilization: f64,
}

/// Queueing sweep: the Table V schemes replayed under both timing models.
///
/// The same Poisson-paced hot/cold stream (with reads folded in) is timed
/// once with the serial device clock (`Single`) and once with per-chip
/// busy-until clocks (`PerChip`). Service times are model-independent, so
/// the interesting deltas are makespan and wait: `PerChip` overlaps
/// independent chips and must finish no later than the serial clock — and
/// well before the sum of per-op service times once the device saturates.
///
/// # Panics
///
/// Panics if the simulated device rejects the workload (an internal bug).
#[must_use]
pub fn queueing_experiment(
    geometry: &Geometry,
    writes: usize,
    seed: u64,
    mean_gap_us: f64,
) -> Vec<QueueingRow> {
    let models = [QueueModel::Single, QueueModel::PerChip];
    let mut rows = Vec::new();
    for scheme in DEVICE_SCHEMES {
        for &queue_model in &models {
            let config = FtlConfig { queue_model, ..device_config(geometry, scheme) };
            let mut ssd = Ssd::new(config, seed).expect("experiment config is valid");
            let mut reqs =
                Workload::hot_cold_80_20().generate(&ssd.geometry_info(), writes, seed ^ 0xabc);
            for (i, r) in reqs.iter_mut().enumerate() {
                if i % 5 == 3 {
                    r.op = IoOp::Read;
                }
            }
            let timed = poisson_arrivals(&reqs, mean_gap_us, seed ^ 0x51);
            ssd.run_timed(&timed).expect("workload fits the device");
            let stats = ssd.stats();
            let util = stats.chip_utilization();
            let peak = util.iter().copied().fold(0.0, f64::max);
            let mean =
                if util.is_empty() { 0.0 } else { util.iter().sum::<f64>() / util.len() as f64 };
            rows.push(QueueingRow {
                scheme: format!("{scheme:?}"),
                queue_model: format!("{queue_model:?}"),
                write_mean_us: stats.write_latency.mean_us(),
                write_p99_us: stats.write_latency.quantile_us(0.99),
                makespan_us: stats.makespan_us,
                service_us: stats.busy_us,
                queue_depth_max: stats.queue_depth_max,
                mean_chip_utilization: mean,
                peak_chip_utilization: peak,
            });
        }
    }
    rows
}

/// One cell of the multi-tenant QoS sweep: one tenant's view of one
/// (scheme, arbitration) configuration.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// Organization scheme name.
    pub scheme: String,
    /// Arbitration mechanism (`rr` or `wrr`).
    pub arbitration: String,
    /// Tenant name.
    pub tenant: String,
    /// QoS class label.
    pub qos: String,
    /// Weighted-round-robin weight.
    pub weight: u32,
    /// Commands completed by this tenant.
    pub completed: u64,
    /// Median end-to-end write latency, µs.
    pub write_p50_us: f64,
    /// 99th-percentile end-to-end write latency, µs.
    pub write_p99_us: f64,
    /// 99th-percentile end-to-end read latency, µs.
    pub read_p99_us: f64,
    /// Mean time from arrival to dispatch, µs.
    pub mean_queue_wait_us: f64,
    /// Highest submission-queue occupancy observed.
    pub depth_high_water: usize,
    /// Arrivals that found the submission queue full.
    pub backpressured: u64,
    /// Per-replicate 99th-percentile write latencies (µs, replicate order)
    /// behind the `write_p99_us` mean — the per-seed view the monotonicity
    /// headline checks.
    pub write_p99_reps_us: Vec<f64>,
}

/// Device-side GC activity accumulated over every cell and replicate of a
/// [`tenants_experiment`] run.
#[derive(Debug, Clone, Default)]
pub struct GcActivity {
    /// Collection passes completed (victims freed).
    pub runs: u64,
    /// GC slices executed (sliced mode only).
    pub slices: u64,
    /// Slices that hit their budget and parked the victim.
    pub yields: u64,
    /// Merged per-slice relocation-time distribution, µs.
    pub slice_us: LatencyHistogram,
    /// Worst single-command GC stall seen on any device, µs.
    pub max_stall_us: f64,
}

/// Multi-tenant QoS sweep: tenant mix × arbitration × organization scheme.
///
/// Three tenants with disjoint LPN ranges share one device through the
/// multi-queue frontend: a latency-critical tenant (weight 4, shallow
/// queue), a standard tenant (weight 2) and a background writer (weight 1,
/// deep queue). Under function-based placement the latency-critical and
/// standard tenants write into *fast* superblocks while the background
/// tenant shares the *slow* end with GC — so QSTR-MED's fast/slow pool
/// split should widen the p99 write-latency gap between the
/// latency-critical and background tenants compared to sequential
/// assembly, which picks members blind to process variation.
///
/// `gc_budget` picks the collector. Under [`GcBudget::Unbounded`] the
/// caller should size the write volume below the GC watermarks: a
/// run-to-completion collection burst costs tens of milliseconds, lands on
/// every tenant alike and buries the pool split's microsecond-scale
/// placement signal in collection luck. Under [`GcBudget::Sliced`] the
/// volume should instead *exceed* the watermarks — that is the whole
/// point: the preemptive collector keeps the latency-critical tail
/// monotone even while the device collects. Each (scheme, arbitration)
/// cell runs five independently seeded replicates (fresh device, fresh
/// arrival jitter) and reports replicate-mean latencies plus the
/// per-replicate p99s behind them.
///
/// `writes_per_tenant` requests per tenant arrive Poisson-paced with a
/// per-tenant mean gap of `3 * mean_gap_us` (aggregate load matches a
/// single stream at `mean_gap_us`).
///
/// # Panics
///
/// Panics if the simulated device rejects the workload (an internal bug).
#[must_use]
pub fn tenants_experiment(
    geometry: &Geometry,
    writes_per_tenant: usize,
    seed: u64,
    mean_gap_us: f64,
    gc_budget: GcBudget,
) -> (Vec<TenantRow>, GcActivity) {
    const REPLICATES: u64 = 5;
    let mut rows = Vec::new();
    let mut gc = GcActivity::default();
    for scheme in PV_SCHEMES {
        for arbitration in ARBITRATIONS {
            let mut cell: Vec<TenantRow> = Vec::new();
            for rep in 0..REPLICATES {
                let rep_seed = seed.wrapping_add(rep.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let config = FtlConfig {
                    queue_model: QueueModel::PerChip,
                    // Collect in arrival gaps if the workload ever does
                    // outgrow the free pool.
                    idle_gc: true,
                    gc_budget,
                    // The sliced cell sustains writes far past device
                    // capacity, so give the collector enough spare blocks
                    // that the high watermark is actually reachable — at
                    // the default 0.25 the compacted footprint plus open
                    // slots caps free space below the watermark and the
                    // backlog never clears — and a wide watermark band so
                    // the budgeted ladder absorbs load bursts before free
                    // space ever reaches the emergency floor.
                    overprovision: match gc_budget {
                        GcBudget::Sliced { .. } => 0.45,
                        GcBudget::Unbounded => 0.25,
                    },
                    gc_low_watermark: match gc_budget {
                        GcBudget::Sliced { .. } => 3,
                        GcBudget::Unbounded => 2,
                    },
                    gc_high_watermark: match gc_budget {
                        GcBudget::Sliced { .. } => 5,
                        GcBudget::Unbounded => 3,
                    },
                    ..device_config(geometry, scheme)
                };
                let ssd = Ssd::new(config, rep_seed).expect("experiment config is valid");
                let info = ssd.geometry_info();
                let span = info.logical_pages / 3;
                let specs = vec![
                    TenantSpec::new("lc", QosClass::LatencyCritical).weight(4).queue_depth(8),
                    TenantSpec::new("std", QosClass::Standard).weight(2).queue_depth(16),
                    TenantSpec::new("bg", QosClass::Background).weight(1).queue_depth(32),
                ];
                let weights: Vec<u32> = specs.iter().map(|s| s.weight).collect();
                let mut front = HostFrontend::new(ssd, specs, arbitration);
                for tenant in 0..3u64 {
                    // Each tenant hammers its own third of the LPN space;
                    // the foreground tenants fold reads in.
                    let mut reqs = Workload::random_write(0.3).generate(
                        &info,
                        writes_per_tenant,
                        rep_seed ^ (tenant * 0x9e37_79b9),
                    );
                    for (i, r) in reqs.iter_mut().enumerate() {
                        r.lpn = (r.lpn + tenant * span).min(info.logical_pages - 1);
                        if tenant < 2 && i % 5 == 3 {
                            r.op = IoOp::Read;
                        }
                    }
                    let timed =
                        poisson_arrivals(&reqs, mean_gap_us * 3.0, rep_seed ^ (0x51 + tenant));
                    front.submit(tenant as usize, &timed);
                }
                front.run().expect("workload fits the device");
                for (t, &weight) in front.all_stats().iter().zip(&weights) {
                    let p99 = t.write_latency.quantile_us(0.99);
                    cell.push(TenantRow {
                        scheme: format!("{scheme:?}"),
                        arbitration: arbitration.label().to_string(),
                        tenant: t.name.clone(),
                        qos: t.qos.label().to_string(),
                        weight,
                        completed: t.completed,
                        write_p50_us: t.write_latency.quantile_us(0.5),
                        write_p99_us: p99,
                        read_p99_us: t.read_latency.quantile_us(0.99),
                        mean_queue_wait_us: t.mean_queue_wait_us(),
                        depth_high_water: t.depth_high_water,
                        backpressured: t.backpressured,
                        write_p99_reps_us: vec![p99],
                    });
                }
                let dev_stats = front.device().stats();
                gc.runs += dev_stats.gc_runs;
                gc.slices += dev_stats.gc_slices;
                gc.yields += dev_stats.gc_yield_count;
                gc.slice_us.merge(&dev_stats.gc_slice_us);
                gc.max_stall_us = gc.max_stall_us.max(dev_stats.gc_stall.max_us());
            }
            // Fold the replicates: latencies and waits average, queue
            // occupancy takes the worst replicate, counts accumulate.
            let tenants = cell.len() / REPLICATES as usize;
            for t in 0..tenants {
                let reps: Vec<&TenantRow> = cell.iter().skip(t).step_by(tenants).collect();
                let n = reps.len() as f64;
                let mean = |f: fn(&TenantRow) -> f64| reps.iter().map(|r| f(r)).sum::<f64>() / n;
                let first = reps[0];
                rows.push(TenantRow {
                    scheme: first.scheme.clone(),
                    arbitration: first.arbitration.clone(),
                    tenant: first.tenant.clone(),
                    qos: first.qos.clone(),
                    weight: first.weight,
                    completed: reps.iter().map(|r| r.completed).sum(),
                    write_p50_us: mean(|r| r.write_p50_us),
                    write_p99_us: mean(|r| r.write_p99_us),
                    read_p99_us: mean(|r| r.read_p99_us),
                    mean_queue_wait_us: mean(|r| r.mean_queue_wait_us),
                    depth_high_water: reps.iter().map(|r| r.depth_high_water).max().unwrap_or(0),
                    backpressured: reps.iter().map(|r| r.backpressured).sum(),
                    write_p99_reps_us: reps.iter().map(|r| r.write_p99_us).collect(),
                });
            }
        }
    }
    (rows, gc)
}

/// One cell of the resilience sweep: a scheme driven over faulty media.
#[derive(Debug, Clone)]
pub struct ResilienceRow {
    /// Organization scheme name.
    pub scheme: String,
    /// Per-P/E-cycle block-kill rate fed to `FaultConfig::with_rate`.
    pub fault_rate: f64,
    /// Mean host write latency, µs.
    pub write_mean_us: f64,
    /// 99th-percentile host write latency, µs.
    pub write_p99_us: f64,
    /// Write amplification factor.
    pub waf: f64,
    /// Mean extra program latency per super word-line program, µs.
    pub extra_pgm_per_op_us: f64,
    /// Blocks permanently retired during the run.
    pub retired_blocks: u64,
    /// Pages rewritten after a program failure took their block.
    pub remapped_writes: u64,
    /// Pages relocated because a read exceeded the retry ladder.
    pub refresh_relocations: u64,
    /// Superblocks that lost at least one member.
    pub degraded_superblocks: u64,
}

/// §VI-C resilience: the Table V schemes under growing media-failure rates.
///
/// Demonstrates graceful degradation — every cell completes, retirement and
/// remap counters grow with the rate, and QSTR-MED keeps its extra-latency
/// advantage over the random baseline even on degrading media.
///
/// # Panics
///
/// Panics if the simulated device rejects the workload (an internal bug —
/// surviving `rates` up to 2% is exactly what this experiment asserts).
#[must_use]
pub fn resilience_experiment(
    geometry: &Geometry,
    writes: usize,
    seed: u64,
    rates: &[f64],
) -> Vec<ResilienceRow> {
    let mut rows = Vec::new();
    for &rate in rates {
        for scheme in DEVICE_SCHEMES {
            let config = FtlConfig {
                fault: flash_model::FaultConfig::with_rate(rate),
                ..device_config(geometry, scheme)
            };
            let mut ssd = Ssd::new(config, seed).expect("experiment config is valid");
            let info = ssd.geometry_info();
            let reqs = Workload::hot_cold_80_20().generate(&info, writes, seed ^ 0xabc);
            ssd.run(&reqs).expect("device degrades gracefully instead of failing");
            // Read back a slice of the written space: on faulty media this
            // drives the ECC consult, refreshing pages past the retry
            // ladder — and proves no write was lost to a failed block.
            for lpn in 0..(info.logical_pages / 2).min(2000) {
                ssd.read(lpn).expect("read path survives faulty media");
            }
            let stats = ssd.stats();
            rows.push(ResilienceRow {
                scheme: format!("{scheme:?}"),
                fault_rate: rate,
                write_mean_us: stats.write_latency.mean_us(),
                write_p99_us: stats.write_latency.quantile_us(0.99),
                waf: stats.waf(),
                extra_pgm_per_op_us: stats.extra_program_per_op_us(),
                retired_blocks: stats.retired_blocks,
                remapped_writes: stats.remapped_writes,
                refresh_relocations: stats.refresh_relocations,
                degraded_superblocks: stats.degraded_superblocks,
            });
        }
    }
    rows
}

/// One cell of the superpage-parity sweep: a scheme driven over faulty
/// media with the RAIN stripe on or off (`repro parity`).
#[derive(Debug, Clone)]
pub struct ParityRow {
    /// Organization scheme name.
    pub scheme: String,
    /// Whether the super-word-line parity stripe was active.
    pub parity: bool,
    /// Per-P/E-cycle block-kill rate fed to `FaultConfig::with_rate`.
    pub fault_rate: f64,
    /// Exported logical capacity, pages — shrinks by one page per super
    /// word-line when parity is on.
    pub logical_pages: u64,
    /// Logical capacity relative to the parity-off twin of the same cell.
    pub capacity_ratio: f64,
    /// Host/GC reads that crossed the retry ladder over the whole cell.
    /// Not comparable across the off/on twins: the parity-on GC checks
    /// relocation reads against the ladder (and rebuilds them), while the
    /// parity-off GC relocates rotten pages without ever noticing.
    pub uncorrectable_reads: u64,
    /// Stripe rebuilds whose XOR verdict matched the lost payload.
    pub rebuilds_ok: u64,
    /// Rebuild attempts that found a second failure in the stripe.
    pub rebuilds_failed: u64,
    /// Reads of the final read-back sweep that crossed the retry ladder —
    /// the same read pattern on both twins, so this column IS comparable.
    pub sweep_uncorrectable: u64,
    /// Pages the final sweep found actually gone: with parity off every
    /// sweep uncorrectable is a loss; with parity on only the failed
    /// rebuilds are.
    pub sweep_lost: u64,
    /// Mean rebuild critical path over all attempts, µs — the slowest
    /// member's sibling-read chain, since members fan out across chips.
    pub mean_rebuild_us: f64,
    /// Mean critical path over *successful* rebuilds only, µs. Failed
    /// attempts read uncorrectable siblings at the full retry ladder, so
    /// the clean regime is reported separately.
    pub mean_rebuild_ok_us: f64,
    /// Mean straggler cost per successful rebuild, µs: critical path minus
    /// the stripe's own mean member chain. The member chains fan out in
    /// parallel, so the rebuild waits exactly this long past the average —
    /// the column where stripe-assembly quality shows, independent of
    /// which pool (fast or slow, hot or cold) the rebuilt stripes sit in.
    pub mean_rebuild_straggler_us: f64,
    /// Pages relocated by the reactive-refresh path.
    pub refresh_relocations: u64,
    /// 99th-percentile host read latency, µs (rebuild time is charged to
    /// the refresh ledger, never this histogram).
    pub read_p99_us: f64,
    /// 99th-percentile host write latency, µs — carries the cost of the
    /// extra parity program per super word-line.
    pub write_p99_us: f64,
}

/// Superpage-parity sweep: parity off/on × scheme × fault rate under the
/// resilience fault injector (ROADMAP item 6's capstone experiment).
///
/// The fault channel is tuned to the regime where parity can act: the
/// weak-block multiplier sits inside the retry ladder's window and RBER
/// is spread across the page types, so a stripe loses its MSB pages while
/// the LSB/CSB siblings stay correctable. Headlines: (a) parity converts
/// otherwise-lost pages into successful rebuilds, at a measured capacity
/// cost of `1/superwl_pages`; (b) QSTR-MED's unified read latencies bound
/// the rebuild critical path — the slowest member chain — below PV-blind
/// sequential assembly's.
///
/// # Panics
///
/// Panics if the simulated device rejects the workload (an internal bug —
/// degrading gracefully under the sweep's fault rates is the point).
#[must_use]
pub fn parity_experiment(
    geometry: &Geometry,
    writes: usize,
    seed: u64,
    rates: &[f64],
) -> Vec<ParityRow> {
    let mut rows = Vec::new();
    for &rate in rates {
        for scheme in PV_SCHEMES {
            let mut off_logical = 0u64;
            for parity in [ParityConfig::Off, ParityConfig::On] {
                let mut fault = flash_model::FaultConfig::with_rate(rate);
                if rate > 0.0 {
                    // Page-granular losses: keep weak-block MSB pages just
                    // past the retry ladder while their LSB/CSB siblings
                    // stay under it — the only regime where a single
                    // parity page can rebuild anything. The wide spread is
                    // the window: MSB reads 1.6× nominal, CSB 1.0×.
                    fault.weak_ber_multiplier = 110.0;
                    fault.page_type_ber_spread = 0.6;
                }
                // Per-block read spread (correlated with program speed, so
                // QSTR-MED's program-latency assembly also unifies reads):
                // the axis that separates the schemes' rebuild critical
                // paths.
                let variation = flash_model::VariationConfig {
                    read_block_sigma_us: 16.0,
                    read_pgm_corr: 0.8,
                    ..flash_model::VariationConfig::default()
                };
                // A shallow retry step keeps the ladder's latency share
                // small next to the per-block spread — the uncorrectable
                // verdict only depends on the ECC budget, never the step —
                // so the rebuild critical path measures stripe assembly,
                // not retry-count quantization noise.
                let retry = flash_model::RetryModel {
                    retry_step_us: 4.0,
                    ..flash_model::RetryModel::default()
                };
                let config = FtlConfig {
                    flash: FlashConfig { geometry: geometry.clone(), variation },
                    scheme,
                    parity,
                    fault,
                    retry,
                    ..FtlConfig::small_test()
                };
                let mut ssd = Ssd::new(config, seed).expect("experiment config is valid");
                let info = ssd.geometry_info();
                if !parity.enabled() {
                    off_logical = info.logical_pages;
                }
                let reqs = Workload::hot_cold_80_20().generate(&info, writes, seed ^ 0xabc);
                ssd.run(&reqs).expect("device degrades gracefully instead of failing");
                // Snapshot before the sweep: run-phase uncorrectables are
                // detection-asymmetric (the parity-on GC checks relocation
                // reads, the parity-off GC can't), so the loss headline is
                // measured on the sweep alone.
                let pre_unc = ssd.stats().uncorrectable_reads;
                let pre_failed = ssd.stats().rebuilds_failed;
                // Read back a slice of the written space: every LPN must
                // answer, and on faulty media the uncorrectable ones drive
                // the rebuild path. Capped below either twin's half-span so
                // the off/on cells sweep the same number of pages.
                for lpn in 0..(info.logical_pages / 2).min(3000) {
                    ssd.read(lpn).expect("read path survives faulty media");
                }
                let stats = ssd.stats();
                let attempts = stats.rebuilds_ok + stats.rebuilds_failed;
                let sweep_uncorrectable = stats.uncorrectable_reads - pre_unc;
                rows.push(ParityRow {
                    scheme: format!("{scheme:?}"),
                    parity: parity.enabled(),
                    fault_rate: rate,
                    logical_pages: info.logical_pages,
                    capacity_ratio: info.logical_pages as f64 / off_logical.max(1) as f64,
                    uncorrectable_reads: stats.uncorrectable_reads,
                    rebuilds_ok: stats.rebuilds_ok,
                    rebuilds_failed: stats.rebuilds_failed,
                    sweep_uncorrectable,
                    sweep_lost: if parity.enabled() {
                        stats.rebuilds_failed - pre_failed
                    } else {
                        sweep_uncorrectable
                    },
                    mean_rebuild_us: stats.rebuild_us / attempts.max(1) as f64,
                    mean_rebuild_ok_us: stats.rebuild_ok_us / stats.rebuilds_ok.max(1) as f64,
                    mean_rebuild_straggler_us: (stats.rebuild_ok_us
                        - stats.rebuild_ok_fanout_us / f64::from(geometry.chips()))
                        / stats.rebuilds_ok.max(1) as f64,
                    refresh_relocations: stats.refresh_relocations,
                    read_p99_us: stats.read_latency.quantile_us(0.99),
                    write_p99_us: stats.write_latency.quantile_us(0.99),
                });
            }
        }
    }
    rows
}

/// One cell of the crash-recovery sweep: a scheme crashed at a
/// deterministic flash-op index and recovered from its OOB metadata.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Organization scheme name.
    pub scheme: String,
    /// Checkpoint interval, in super word-line programs (0 = only the
    /// initial empty checkpoint).
    pub checkpoint_interval: u64,
    /// Host request index at which the injected power loss fired.
    pub crashed_at_request: u64,
    /// Physical pages read by the recovery OOB scan.
    pub scan_pages: u64,
    /// Logical mappings rebuilt from the scan + checkpoint.
    pub recovered_mappings: u64,
    /// Readable pages of torn super word-lines that were discarded.
    pub torn_writes_discarded: u64,
    /// Simulated recovery scan time, µs.
    pub recovery_time_us: f64,
    /// Mapped blocks whose gathered QSTR-MED summary survived the crash
    /// via the persisted seal records (boot characterization is off, so
    /// the seal records are the only possible source).
    pub known_blocks_after: u64,
    /// Whether the recovered mapping matched the RAM mapping at the crash
    /// instant exactly (the durability contract).
    pub durable_ok: bool,
}

/// Crash-recovery sweep: every scheme crashed at the same deterministic
/// flash-op index under several checkpoint intervals, then recovered and
/// driven to the end of the workload.
///
/// Shows two things: recovery cost shrinks as checkpoints tighten (the
/// scan is O(written since the last checkpoint)), and the per-superblock
/// seal records let QSTR-MED resume with its gathered block knowledge
/// without re-characterizing — boot-time characterization is disabled in
/// this experiment, so every known block after recovery was learned from
/// a seal record.
///
/// # Panics
///
/// Panics if the injected crash never fires or the device rejects the
/// workload (either is an internal bug).
#[must_use]
pub fn recovery_experiment(
    geometry: &Geometry,
    writes: usize,
    seed: u64,
    intervals: &[u64],
) -> Vec<RecoveryRow> {
    // One crash point for the whole sweep: every cell dies at the same
    // flash op, so the interval axis isolates the checkpoint effect.
    let crash = ftl::CrashPoint::from_seed(seed, (writes as u64 / 4).max(1));
    let mut rows = Vec::new();
    for scheme in DEVICE_SCHEMES {
        for &interval in intervals {
            let mut config = device_config(geometry, scheme);
            config.precharacterize = false;
            config.spor.checkpoint_interval = interval;
            config.spor.crash = Some(crash);
            let mut ssd = Ssd::new(config, seed).expect("experiment config is valid");
            let info = ssd.geometry_info();
            let reqs = Workload::hot_cold_80_20().generate(&info, writes, seed ^ 0xabc);
            let mut resume = reqs.len();
            for (i, req) in reqs.iter().enumerate() {
                match ssd.write(req.lpn) {
                    Ok(_) => {}
                    Err(ftl::FtlError::PowerLoss) => {
                        resume = i;
                        break;
                    }
                    Err(e) => panic!("workload fits the device: {e}"),
                }
            }
            assert!(resume < reqs.len(), "the injected crash must fire mid-run");
            let ram: Vec<_> = (0..info.logical_pages).map(|l| ssd.mapping().lookup(l)).collect();
            let report = ssd.recover().expect("recovery succeeds");
            let durable_ok =
                (0..info.logical_pages).all(|l| ssd.mapping().lookup(l) == ram[l as usize]);
            let known_blocks_after = {
                let blocks: std::collections::HashSet<_> = (0..info.logical_pages)
                    .filter_map(|l| ssd.mapping().lookup(l))
                    .map(|ppa| ppa.wl.block)
                    .collect();
                blocks.iter().filter(|&&b| ssd.block_manager().knows(b)).count() as u64
            };
            for req in &reqs[resume..] {
                ssd.write(req.lpn).expect("the recovered device keeps working");
            }
            rows.push(RecoveryRow {
                scheme: format!("{scheme:?}"),
                checkpoint_interval: interval,
                crashed_at_request: resume as u64,
                scan_pages: report.scanned_pages,
                recovered_mappings: report.recovered_mappings,
                torn_writes_discarded: report.torn_writes_discarded,
                recovery_time_us: report.scan_us,
                known_blocks_after,
                durable_ok,
            });
        }
    }
    rows
}

/// Ablation: how much each variation source contributes to the random
/// baseline's extra latency (model-level ablation, unique to this repro).
#[must_use]
pub fn ablation(params: &ExperimentParams) -> Vec<(String, f64, f64)> {
    let mut rows = Vec::new();
    let random_under = |cfg: flash_model::VariationConfig, name: &str| {
        let p = ExperimentParams {
            config: FlashConfig { geometry: params.config.geometry.clone(), variation: cfg },
            ..params.clone()
        };
        let s = run_scheme(&p, &p.cache(), SchemeKind::Random);
        (name.to_string(), s.extra_pgm_us, s.extra_ers_us)
    };
    let base = params.config.variation.clone();
    rows.push(random_under(base.clone(), "full model"));
    rows.push(random_under(
        flash_model::VariationConfig { pattern_penalty_us: 0.0, ..base.clone() },
        "no string patterns",
    ));
    rows.push(random_under(
        flash_model::VariationConfig { block_sigma_us: 0.0, outlier_prob: 0.0, ..base.clone() },
        "no block speed variation",
    ));
    rows.push(random_under(
        flash_model::VariationConfig { noise_sigma_us: 0.0, ..base.clone() },
        "no per-WL noise",
    ));
    rows.push(random_under(
        flash_model::VariationConfig {
            layer_group_sigma_us: 0.0,
            chip_offset_sigma_us: 0.0,
            ..base
        },
        "no chip profile variation",
    ));
    rows
}

/// Ablation: QSTR-MED candidate-list depth (the paper fixes 4; this sweeps
/// 1..=8 to show the knee). Returns `(candidates, extra PGM µs, checks per
/// superblock)`.
#[must_use]
pub fn qstr_candidate_sweep(
    params: &ExperimentParams,
    cache: &PoolCache,
) -> Vec<(usize, f64, f64)> {
    let pe = params.pe_points[0];
    let pools: Vec<_> = params.group_seeds.iter().map(|&seed| cache.pool(seed, pe)).collect();
    (1..=8)
        .map(|c| {
            let mut pgm = 0.0;
            let mut n = 0usize;
            let mut checks = 0u64;
            for pool in &pools {
                let mut q = pvcheck::assembly::QstrMed::with_candidates(c);
                let sbs = q.assemble(pool);
                for e in measure_each(pool, &sbs) {
                    pgm += e.program_us;
                }
                n += sbs.len();
                checks += q.distance_checks();
            }
            (c, pgm / n.max(1) as f64, checks as f64 / n.max(1) as f64)
        })
        .collect()
}

/// Ablation: how strongly the erase-program correlation channel drives the
/// Table V erase improvements. Sweeps the model's `ers_pgm_corr` and
/// reports QSTR-MED's extra erase latency vs. the random baseline.
#[must_use]
pub fn ers_corr_ablation(params: &ExperimentParams) -> Vec<(f64, f64, f64)> {
    [0.0, 0.5, 0.8, 0.97]
        .iter()
        .map(|&corr| {
            let variation = flash_model::VariationConfig {
                ers_pgm_corr: corr,
                ..params.config.variation.clone()
            };
            let p = ExperimentParams {
                config: FlashConfig { geometry: params.config.geometry.clone(), variation },
                ..params.clone()
            };
            // Each correlation variant is a different model, so it gets its
            // own cache — but random and QSTR-MED share it.
            let cache = p.cache();
            let rnd = run_scheme(&p, &cache, SchemeKind::Random);
            let qstr = run_scheme(&p, &cache, SchemeKind::QstrMed(4));
            (corr, rnd.extra_ers_us, qstr.extra_ers_us)
        })
        .collect()
}

/// §III characterization statistics: per-pool means/spreads, the
/// erase-program correlation and the same-offset similarity premise.
#[must_use]
pub fn pool_stats(
    params: &ExperimentParams,
    cache: &PoolCache,
) -> pvcheck::analysis::PoolStatistics {
    let pool = cache.pool(params.group_seeds[0], params.pe_points[0]);
    pvcheck::analysis::pool_statistics(&pool)
}

/// Read-retry sensitivity (§VI-C's failure-rate axis): mean page-read
/// latency and retry rounds as wear and retention grow.
/// Returns `(pe, retention_hours, mean read µs, mean retries)`.
#[must_use]
pub fn retry_sensitivity(seed: u64) -> Vec<(u32, f64, f64, f64)> {
    let config = FlashConfig::builder().blocks_per_plane(16).pwl_layers(24).build();
    let retry = flash_model::RetryModel::default();
    let mut out = Vec::new();
    for &(pe, retention) in
        &[(0u32, 0.0f64), (1000, 1000.0), (3000, 1000.0), (3000, 10_000.0), (8000, 10_000.0)]
    {
        let mut array = FlashArray::new(config.clone(), seed);
        let payload = vec![0u64; config.geometry.pages_per_lwl() as usize];
        let mut total_lat = 0.0;
        let mut total_retries = 0.0;
        let mut n = 0u32;
        for addr in config.geometry.blocks().take(16) {
            array.age_block(addr, pe).expect("address in range");
            array.erase_block(addr).expect("erase");
            for lwl in config.geometry.lwls().take(8) {
                array.program_wl(addr.wl(lwl), &payload).expect("program");
            }
            for lwl in config.geometry.lwls().take(8) {
                let page = addr.wl(lwl).page(flash_model::PageType::Lsb);
                let (_, lat, retries) = array
                    .read_page_with_retries(page, retention, &retry)
                    .expect("page was programmed");
                total_lat += lat;
                total_retries += f64::from(retries);
                n += 1;
            }
        }
        out.push((pe, retention, total_lat / f64::from(n), total_retries / f64::from(n)));
    }
    out
}

/// Sanity helper for Figure 5's "fast strings really are faster" claim:
/// mean tPROG split by the model's fast/slow string marking.
#[must_use]
pub fn string_speed_split(seed: u64) -> (f64, f64) {
    let config = FlashConfig::small_test();
    let array = FlashArray::new(config.clone(), seed);
    let model = array.latency_model();
    let geo = &config.geometry;
    let (mut fast, mut nfast, mut slow, mut nslow) = (0.0, 0u32, 0.0, 0u32);
    for addr in geo.blocks().take(32) {
        for l in 0..geo.pwl_layers() {
            let mask = model.fast_strings(addr, PwlLayer(l));
            for s in 0..geo.strings() {
                let t = model.program_latency_us(addr.wl(geo.lwl_of(PwlLayer(l), StringId(s))), 0);
                if mask.contains(s) {
                    fast += t;
                    nfast += 1;
                } else {
                    slow += t;
                    nslow += 1;
                }
            }
        }
    }
    (fast / f64::from(nfast), slow / f64::from(nslow))
}

/// One cell of the fleet sweep: an organization scheme × arbitration
/// policy replayed over every device of a sharded fleet.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Organization scheme name.
    pub scheme: String,
    /// Arbitration mechanism (`rr` or `wrr`).
    pub arbitration: String,
    /// Devices in the fleet.
    pub devices: usize,
    /// Logical users sharded across the fleet.
    pub users: u64,
    /// Commands completed across the fleet.
    pub commands: u64,
    /// Fleet-wide p99 over all sampled command latencies, µs.
    pub fleet_p99_us: f64,
    /// Fleet-wide p999, µs — the tail the scheme comparison headlines.
    pub fleet_p999_us: f64,
    /// Fleet-wide p9999, µs (nearest-rank; see `LatencyHistogram::fold`).
    pub fleet_p9999_us: f64,
    /// Worst command latency anywhere in the fleet, µs.
    pub max_us: f64,
    /// The unluckiest device's p99, µs.
    pub max_device_p99_us: f64,
    /// The median device's p99, µs.
    pub median_device_p99_us: f64,
    /// Device skew: max device p99 over median device p99.
    pub device_skew: f64,
    /// Arrivals that found a submission queue full, fleet-wide.
    pub backpressured: u64,
    /// Foreground GC slices executed, fleet-wide.
    pub gc_slices: u64,
}

/// The fleet device configuration: the GC-active sliced-collection shape
/// of [`tenants_experiment`], with the organization scheme as the swept
/// axis.
fn fleet_device_config(scheme: OrganizationScheme) -> FtlConfig {
    FtlConfig {
        scheme,
        queue_model: QueueModel::PerChip,
        idle_gc: true,
        gc_budget: GcBudget::Sliced { slice_us: 300.0 },
        // Same rationale as the sliced tenants cell: the sharded streams
        // overwrite each device's logical space several times, so the
        // collector needs reachable watermarks and a wide band.
        overprovision: 0.45,
        gc_low_watermark: 3,
        gc_high_watermark: 5,
        ..FtlConfig::small_test()
    }
}

/// Aggregate mean interarrival gap per device, µs: each shard sees one
/// op roughly every `DEVICE_GAP_US` µs regardless of how many users the
/// sweep shards onto it ([`fleet_experiment`] scales the per-user gap by
/// the user count). Sized for a long steady state where every host write
/// also carries its share of GC relocation: burst trains roughly halve
/// the realized gap, and the effective per-op service cost with the
/// collector in equilibrium is a few hundred µs — 900 keeps utilization
/// high enough that queueing amplifies placement quality without tipping
/// into backlog meltdown, where the tail measures makespan instead.
const DEVICE_GAP_US: f64 = 900.0;

/// Fleet-scale sweep: organization scheme × arbitration over a sharded
/// multi-user workload (PR 8's tentpole experiment).
///
/// `users` logical users — Zipfian footprints, heavy-tailed op counts,
/// burst trains, diurnal arrival swing — are hashed across `devices`
/// identical GC-active devices ([`fleet_device_config`]). Each cell
/// replays the *same* sharded workload (the stream is a pure function of
/// the fleet seed, never of the scheme or arbitration), so the
/// QSTR-MED-vs-sequential delta isolates placement quality at fleet
/// scale: the fleet p999/p9999 and the per-device skew are the headline
/// columns. `workers` sizes the replay pool (`0` = one per core) and
/// never affects the rows — the reduction is canonical-order.
///
/// # Panics
///
/// Panics if the simulated devices reject the workload (an internal bug).
#[must_use]
pub fn fleet_experiment(
    users: u64,
    devices: usize,
    mean_ops_per_user: f64,
    seed: u64,
    workers: usize,
) -> Vec<FleetRow> {
    let mut workload = fleet::FleetWorkload::new(users, devices);
    workload.mean_ops_per_user = mean_ops_per_user;
    // Per-user pacing is derived from a per-*device* aggregate gap so the
    // offered load per shard is invariant to fleet sizing: busy enough
    // that queueing amplifies placement quality, but below saturation —
    // an overloaded queue's tail measures backlog, not placement.
    let users_per_device = (users as f64 / devices as f64).max(1.0);
    workload.mean_gap_us = DEVICE_GAP_US * users_per_device;
    // Stationary arrivals: spread user starts over one stream length so
    // the first ops don't pile into a t = 0 stampede (at a million users
    // that opening burst alone would saturate every shard for minutes).
    workload.start_spread_us = workload.mean_gap_us * workload.mean_ops_per_user.max(1.0);
    let mut rows = Vec::new();
    for scheme in PV_SCHEMES {
        for arbitration in ARBITRATIONS {
            let config = fleet::FleetConfig {
                device_config: fleet_device_config(scheme),
                workload: workload.clone(),
                fleet_seed: seed,
                arbitration,
                workers,
            };
            let report = fleet::run_fleet(&config).expect("fleet workload fits the devices");
            rows.push(FleetRow {
                scheme: format!("{scheme:?}"),
                arbitration: arbitration.label().to_string(),
                devices,
                users,
                commands: report.total_commands,
                fleet_p99_us: report.p99_us,
                fleet_p999_us: report.p999_us,
                fleet_p9999_us: report.p9999_us,
                max_us: report.max_us,
                max_device_p99_us: report.max_device_p99_us,
                median_device_p99_us: report.median_device_p99_us,
                device_skew: report.device_skew(),
                backpressured: report.devices.iter().map(|d| d.backpressured).sum(),
                gc_slices: report.devices.iter().map(|d| d.gc_slices).sum(),
            });
        }
    }
    rows
}

/// One cell of the data-integrity sweep (`repro integrity`).
#[derive(Debug, Clone)]
pub struct IntegrityRow {
    /// Organization scheme name.
    pub scheme: String,
    /// Patrol variant: `off`, `blind` (sealed order) or `slow-first`
    /// (PV-aware: slow-pool superblocks scanned before fast ones).
    pub patrol: String,
    /// Patrol interval, µs of device clock (0 when patrol is off).
    pub interval_us: f64,
    /// Retention acceleration, hours of simulated retention per µs of
    /// device clock.
    pub accel_h_per_us: f64,
    /// Uncorrectable cold reads over the run — the number patrol exists
    /// to drive to zero. (Hot pages churn too fast to rot, so every
    /// uncorrectable read lands on the cold set.)
    pub cold_uncorrectable: u64,
    /// Pages the scrubber refreshed proactively.
    pub patrol_refreshes: u64,
    /// Pages the scrubber examined.
    pub patrol_scanned_pages: u64,
    /// Complete patrol passes.
    pub patrol_passes: u64,
    /// Idle-gap time the scrubber used, µs.
    pub patrol_us: f64,
    /// Relocation time spent on in-path (reactive) refreshes, µs.
    pub refresh_us: f64,
    /// Final device clock, µs — the run's total aging exposure (patrol and
    /// refresh work advance the clock too, so protected cells age more).
    pub clock_us: f64,
    /// 99th-percentile host read latency, µs.
    pub read_p99_us: f64,
}

/// Device configuration of one integrity cell: integrity tracking with the
/// given retention acceleration and patrol variant on the small-test base.
fn integrity_config(
    geometry: &Geometry,
    scheme: OrganizationScheme,
    accel: f64,
    patrol: PatrolConfig,
) -> FtlConfig {
    FtlConfig {
        integrity: IntegrityConfig { track: true, retention_hours_per_us: accel, patrol },
        // Generous spare area keeps GC cheap: refresh relocations must not
        // cascade into collection storms that dominate the aging signal.
        overprovision: 0.45,
        gc_low_watermark: 3,
        gc_high_watermark: 5,
        ..device_config(geometry, scheme)
    }
}

/// Inter-arrival gap of the integrity workload, µs: comfortably above the
/// worst per-command service time (a full retry ladder plus a GC slice) so
/// the queue never grows and every command leaves an idle gap the scrubber
/// can use. The gap sets the run's total aging exposure — the device clock
/// tracks wall time, idle included — but it does so *identically* for
/// every cell (same op count × same gap), so off/blind/slow-first compare
/// at equal age.
const INTEGRITY_GAP_US: f64 = 500.0;

/// Drives one integrity cell: a hot working set churns in the fast pool
/// (standard class) while a cold set, written once as background traffic,
/// rots in the slow pool; cold pages are read back round-robin throughout
/// the steady state, so the uncorrectable count measures how well the
/// scrubber keeps ahead of retention while the device keeps serving.
#[allow(clippy::too_many_arguments)]
fn run_integrity_cell(
    geometry: &Geometry,
    scheme: OrganizationScheme,
    accel: f64,
    patrol: PatrolConfig,
    label: &str,
    interval_us: f64,
    hot_writes: usize,
    seed: u64,
) -> IntegrityRow {
    let config = integrity_config(geometry, scheme, accel, patrol);
    let mut ssd = Ssd::new(config, seed).expect("integrity config is valid");
    let info = ssd.geometry_info();
    let cold_n = info.logical_pages / 4;
    let hot_n = (info.logical_pages / 4).max(1);
    let hot_base = cold_n;
    let hot_lpn = |i: usize| hot_base + (i as u64).wrapping_mul(7919) % hot_n;
    let mut t = 0.0;
    let mut step = |ssd: &mut Ssd, op: IoOp, lpn: u64, class: QosClass| {
        ssd.timed_step(t, IoRequest { op, lpn }, class).expect("integrity workload fits");
        t += INTEGRITY_GAP_US;
    };
    ssd.timed_begin();
    // Warm-up churn seals fast-pool superblocks ahead of the cold data, so
    // blind (sealed-order) patrol has hot media to wade through first.
    for i in 0..hot_writes / 4 {
        step(&mut ssd, IoOp::Write, hot_lpn(i), QosClass::Standard);
    }
    // The cold set: written once as background traffic (slow pool under
    // function-based placement), never rewritten by the host.
    for lpn in 0..cold_n {
        step(&mut ssd, IoOp::Write, lpn, QosClass::Background);
    }
    // The long steady state: the cold data ages on the wall clock while
    // hot churn keeps the device busy, with every fourth op reading one
    // cold page round-robin. Each of those reads is the moment of truth —
    // a cold page the scrubber refreshed in time reads clean; one that
    // rotted past the retry ladder costs an uncorrectable-read refresh.
    let mut cold_cursor = 0u64;
    for i in hot_writes / 4..hot_writes {
        if i % 4 == 0 && cold_n > 0 {
            step(&mut ssd, IoOp::Read, cold_cursor, QosClass::Standard);
            cold_cursor = (cold_cursor + 1) % cold_n;
        } else {
            step(&mut ssd, IoOp::Write, hot_lpn(i), QosClass::Standard);
        }
    }
    ssd.timed_end();
    let clock_us = ssd.device_clock_us();
    let stats = ssd.stats();
    IntegrityRow {
        scheme: format!("{scheme:?}"),
        patrol: label.to_string(),
        interval_us,
        accel_h_per_us: accel,
        cold_uncorrectable: stats.uncorrectable_reads,
        patrol_refreshes: stats.patrol_refreshes,
        patrol_scanned_pages: stats.patrol_scanned_pages,
        patrol_passes: stats.patrol_passes,
        patrol_us: stats.patrol_us,
        refresh_us: stats.refresh_us,
        clock_us,
        read_p99_us: stats.read_latency.quantile_us(0.99),
    }
}

/// Data-integrity sweep: patrol variant × patrol interval × retention
/// acceleration × organization scheme, on the hot-churn/cold-tail workload
/// of [`run_integrity_cell`].
///
/// Two headlines: patrol eliminates the uncorrectable reads the no-patrol
/// cell suffers on the aged cold tail, and the PV-aware slow-pool-first
/// scan order protects the cold data at least as well as a blind
/// sealed-order scan of the same budget (the slow pool is scanned first,
/// so cold pages wait at most a pool's worth of scanning per pass instead
/// of a full pass).
///
/// # Panics
///
/// Panics if the simulated device rejects the workload (an internal bug).
#[must_use]
pub fn integrity_experiment(
    geometry: &Geometry,
    hot_writes: usize,
    seed: u64,
    accels: &[f64],
    intervals: &[f64],
) -> Vec<IntegrityRow> {
    let mut variants: Vec<(String, f64, PatrolConfig)> =
        vec![("off".to_string(), 0.0, PatrolConfig::Off)];
    for &interval_us in intervals {
        for (name, order) in
            [("blind", PatrolOrder::Blind), ("slow-first", PatrolOrder::SlowPoolFirst)]
        {
            variants.push((
                name.to_string(),
                interval_us,
                // A deliberately thin slice: the pass stretches over many
                // idle gaps, so *where* a pass starts scanning — scan order
                // — decides which pages it reaches before they rot.
                PatrolConfig::On { interval_us, slice_us: 60.0, refresh_fraction: 0.5, order },
            ));
        }
    }
    let mut rows = Vec::new();
    for scheme in PV_SCHEMES {
        for &accel in accels {
            for (label, interval_us, patrol) in &variants {
                rows.push(run_integrity_cell(
                    geometry,
                    scheme,
                    accel,
                    *patrol,
                    label,
                    *interval_us,
                    hot_writes,
                    seed,
                ));
            }
        }
    }
    rows
}

/// Fleet soak: the sharded multi-user workload replayed across `devices`
/// GC-active shards with integrity tracking, accelerated aging and the
/// PV-aware scrubber all live, ending in a full read-back sweep of every
/// shard. The headline is the invariant, not a latency number:
/// [`fleet::SoakReport::no_data_loss`] — every live logical page reads
/// back, and every read that crossed the uncorrectable limit was refreshed
/// in-path.
///
/// # Panics
///
/// Panics if the simulated devices reject the workload (an internal bug).
#[must_use]
pub fn soak_experiment(users: u64, devices: usize, seed: u64, workers: usize) -> fleet::SoakReport {
    let mut device_config = fleet_device_config(OrganizationScheme::QstrMed { candidates: 4 });
    device_config.integrity = IntegrityConfig {
        track: true,
        retention_hours_per_us: 0.003,
        patrol: PatrolConfig::On {
            interval_us: 20_000.0,
            slice_us: 400.0,
            refresh_fraction: 0.5,
            order: PatrolOrder::SlowPoolFirst,
        },
    };
    run_soak(device_config, users, devices, seed, workers)
}

/// The fleet soak of [`soak_experiment`] with the superpage parity stripe
/// active on every shard: same sharded aging workload, same scrubber,
/// one page per super word-line given up to XOR parity. The patrol pass
/// verifies every sealed stripe's parity during its existing scan
/// (`parity_verified` / `parity_mismatch`), and the hardened
/// [`fleet::SoakReport::no_data_loss`] additionally requires that no
/// rebuild found a double failure.
///
/// Retention ages a whole stripe in lockstep, so a rebuild can only save
/// a page the scrubber *almost* caught — anything long past the ladder
/// has siblings past it too, and counts as real loss. The soak therefore
/// pairs the stripe with a patrol budget that actually beats its aging
/// rate ([`soak_experiment`]'s deliberately loses that race and leans on
/// reactive refresh, which parity-off can afford): milder acceleration,
/// a denser patrol cadence, and the RBER page-type spread so the MSB
/// pages the patrol chases rot ahead of their stripe siblings.
///
/// # Panics
///
/// Panics if the simulated devices reject the workload (an internal bug).
#[must_use]
pub fn parity_soak_experiment(
    users: u64,
    devices: usize,
    seed: u64,
    workers: usize,
) -> fleet::SoakReport {
    let mut device_config = fleet_device_config(OrganizationScheme::QstrMed { candidates: 4 });
    device_config.parity = ParityConfig::On;
    device_config.fault.page_type_ber_spread = 0.35;
    device_config.integrity = IntegrityConfig {
        track: true,
        retention_hours_per_us: 0.0015,
        patrol: PatrolConfig::On {
            interval_us: 10_000.0,
            slice_us: 2_000.0,
            refresh_fraction: 0.35,
            order: PatrolOrder::SlowPoolFirst,
        },
    };
    run_soak(device_config, users, devices, seed, workers)
}

/// The workload both fleet soaks replay: `users`, each with a 20 ms mean
/// gap, sharded over `devices` copies of `device_config` under weighted
/// round-robin, ending in a read-back sweep of every shard.
fn run_soak(
    device_config: FtlConfig,
    users: u64,
    devices: usize,
    seed: u64,
    workers: usize,
) -> fleet::SoakReport {
    let mut workload = fleet::FleetWorkload::new(users, devices);
    workload.mean_gap_us = 20_000.0;
    let config = fleet::FleetConfig {
        device_config,
        workload,
        fleet_seed: seed,
        arbitration: Arbitration::WeightedRoundRobin,
        workers,
    };
    fleet::run_fleet_soak(&config).expect("fleet soak fits the devices")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_runs_quickly_on_small_params() {
        let params = ExperimentParams::quick();
        let r = table2(&params, &params.cache());
        assert_eq!(r.schemes.len(), 4);
        for s in &r.schemes {
            assert!(s.extra_pgm_us <= r.baseline.extra_pgm_us * 1.05, "{s:?}");
        }
    }

    #[test]
    fn fig5_produces_curves() {
        let d = fig5(1, 64);
        assert_eq!(d.erase_rows.len(), 2 * 4 * 64);
        assert_eq!(d.program_rows.len(), 2 * 4 * 384);
        assert!(d.erase_rows.iter().all(|&(_, _, _, t)| t > 0.0));
    }

    #[test]
    fn fig6_reports_every_superblock() {
        let params = ExperimentParams::quick();
        let d = fig6(&params, &params.cache());
        assert_eq!(d.per_superblock.len(), 96);
        assert_eq!(d.per_pe.len(), 1);
    }

    #[test]
    fn fig13_histograms_cover_all_superblocks() {
        let params = ExperimentParams::quick();
        let hists = fig13(&params, &params.cache(), 1000.0);
        for h in &hists {
            let total: u32 = h.counts.iter().sum();
            assert_eq!(total, 96, "{}", h.name);
        }
    }

    #[test]
    fn fig14_curves_align() {
        let params = ExperimentParams::quick();
        let d = fig14(&params, &params.cache());
        assert_eq!(d.rows.len(), 96);
        // Sorted ascending.
        assert!(d.rows.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn overhead_matches_paper_constants() {
        let params = ExperimentParams::quick();
        let o = overhead_analysis(&params, &params.cache());
        assert_eq!(o.str_med_checks, 1536);
        assert_eq!(o.qstr_med_checks, 12);
        assert!((o.reduction_pct - 99.22).abs() < 0.01);
        assert!(o.measured_checks_per_superblock <= 12.0);
    }

    #[test]
    fn string_split_shows_pattern() {
        let (fast, slow) = string_speed_split(3);
        assert!(slow > fast);
    }

    #[test]
    fn candidate_sweep_improves_then_plateaus() {
        let params = ExperimentParams::quick();
        let rows = qstr_candidate_sweep(&params, &params.cache());
        assert_eq!(rows.len(), 8);
        // Deeper candidate lists never cost accuracy catastrophically and
        // check counts grow linearly.
        assert!(rows[7].1 <= rows[0].1 * 1.02, "c=8 {} vs c=1 {}", rows[7].1, rows[0].1);
        assert!(rows[7].2 > rows[0].2);
    }

    #[test]
    fn ers_corr_drives_erase_gains() {
        let params = ExperimentParams::quick();
        let rows = ers_corr_ablation(&params);
        let gain = |r: &(f64, f64, f64)| r.1 - r.2;
        // With zero correlation QSTR-MED cannot unify erase latency; with
        // the calibrated correlation it clearly can.
        assert!(gain(&rows[3]) > gain(&rows[0]) + 1.0, "{rows:?}");
    }

    #[test]
    fn pool_stats_reflect_model_structure() {
        let params = ExperimentParams::quick();
        let stats = pool_stats(&params, &params.cache());
        assert!(stats.bers_pgm_correlation > 0.2);
        assert!(stats.offset_similarity_holds());
    }

    #[test]
    fn queueing_experiment_overlaps_chips() {
        let geo = Geometry::new(4, 1, 24, 8, 4, flash_model::CellType::Tlc);
        let rows = queueing_experiment(&geo, 8_000, 7, 30.0);
        assert_eq!(rows.len(), 6);
        for pair in rows.chunks(2) {
            let (single, per_chip) = (&pair[0], &pair[1]);
            assert_eq!(single.queue_model, "Single");
            assert_eq!(per_chip.queue_model, "PerChip");
            // Service is model-independent; only the clocks move.
            assert_eq!(single.service_us.to_bits(), per_chip.service_us.to_bits());
            assert!(per_chip.makespan_us <= single.makespan_us, "{}", per_chip.scheme);
            // At a 30 µs arrival gap the device saturates, so overlapping
            // chips must beat the serial sum of service times.
            assert!(per_chip.makespan_us < per_chip.service_us, "{}", per_chip.scheme);
            assert!(per_chip.peak_chip_utilization <= 1.0 + 1e-9);
            assert!(per_chip.mean_chip_utilization > 0.0);
            assert_eq!(single.peak_chip_utilization, 0.0, "Single keeps no per-group clocks");
        }
    }

    #[test]
    fn recovery_sweep_is_exact_and_checkpoints_bound_the_scan() {
        let geo = Geometry::new(4, 1, 24, 8, 4, flash_model::CellType::Tlc);
        let rows = recovery_experiment(&geo, 8_000, 7, &[0, 128]);
        assert_eq!(rows.len(), 6, "two intervals x three schemes");
        for r in &rows {
            assert!(r.durable_ok, "{}: recovery must reproduce the RAM mapping", r.scheme);
            assert!(r.scan_pages > 0, "{}: the crash left dirty superblocks", r.scheme);
            assert!(r.recovered_mappings > 0);
            assert!(r.recovery_time_us > 0.0);
        }
        for pair in rows.chunks(2) {
            let (never, tight) = (&pair[0], &pair[1]);
            assert_eq!(never.checkpoint_interval, 0);
            assert_eq!(tight.checkpoint_interval, 128);
            // Same scheme, same crash op: the request index must agree and
            // the checkpointed scan can only be smaller.
            assert_eq!(never.crashed_at_request, tight.crashed_at_request);
            assert!(
                tight.scan_pages <= never.scan_pages,
                "{}: checkpointing bounds the scan ({} vs {})",
                tight.scheme,
                tight.scan_pages,
                never.scan_pages
            );
        }
        // Boot characterization is off in this experiment, so known blocks
        // after recovery prove the seal records carried QSTR-MED's gathered
        // state across the power loss.
        let qstr = rows.iter().find(|r| r.scheme.starts_with("QstrMed")).unwrap();
        assert!(qstr.known_blocks_after > 0, "seal records restore gathered summaries");
    }

    #[test]
    fn retry_sensitivity_grows_with_wear() {
        let rows = retry_sensitivity(5);
        let fresh = rows[0];
        let worn = *rows.last().unwrap();
        assert!(worn.2 > fresh.2, "read latency should grow: {fresh:?} -> {worn:?}");
        assert!(worn.3 > 0.0, "worn pages should retry");
    }
}
