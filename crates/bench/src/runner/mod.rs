//! Shared experiment machinery: scheme dispatch, group averaging and the
//! extra-latency statistics every table reports.
//!
//! Characterization is the expensive part, so it lives behind a
//! [`PoolCache`] that every entry point takes. A whole Table-I-shaped run —
//! nine schemes over the same groups and P/E points — then characterizes
//! each `(group_seed, pe)` pool exactly once; callers that want a private
//! cache pass [`ExperimentParams::cache`].

mod cache;

pub use cache::PoolCache;

use flash_model::{FlashArray, FlashConfig};
use pvcheck::assembly::{
    Assembler, LatencySortAssembly, OptimalAssembly, QstrMed, RandomAssembly, RankAssembly,
    RankStrategy, SequentialAssembly, SortKey,
};
use pvcheck::{BlockPool, Characterizer, ExtraLatency, Superblock};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Which organization scheme to run (CLI-friendly dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Random baseline.
    Random,
    /// Same block offset on every chip.
    Sequential,
    /// Sort pools by erase latency and zip.
    ErsLatency,
    /// Sort pools by program-latency sum and zip.
    PgmLatency,
    /// Windowed brute force on the real objective.
    Optimal(usize),
    /// Windowed LWL-rank distance.
    LwlRank(usize),
    /// Windowed PWL-rank distance.
    PwlRank(usize),
    /// Windowed STR-rank distance.
    StrRank(usize),
    /// Windowed STR-median (1-bit) distance.
    StrMed(usize),
    /// The practical on-demand scheme.
    QstrMed(usize),
}

impl SchemeKind {
    /// Builds the assembler for this scheme. Random uses `seed`.
    #[must_use]
    pub fn assembler(self, seed: u64) -> Box<dyn Assembler> {
        match self {
            SchemeKind::Random => Box::new(RandomAssembly::new(seed)),
            SchemeKind::Sequential => Box::new(SequentialAssembly::new()),
            SchemeKind::ErsLatency => Box::new(LatencySortAssembly::new(SortKey::Erase)),
            SchemeKind::PgmLatency => Box::new(LatencySortAssembly::new(SortKey::Program)),
            SchemeKind::Optimal(w) => Box::new(OptimalAssembly::new(w)),
            SchemeKind::LwlRank(w) => Box::new(RankAssembly::new(RankStrategy::Lwl, w)),
            SchemeKind::PwlRank(w) => Box::new(RankAssembly::new(RankStrategy::Pwl, w)),
            SchemeKind::StrRank(w) => Box::new(RankAssembly::new(RankStrategy::Str, w)),
            SchemeKind::StrMed(w) => Box::new(RankAssembly::new(RankStrategy::StrMedian, w)),
            SchemeKind::QstrMed(c) => Box::new(QstrMed::with_candidates(c)),
        }
    }

    /// Paper-style display name.
    #[must_use]
    pub fn name(self) -> String {
        self.assembler(0).name()
    }

    /// The full roster of Table I directions (plus QSTR-MED).
    #[must_use]
    pub fn table1_roster() -> Vec<SchemeKind> {
        vec![
            SchemeKind::Sequential,
            SchemeKind::ErsLatency,
            SchemeKind::PgmLatency,
            SchemeKind::Optimal(8),
            SchemeKind::LwlRank(8),
            SchemeKind::PwlRank(8),
            SchemeKind::StrRank(8),
            SchemeKind::StrMed(4),
        ]
    }
}

/// Aggregate extra-latency statistics of one scheme over one or more runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeStats {
    /// Scheme display name.
    pub name: String,
    /// Mean extra program latency per superblock, µs.
    pub extra_pgm_us: f64,
    /// Mean extra erase latency per superblock, µs.
    pub extra_ers_us: f64,
    /// Superblocks measured.
    pub superblocks: usize,
}

impl SchemeStats {
    /// Reduction of this scheme's extra program latency vs. a baseline, µs.
    #[must_use]
    pub fn pgm_reduction_us(&self, baseline: &SchemeStats) -> f64 {
        baseline.extra_pgm_us - self.extra_pgm_us
    }

    /// Improvement percentage vs. a baseline (the paper's "Imp. %").
    #[must_use]
    pub fn pgm_improvement_pct(&self, baseline: &SchemeStats) -> f64 {
        if baseline.extra_pgm_us == 0.0 {
            return 0.0;
        }
        self.pgm_reduction_us(baseline) / baseline.extra_pgm_us * 100.0
    }

    /// Improvement percentage of extra erase latency vs. a baseline.
    #[must_use]
    pub fn ers_improvement_pct(&self, baseline: &SchemeStats) -> f64 {
        if baseline.extra_ers_us == 0.0 {
            return 0.0;
        }
        (baseline.extra_ers_us - self.extra_ers_us) / baseline.extra_ers_us * 100.0
    }
}

/// Parameters shared by the batch experiments.
#[derive(Debug, Clone)]
pub struct ExperimentParams {
    /// Flash configuration per group (geometry + variation).
    pub config: FlashConfig,
    /// One seed per independent 4-pool group (the paper's 24 chips = 6
    /// groups).
    pub group_seeds: Vec<u64>,
    /// P/E points to measure at (the paper uses 0..3000).
    pub pe_points: Vec<u32>,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            config: FlashConfig::paper_platform(),
            group_seeds: (0..6).collect(),
            pe_points: (0..=3000).step_by(600).collect(),
        }
    }
}

impl ExperimentParams {
    /// A fast variant for smoke tests: one small group, one P/E point.
    #[must_use]
    pub fn quick() -> Self {
        let config = FlashConfig::builder().blocks_per_plane(96).pwl_layers(24).build();
        ExperimentParams { config, group_seeds: vec![0], pe_points: vec![0] }
    }

    /// Characterized pools of every group at the given P/E point.
    ///
    /// Uncached — every call re-characterizes. Batch experiments go through
    /// [`ExperimentParams::cache`] instead.
    #[must_use]
    pub fn pools_at(&self, pe: u32) -> Vec<BlockPool> {
        let chr = Characterizer::new(&self.config);
        self.group_seeds
            .iter()
            .map(|&seed| {
                let array = FlashArray::new(self.config.clone(), seed);
                chr.snapshot(array.latency_model(), pe)
            })
            .collect()
    }

    /// A fresh [`PoolCache`] for this configuration, to be shared by every
    /// experiment run against these parameters.
    #[must_use]
    pub fn cache(&self) -> PoolCache {
        PoolCache::new(self.config.clone())
    }
}

/// Mean extra latencies of a set of superblocks against their pool.
///
/// # Panics
///
/// Panics if a superblock references unknown blocks (an internal error in
/// the harness).
#[must_use]
pub fn measure(pool: &BlockPool, sbs: &[Superblock], name: &str) -> SchemeStats {
    let mut pgm = 0.0;
    let mut ers = 0.0;
    for sb in sbs {
        let e = ExtraLatency::of_superblock(pool, sb).expect("harness superblocks are valid");
        pgm += e.program_us;
        ers += e.erase_us;
    }
    let n = sbs.len().max(1) as f64;
    SchemeStats {
        name: name.to_string(),
        extra_pgm_us: pgm / n,
        extra_ers_us: ers / n,
        superblocks: sbs.len(),
    }
}

/// Per-superblock extra latencies (for distribution figures).
#[must_use]
pub fn measure_each(pool: &BlockPool, sbs: &[Superblock]) -> Vec<ExtraLatency> {
    sbs.iter()
        .map(|sb| ExtraLatency::of_superblock(pool, sb).expect("harness superblocks are valid"))
        .collect()
}

/// One work item of a batch run: scheme `kind` on group `gi` at P/E `pe`.
#[derive(Debug, Clone, Copy)]
struct Cell {
    kind_idx: usize,
    pe: u32,
    gi: usize,
}

/// The per-cell contribution to a scheme's averages: superblock-weighted
/// extra latencies plus the superblock count, exactly the three terms the
/// sequential accumulation adds per `(group, pe)`.
#[derive(Debug, Clone, Copy, Default)]
struct CellResult {
    pgm_weighted: f64,
    ers_weighted: f64,
    superblocks: usize,
}

/// Assembles and measures one cell. Factored out so the sequential path and
/// the work queue produce bit-identical per-cell numbers by construction.
fn run_cell(
    params: &ExperimentParams,
    cache: &PoolCache,
    kind: SchemeKind,
    cell: Cell,
) -> CellResult {
    let pool = cache.pool(params.group_seeds[cell.gi], cell.pe);
    let mut asm = kind.assembler(params.group_seeds[cell.gi] ^ u64::from(cell.pe));
    let sbs = asm.assemble(&pool);
    let stats = measure(&pool, &sbs, &asm.name());
    CellResult {
        pgm_weighted: stats.extra_pgm_us * stats.superblocks as f64,
        ers_weighted: stats.extra_ers_us * stats.superblocks as f64,
        superblocks: stats.superblocks,
    }
}

/// Reduces a scheme's cell results in the canonical order (P/E-major, then
/// group) — the exact float-summation order of the sequential path, so
/// parallel execution cannot perturb the result.
fn reduce_cells(kind: SchemeKind, results: &[CellResult]) -> SchemeStats {
    let mut total_pgm = 0.0;
    let mut total_ers = 0.0;
    let mut total_n = 0usize;
    for r in results {
        total_pgm += r.pgm_weighted;
        total_ers += r.ers_weighted;
        total_n += r.superblocks;
    }
    let n = total_n.max(1) as f64;
    SchemeStats {
        name: kind.name(),
        extra_pgm_us: total_pgm / n,
        extra_ers_us: total_ers / n,
        superblocks: total_n,
    }
}

/// Runs one scheme over many groups and P/E points, averaging everything,
/// reusing `cache` for characterization.
#[must_use]
pub fn run_scheme(params: &ExperimentParams, cache: &PoolCache, kind: SchemeKind) -> SchemeStats {
    let mut results = Vec::with_capacity(params.pe_points.len() * params.group_seeds.len());
    for &pe in &params.pe_points {
        for gi in 0..params.group_seeds.len() {
            results.push(run_cell(params, cache, kind, Cell { kind_idx: 0, pe, gi }));
        }
    }
    reduce_cells(kind, &results)
}

/// Runs several schemes in parallel over a shared characterization cache.
///
/// The unit of parallelism is one `(scheme, pe, group)` cell, drained from
/// a shared work queue, so the load balances across cells of very uneven
/// cost (Optimal windows vs. a random zip) instead of serializing behind
/// the slowest scheme as the old thread-per-scheme split did. Each scheme's
/// cells are then reduced in the canonical sequential order, which keeps
/// the returned [`SchemeStats`] bit-identical to [`run_scheme`].
#[must_use]
pub fn run_schemes_parallel(
    params: &ExperimentParams,
    cache: &PoolCache,
    kinds: &[SchemeKind],
) -> Vec<SchemeStats> {
    let mut cells =
        Vec::with_capacity(kinds.len() * params.pe_points.len() * params.group_seeds.len());
    for (kind_idx, _) in kinds.iter().enumerate() {
        for &pe in &params.pe_points {
            for gi in 0..params.group_seeds.len() {
                cells.push(Cell { kind_idx, pe, gi });
            }
        }
    }
    let results: Vec<OnceLock<CellResult>> = (0..cells.len()).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(cells.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&cell) = cells.get(idx) else { break };
                let out = run_cell(params, cache, kinds[cell.kind_idx], cell);
                results[idx].set(out).expect("each cell is claimed by one worker");
            });
        }
    });
    let per_scheme = params.pe_points.len() * params.group_seeds.len();
    kinds
        .iter()
        .enumerate()
        .map(|(kind_idx, &kind)| {
            let slice: Vec<CellResult> = results
                [kind_idx * per_scheme..(kind_idx + 1) * per_scheme]
                .iter()
                .map(|r| *r.get().expect("all cells were drained"))
                .collect();
            reduce_cells(kind, &slice)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_params_produce_pools() {
        let p = ExperimentParams::quick();
        let pools = p.pools_at(0);
        assert_eq!(pools.len(), 1);
        assert_eq!(pools[0].pool_count(), 4);
    }

    #[test]
    fn scheme_names_match_paper() {
        assert_eq!(SchemeKind::StrRank(8).name(), "STR-RANK(8)");
        assert_eq!(SchemeKind::QstrMed(4).name(), "QSTR-MED(4)");
        assert_eq!(SchemeKind::ErsLatency.name(), "ERS-LTN");
    }

    #[test]
    fn run_scheme_is_deterministic() {
        let p = ExperimentParams::quick();
        let a = run_scheme(&p, &p.cache(), SchemeKind::Sequential);
        let b = run_scheme(&p, &p.cache(), SchemeKind::Sequential);
        assert_eq!(a, b);
    }

    #[test]
    fn improvement_math() {
        let base = SchemeStats {
            name: "base".into(),
            extra_pgm_us: 100.0,
            extra_ers_us: 40.0,
            superblocks: 1,
        };
        let s = SchemeStats {
            name: "s".into(),
            extra_pgm_us: 80.0,
            extra_ers_us: 30.0,
            superblocks: 1,
        };
        assert!((s.pgm_improvement_pct(&base) - 20.0).abs() < 1e-12);
        assert!((s.ers_improvement_pct(&base) - 25.0).abs() < 1e-12);
        assert!((s.pgm_reduction_us(&base) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn qstr_beats_random_in_quick_run() {
        let p = ExperimentParams::quick();
        let rnd = run_scheme(&p, &p.cache(), SchemeKind::Random);
        let q = run_scheme(&p, &p.cache(), SchemeKind::QstrMed(4));
        assert!(q.extra_pgm_us < rnd.extra_pgm_us);
    }
}
