//! The caching + work-queue harness must be a pure optimization: its
//! [`SchemeStats`] are required to be *exactly* equal (`==`, not
//! approximately) to a fresh, uncached, fully sequential run, and a
//! Table-I-shaped batch must characterize each `(group_seed, pe)` pool
//! exactly once.

use flash_model::FlashConfig;
use repro_bench::experiments::ComparisonResult;
use repro_bench::runner::{
    measure, run_scheme, run_schemes_parallel, ExperimentParams, SchemeKind, SchemeStats,
};

/// Parameters small enough to afford several fresh characterizations but
/// shaped like the real sweeps: two groups, two P/E points.
fn small_params() -> ExperimentParams {
    let config = FlashConfig::builder().blocks_per_plane(16).pwl_layers(8).build();
    ExperimentParams { config, group_seeds: vec![0, 1], pe_points: vec![0, 600] }
}

/// The pre-cache sequential harness, re-implemented verbatim from public
/// pieces: characterize every group fresh at each P/E point, assemble,
/// measure, and accumulate in pe-major group order.
fn reference_sequential(params: &ExperimentParams, kind: SchemeKind) -> SchemeStats {
    let mut total_pgm = 0.0;
    let mut total_ers = 0.0;
    let mut total_n = 0usize;
    for &pe in &params.pe_points {
        for (gi, pool) in params.pools_at(pe).iter().enumerate() {
            let mut asm = kind.assembler(params.group_seeds[gi] ^ u64::from(pe));
            let sbs = asm.assemble(pool);
            let stats = measure(pool, &sbs, &asm.name());
            total_pgm += stats.extra_pgm_us * stats.superblocks as f64;
            total_ers += stats.extra_ers_us * stats.superblocks as f64;
            total_n += stats.superblocks;
        }
    }
    let n = total_n.max(1) as f64;
    SchemeStats {
        name: kind.name(),
        extra_pgm_us: total_pgm / n,
        extra_ers_us: total_ers / n,
        superblocks: total_n,
    }
}

const ROSTER_A: [SchemeKind; 3] =
    [SchemeKind::Sequential, SchemeKind::PgmLatency, SchemeKind::QstrMed(4)];
const ROSTER_B: [SchemeKind; 3] =
    [SchemeKind::Random, SchemeKind::StrRank(4), SchemeKind::StrMed(4)];

#[test]
fn cached_run_scheme_equals_fresh_sequential() {
    let params = small_params();
    let cache = params.cache();
    for kind in ROSTER_A.into_iter().chain(ROSTER_B) {
        let fresh = reference_sequential(&params, kind);
        let cached = run_scheme(&params, &cache, kind);
        assert_eq!(fresh, cached, "{kind:?}");
    }
}

#[test]
fn work_queue_equals_fresh_sequential_for_both_rosters() {
    let params = small_params();
    for roster in [&ROSTER_A[..], &ROSTER_B[..]] {
        let expected: Vec<SchemeStats> =
            roster.iter().map(|&k| reference_sequential(&params, k)).collect();
        let cache = params.cache();
        let got = run_schemes_parallel(&params, &cache, roster);
        assert_eq!(expected, got);
    }
}

#[test]
fn comparison_run_equals_fresh_sequential() {
    let params = small_params();
    let cache = params.cache();
    let r = ComparisonResult::run(&params, &cache, &ROSTER_A);
    assert_eq!(r.baseline, reference_sequential(&params, SchemeKind::Random));
    for (kind, stats) in ROSTER_A.into_iter().zip(&r.schemes) {
        assert_eq!(*stats, reference_sequential(&params, kind), "{kind:?}");
    }
}

#[test]
fn table_shaped_batch_characterizes_each_pool_exactly_once() {
    let params = small_params();
    let cache = params.cache();
    let roster = SchemeKind::table1_roster();
    let _ = ComparisonResult::run(&params, &cache, &roster);
    let pools = params.group_seeds.len() * params.pe_points.len();
    assert_eq!(cache.builds(), pools, "one characterization per (group, pe)");
    assert_eq!(cache.len(), pools);
    // A second table over the same cache re-characterizes nothing.
    let _ = ComparisonResult::run(&params, &cache, &roster);
    assert_eq!(cache.builds(), pools);
}
