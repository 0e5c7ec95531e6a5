//! Computing-overhead comparison (§VI-B-2): wall-clock cost of ONE
//! superblock decision with the full STR-MED window search vs. QSTR-MED's
//! reference matching — the measured counterpart of the 1,536-vs-12 check
//! counts. Both legs start from the blocks' precomputed eigen sequences, as
//! the FTL keeps them.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use flash_model::{CellType, FlashArray, FlashConfig, Geometry};
use pvcheck::assembly::{QstrMed, SpeedClass};
use pvcheck::{overhead, BlockPool, Characterizer, EigenSequence};

const WINDOW: usize = 4;

fn pool() -> BlockPool {
    let config = FlashConfig {
        geometry: Geometry::new(4, 1, 32, 96, 4, CellType::Tlc),
        variation: flash_model::VariationConfig::default(),
    };
    let array = FlashArray::new(config.clone(), 2);
    Characterizer::new(&config).snapshot(array.latency_model(), 0)
}

/// The STR-MED window of every pool: the eigen sequences of its `WINDOW`
/// fastest blocks by program-latency sum.
fn str_med_windows(pool: &BlockPool) -> Vec<Vec<EigenSequence>> {
    (0..pool.pool_count())
        .map(|p| {
            let mut blocks: Vec<_> = pool.pool(p).iter().collect();
            blocks.sort_by(|a, b| a.pgm_sum_us().total_cmp(&b.pgm_sum_us()));
            blocks.iter().take(WINDOW).map(|b| b.summary(pool.strings()).eigen).collect()
        })
        .collect()
}

/// One STR-MED decision from scratch: every combination of one window
/// candidate per pool, scored by the summed pairwise eigen distance. Returns
/// the first best combination and the number of distance checks made.
fn str_med_decision(windows: &[Vec<EigenSequence>]) -> (Vec<usize>, u64) {
    let pools = windows.len();
    let mut picks = vec![0; pools];
    let mut best = picks.clone();
    let mut best_score = u64::MAX;
    let mut checks = 0;
    loop {
        let mut score = 0u64;
        for p in 0..pools {
            for q in (p + 1)..pools {
                score += u64::from(windows[p][picks[p]].distance(&windows[q][picks[q]]));
                checks += 1;
            }
        }
        if score < best_score {
            best_score = score;
            best.copy_from_slice(&picks);
        }
        // Next combination, pool 0 varying fastest.
        let mut p = 0;
        loop {
            if p == pools {
                return (best, checks);
            }
            picks[p] += 1;
            if picks[p] < windows[p].len() {
                break;
            }
            picks[p] = 0;
            p += 1;
        }
    }
}

fn bench_one_superblock(c: &mut Criterion) {
    let pool = pool();
    let mut group = c.benchmark_group("organize_one_superblock");

    group.bench_function("str_med_w4_full_search", |b| {
        let windows = str_med_windows(&pool);
        let checks = str_med_decision(&windows).1;
        assert_eq!(checks, overhead::str_med_distance_checks(WINDOW, pool.pool_count()));
        b.iter(|| str_med_decision(black_box(&windows)))
    });

    group.bench_function("qstr_med_c4_reference_match", |b| {
        let strings = pool.strings();
        b.iter_batched_ref(
            || {
                let mut q = QstrMed::with_candidates(WINDOW);
                for p in 0..pool.pool_count() {
                    for blk in pool.pool(p) {
                        q.insert(p, blk.summary(strings));
                    }
                }
                q
            },
            |q| q.assemble_on_demand(SpeedClass::Fast),
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_one_superblock);
criterion_main!(benches);
