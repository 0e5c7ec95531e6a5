//! Micro-benchmarks of the hot primitives: eigen XOR distance, rankings,
//! gathering and latency synthesis.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flash_model::{BlockAddr, BlockId, ChipId, FlashConfig, LwlId, PlaneId};
use pvcheck::gather::BlockGatherer;
use pvcheck::{rank, EigenSequence};

fn latencies_384() -> Vec<f64> {
    (0..384).map(|i| 1700.0 + f64::from((i * 37) % 11) * 18.4).collect()
}

fn bench_primitives(c: &mut Criterion) {
    let t = latencies_384();

    c.bench_function("eigen_distance_384b", |b| {
        let a: EigenSequence = (0..384).map(|i| i % 3 == 0).collect();
        let d: EigenSequence = (0..384).map(|i| i % 5 == 0).collect();
        b.iter(|| black_box(&a).distance(black_box(&d)))
    });

    c.bench_function("str_median_eigen_384wl", |b| {
        b.iter(|| rank::str_median_eigen(black_box(&t), 4))
    });

    c.bench_function("lwl_ranks_384wl", |b| b.iter(|| rank::lwl_ranks(black_box(&t))));

    c.bench_function("str_ranks_384wl", |b| b.iter(|| rank::str_ranks(black_box(&t), 4)));

    c.bench_function("gather_full_block_384wl", |b| {
        let addr = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(0));
        b.iter(|| {
            let mut g = BlockGatherer::new(addr, 4, 96);
            for (i, &lat) in t.iter().enumerate() {
                g.record(i as u32, lat).unwrap();
            }
            g.finish().unwrap()
        })
    });

    c.bench_function("synthesize_tprog", |b| {
        let config = FlashConfig::paper_platform();
        let model = flash_model::LatencyModel::new(config.geometry, config.variation, 1);
        let wl = BlockAddr::new(ChipId(1), PlaneId(0), BlockId(500)).wl(LwlId(100));
        b.iter(|| model.program_latency_us(black_box(wl), 0))
    });

    c.bench_function("synthesize_block_tprog_384wl", |b| {
        let config = FlashConfig::paper_platform();
        let model = flash_model::LatencyModel::new(config.geometry, config.variation, 1);
        let addr = BlockAddr::new(ChipId(1), PlaneId(0), BlockId(500));
        b.iter(|| model.block_program_latencies_us(black_box(addr), 0).sum::<f64>())
    });

    c.bench_function("extra_latency_4x384", |b| {
        let vs: Vec<Vec<f64>> =
            (0..4).map(|k| t.iter().map(|x| x + f64::from(k) * 3.0).collect()).collect();
        let refs: Vec<&[f64]> = vs.iter().map(|v| v.as_slice()).collect();
        let tbers = [3500.0, 3510.0, 3490.0, 3505.0];
        b.iter(|| pvcheck::ExtraLatency::of_vectors(black_box(&refs), black_box(&tbers)).unwrap())
    });
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
