//! Property-based tests: the simulated SSD must agree with an in-memory
//! model of the logical address space under arbitrary request streams, and
//! the dense page mapping must agree with its naive `HashMap` oracle.

use flash_model::{CellType, Geometry};
use ftl::{FtlConfig, IoRequest, LatencyHistogram, Mapping, OrganizationScheme, Ssd};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Write(u64),
    Read(u64),
    Trim(u64),
}

fn arb_ops(capacity: u64, len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..10, 0..capacity).prop_map(|(kind, lpn)| match kind {
            0..=5 => Op::Write(lpn),
            6..=8 => Op::Read(lpn),
            _ => Op::Trim(lpn),
        }),
        0..len,
    )
}

fn schemes() -> [OrganizationScheme; 3] {
    [
        OrganizationScheme::Random,
        OrganizationScheme::Sequential,
        OrganizationScheme::QstrMed { candidates: 4 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn device_agrees_with_model(ops in arb_ops(200, 400), seed in any::<u64>(), scheme_idx in 0usize..3) {
        let mut config = FtlConfig::small_test();
        config.scheme = schemes()[scheme_idx];
        let mut dev = Ssd::new(config, seed).unwrap();
        let capacity = dev.geometry_info().logical_pages;
        let mut model: HashMap<u64, ()> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Write(lpn) if lpn < capacity => {
                    dev.write(lpn).unwrap();
                    model.insert(lpn, ());
                }
                Op::Read(lpn) if lpn < capacity => {
                    let got = dev.read(lpn).unwrap();
                    prop_assert_eq!(got.is_some(), model.contains_key(&lpn),
                        "read({}) visibility mismatch", lpn);
                }
                Op::Trim(lpn) if lpn < capacity => {
                    dev.trim(lpn).unwrap();
                    model.remove(&lpn);
                }
                _ => {}
            }
        }
        // After a flush, every model page must still be readable.
        dev.flush().unwrap();
        for lpn in model.keys() {
            prop_assert!(dev.read(*lpn).unwrap().is_some(), "lost page {}", lpn);
        }
    }

    #[test]
    fn valid_pages_never_exceed_logical_capacity(writes in proptest::collection::vec(0u64..150, 0..600), seed in any::<u64>()) {
        let mut dev = Ssd::new(FtlConfig::small_test(), seed).unwrap();
        let capacity = dev.geometry_info().logical_pages;
        let mut distinct = std::collections::HashSet::new();
        for lpn in writes {
            if lpn < capacity {
                dev.write(lpn).unwrap();
                distinct.insert(lpn);
            }
        }
        dev.flush().unwrap();
        prop_assert_eq!(dev.valid_pages(), distinct.len());
    }

    #[test]
    fn stats_are_internally_consistent(n_writes in 1usize..400, seed in any::<u64>()) {
        let mut dev = Ssd::new(FtlConfig::small_test(), seed).unwrap();
        let capacity = dev.geometry_info().logical_pages;
        for i in 0..n_writes {
            dev.write(i as u64 % (capacity / 2).max(1)).unwrap();
        }
        let s = dev.stats();
        prop_assert_eq!(s.host_writes, n_writes as u64);
        prop_assert!(s.waf() >= 1.0 || s.gc_relocations == 0);
        prop_assert!(s.extra_program_us >= 0.0);
        prop_assert!(s.busy_us > 0.0);
        prop_assert_eq!(s.write_latency.len(), n_writes);
    }

    #[test]
    fn gc_reclaims_enough_to_keep_writing(seed in any::<u64>()) {
        // Overwrite a small working set many times: every write must succeed
        // because GC always finds nearly-empty victims.
        let mut dev = Ssd::new(FtlConfig::small_test(), seed).unwrap();
        let capacity = dev.geometry_info().logical_pages;
        let span = (capacity / 4).max(1);
        for i in 0..(capacity * 4) {
            dev.write(i % span).unwrap();
        }
        prop_assert!(dev.stats().gc_runs > 0);
    }
}

/// One step against the mapping stores: map a logical page somewhere, trim
/// one, or sweep a whole block (what GC does after relocating + erasing).
#[derive(Debug, Clone, Copy)]
enum MapStep {
    Map { lpn: u64, page: usize },
    Unmap { lpn: u64 },
    InvalidateBlock { block: usize },
}

fn arb_map_steps(
    capacity: u64,
    total_pages: usize,
    total_blocks: usize,
    len: usize,
) -> impl Strategy<Value = Vec<MapStep>> {
    proptest::collection::vec(
        (0u8..8, 0..capacity, 0..total_pages).prop_map(move |(kind, lpn, page)| match kind {
            0..=4 => MapStep::Map { lpn, page },
            5..=6 => MapStep::Unmap { lpn },
            _ => MapStep::InvalidateBlock { block: page % total_blocks },
        }),
        0..len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dense_mapping_agrees_with_naive_oracle(
        steps in arb_map_steps(100, 144, 12, 300),
    ) {
        // Dense store (flat p2l + per-block counters) vs the original
        // HashMap store, driven through identical random write/trim/GC
        // sequences: every query must agree at every step boundary.
        let geo = Geometry::new(2, 2, 3, 2, 2, CellType::Tlc);
        let blocks: Vec<_> = geo.blocks().collect();
        let ppb = geo.pages_per_block() as usize;
        prop_assert_eq!(blocks.len() * ppb, 144);
        let mut dense = Mapping::new(100, &geo);
        let mut naive = Mapping::new_naive(100);
        for step in steps {
            match step {
                MapStep::Map { lpn, page } => {
                    let block = blocks[page / ppb];
                    let ppa = geo.page_at_offset(block, page % ppb);
                    // A physical page is programmed once per erase cycle;
                    // both stores must agree on whether this one is taken.
                    prop_assert_eq!(dense.is_valid(ppa), naive.is_valid(ppa));
                    if !dense.is_valid(ppa) {
                        dense.map(lpn, ppa);
                        naive.map(lpn, ppa);
                    }
                }
                MapStep::Unmap { lpn } => {
                    prop_assert_eq!(dense.unmap(lpn), naive.unmap(lpn));
                }
                MapStep::InvalidateBlock { block } => {
                    dense.invalidate_block(blocks[block]);
                    naive.invalidate_block(blocks[block]);
                }
            }
            prop_assert_eq!(dense.valid_pages(), naive.valid_pages());
        }
        prop_assert!(dense.is_consistent());
        prop_assert!(naive.is_consistent());
        for lpn in 0..100 {
            prop_assert_eq!(dense.lookup(lpn), naive.lookup(lpn), "lookup({}) differs", lpn);
        }
        for &b in &blocks {
            prop_assert_eq!(dense.valid_in_block_count(b), naive.valid_in_block_count(b));
            let d: Vec<_> = dense.valid_in_block(b).collect();
            let n: Vec<_> = naive.valid_in_block(b).collect();
            prop_assert_eq!(d, n, "valid_in_block({:?}) differs", b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trace_parser_never_panics(input in "[ -~\n]{0,256}") {
        // Arbitrary printable input: parse must return Ok or Err, not panic.
        let _ = ftl::trace::parse_trace(input.as_bytes());
    }

    #[test]
    fn parsed_traces_roundtrip_through_fold(lpns in proptest::collection::vec(0u64..10_000, 0..50), capacity in 1u64..500) {
        let text: String = lpns.iter().map(|l| format!("W,{l}\n")).collect();
        let reqs = ftl::trace::parse_trace(text.as_bytes()).unwrap();
        let folded = ftl::trace::fold_to_capacity(&reqs, capacity);
        prop_assert_eq!(folded.len(), reqs.len());
        prop_assert!(folded.iter().all(|r| r.lpn < capacity));
    }
}

/// Latency parts drawn from a pool of special values (NaNs of both signs,
/// signed zeros and infinities) and a coarse grid, so ties within and
/// across parts are common; empty parts included. The flag per part warms
/// its sorted cache before the fold.
fn arb_parts() -> impl Strategy<Value = Vec<(Vec<f64>, bool)>> {
    let value = (0usize..10, 0u32..6).prop_map(|(kind, x)| match kind {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => 0.0,
        3 => -0.0,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        _ => f64::from(x) * 12.5,
    });
    proptest::collection::vec((proptest::collection::vec(value, 0..40), any::<bool>()), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantiles_stay_monotone_and_fold_matches_a_merge_chain(parts in arb_parts()) {
        let hists: Vec<LatencyHistogram> = parts
            .iter()
            .map(|(samples, warm)| {
                let mut h = LatencyHistogram::new();
                h.extend(samples);
                if *warm {
                    let _ = h.quantile_us(0.5);
                }
                h
            })
            .collect();
        let folded = LatencyHistogram::fold(&hists);
        let mut chained = LatencyHistogram::new();
        for h in &hists {
            chained.merge(h);
        }
        // Quantiles at q = i / (n - 1) read the sorted run rank by rank.
        let n = chained.len();
        let run = |h: &LatencyHistogram| -> Vec<u64> {
            (0..n).map(|i| h.quantile_us(i as f64 / (n - 1).max(1) as f64).to_bits()).collect()
        };
        let mut want: Vec<f64> = chained.samples_us().to_vec();
        want.sort_by(f64::total_cmp);
        let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(run(&chained), want.clone(), "merge chain sorts by total order");
        prop_assert_eq!(run(&folded), want, "fold sorts by total order");
        let bits = |h: &LatencyHistogram| -> Vec<u64> {
            h.samples_us().iter().map(|x| x.to_bits()).collect()
        };
        prop_assert_eq!(bits(&folded), bits(&chained));
        prop_assert_eq!(folded.mean_us().to_bits(), chained.mean_us().to_bits());
        for h in hists.iter().chain([&folded, &chained]) {
            let qs = (0..=100).map(|i| f64::from(i) / 100.0).chain([0.999, 0.9999, 1.0]);
            let mut qs: Vec<f64> = qs.collect();
            qs.sort_by(f64::total_cmp);
            for pair in qs.windows(2) {
                let (lo, hi) = (h.quantile_us(pair[0]), h.quantile_us(pair[1]));
                prop_assert!(lo.total_cmp(&hi).is_le(), "q {} -> {} but q {} -> {}", pair[0], lo, pair[1], hi);
            }
        }
    }
}

#[test]
fn read_your_writes_with_requests_api() {
    let mut dev = Ssd::new(FtlConfig::small_test(), 1).unwrap();
    let reqs: Vec<IoRequest> =
        (0..50).map(IoRequest::write).chain((0..50).map(IoRequest::read)).collect();
    dev.run(&reqs).unwrap();
    assert_eq!(dev.stats().host_reads, 50);
    assert_eq!(dev.stats().read_latency.len(), 50);
}

#[test]
fn mlc_device_writes_flushes_reads_and_recovers() {
    // MLC's word-line is [LSB, MSB]: its MSB sits in slot 1, not at
    // `PageType::Msb.index()` (2), so every page offset must come from the
    // per-cell slot.
    let mut config = FtlConfig::small_test();
    config.flash.geometry = Geometry::new(4, 1, 24, 8, 4, CellType::Mlc);
    config.validate().unwrap();
    let mut dev = Ssd::new(config, 3).unwrap();
    let capacity = dev.geometry_info().logical_pages;
    // A fill, then scattered overwrites, so collection relocates live
    // MSB pages.
    for lpn in (0..capacity).chain((0..capacity * 2).map(|i| (i * 7919) % capacity)) {
        dev.write(lpn).unwrap();
    }
    assert!(dev.stats().gc_relocations > 0, "the second pass must collect");
    dev.flush().unwrap();
    for lpn in 0..capacity {
        assert!(dev.read(lpn).unwrap().is_some(), "lpn {lpn} lost before recovery");
    }
    let before: Vec<_> = (0..capacity).map(|l| dev.mapping().lookup(l)).collect();
    dev.recover().unwrap();
    for lpn in 0..capacity {
        assert_eq!(dev.mapping().lookup(lpn), before[lpn as usize], "lpn {lpn} remapped");
        assert!(dev.read(lpn).unwrap().is_some(), "lpn {lpn} lost after recovery");
    }
}
