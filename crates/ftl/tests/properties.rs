//! Property-based tests: the simulated SSD must agree with an in-memory
//! model of the logical address space under arbitrary request streams, and
//! latency-histogram quantiles must be the nearest ranks of an explicit
//! sort.

use flash_model::{CellType, Geometry};
use ftl::{FtlConfig, IoRequest, LatencyHistogram, OrganizationScheme, Ssd};
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

/// Latency samples drawn from a pool of special values (NaNs of both
/// signs, signed zeros and infinities) and a coarse grid, so ties are
/// common.
fn arb_sample() -> impl Strategy<Value = f64> {
    (0usize..10, 0u32..6).prop_map(|(kind, x)| match kind {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => 0.0,
        3 => -0.0,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        _ => f64::from(x) * 12.5,
    })
}

/// Latency parts of [`arb_sample`]s, so ties within and across parts are
/// common; empty parts included. The flag per part asks it a quantile
/// before the fold, which must leave the part as it was.
fn arb_parts() -> impl Strategy<Value = Vec<(Vec<f64>, bool)>> {
    let part = proptest::collection::vec(arb_sample(), 0..40);
    proptest::collection::vec((part, any::<bool>()), 0..6)
}

/// One step on a histogram under test: one sample, a batch, a merge of
/// another histogram, a fold of it with further parts, or a quantile query.
#[derive(Debug, Clone)]
enum HistOp {
    Record(f64),
    Extend(Vec<f64>),
    Merge(Vec<f64>),
    Fold(Vec<Vec<f64>>),
    Query(f64),
}

/// Queries at every thousandth and at the reported tails, plus the clamped
/// and NaN edges.
fn arb_quantile() -> impl Strategy<Value = f64> {
    (0usize..8, 0u32..1001).prop_map(|(kind, i)| match kind {
        0 => [0.999, 0.9999, 0.0, 1.0][i as usize % 4],
        1 => [-0.5, 1.5, f64::NAN, f64::NEG_INFINITY, f64::INFINITY][i as usize % 5],
        _ => f64::from(i) / 1000.0,
    })
}

fn arb_hist_ops() -> impl Strategy<Value = Vec<HistOp>> {
    let batch = || proptest::collection::vec(arb_sample(), 0..12);
    let op = (
        0usize..10,
        arb_sample(),
        batch(),
        proptest::collection::vec(batch(), 0..4),
        arb_quantile(),
    )
        .prop_map(|(kind, x, samples, parts, q)| match kind {
            0 | 1 => HistOp::Record(x),
            2 => HistOp::Extend(samples),
            3 => HistOp::Merge(samples),
            4 => HistOp::Fold(parts),
            _ => HistOp::Query(q),
        });
    proptest::collection::vec(op, 1..60)
}

/// The nearest-rank quantile spelled out: the sample at index
/// `round((n - 1) * q)` of a `total_cmp` sort, `q` clamped to `[0, 1]` and
/// NaN read as 0; 0 for no samples.
fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    match sorted.len() {
        0 => 0.0,
        n => sorted[((n - 1) as f64 * q).round() as usize],
    }
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
        for (h, (samples, _)) in hists.iter().zip(&parts) {
            prop_assert_eq!(bits(h), samples.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        }
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

    #[test]
    fn quantiles_select_the_nearest_rank_of_an_explicit_sort(ops in arb_hist_ops()) {
        // Records, batches, merges and folds interleave with queries; every
        // answer, asked twice, must be the nearest-rank element of a sort
        // the test does itself over the samples it fed in.
        let mut h = LatencyHistogram::new();
        let mut fed: Vec<f64> = Vec::new();
        for op in ops {
            match op {
                HistOp::Record(x) => {
                    h.record(x);
                    fed.push(x);
                }
                HistOp::Extend(samples) => {
                    h.extend(&samples);
                    fed.extend(&samples);
                }
                HistOp::Merge(samples) => {
                    let mut other = LatencyHistogram::new();
                    other.extend(&samples);
                    h.merge(&other);
                    fed.extend(&samples);
                }
                HistOp::Fold(parts) => {
                    let others: Vec<LatencyHistogram> = parts
                        .iter()
                        .map(|samples| {
                            let mut part = LatencyHistogram::new();
                            part.extend(samples);
                            part
                        })
                        .collect();
                    h = LatencyHistogram::fold(std::iter::once(&h).chain(&others));
                    fed.extend(parts.concat());
                }
                HistOp::Query(q) => {
                    let want = nearest_rank(&fed, q).to_bits();
                    prop_assert_eq!(h.quantile_us(q).to_bits(), want, "q {}", q);
                    prop_assert_eq!(h.quantile_us(q).to_bits(), want, "repeated q {}", q);
                }
            }
            let bits: Vec<u64> = h.samples_us().iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(bits, fed.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
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
