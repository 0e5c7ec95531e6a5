//! Property-based tests for ranks, eigen sequences, distances, gathering
//! and assembly invariants.

use flash_model::{BlockAddr, BlockId, ChipId, PlaneId};
use proptest::prelude::*;
use pvcheck::assembly::{
    Assembler, LatencySortAssembly, OptimalAssembly, QstrMed, RandomAssembly, RankAssembly,
    RankStrategy, SequentialAssembly, SortKey, SpeedClass,
};
use pvcheck::gather::BlockGatherer;
use pvcheck::{
    combination_rank_distance, rank, rank_distance, BlockPool, BlockProfile, EigenSequence,
    ExtraLatency, Superblock,
};

const STRINGS: u16 = 4;

/// Latency vectors are layer-major with `layers * 4` entries.
fn arb_latencies(layers: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1500.0f64..2000.0, layers * STRINGS as usize)
}

fn arb_pool() -> impl Strategy<Value = BlockPool> {
    (2usize..5, 2usize..8, 1usize..5).prop_flat_map(|(pools, blocks, layers)| {
        proptest::collection::vec(arb_latencies(layers), pools * blocks).prop_map(
            move |latencies| {
                let mut pool = BlockPool::new(pools, STRINGS);
                for (i, t) in latencies.into_iter().enumerate() {
                    let p = i % pools;
                    let b = (i / pools) as u32;
                    let addr = BlockAddr::new(ChipId(p as u16), PlaneId(0), BlockId(b));
                    let tbers = 3000.0 + t[0];
                    pool.push(p, BlockProfile::new(addr, 0, t, tbers)).unwrap();
                }
                pool
            },
        )
    })
}

/// Latencies no measurement produces but the kernels must still order and
/// range exactly as the comparator and one-word-line-at-a-time references
/// do: NaNs of both signs, both zeros, both infinities, subnormals, and a
/// few repeated values so ties are common.
fn arb_awkward(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u8..12, any::<u64>()), len).prop_map(|draws| {
        draws
            .into_iter()
            .map(|(kind, bits)| match kind {
                0 => f64::NAN,
                1 => -f64::from_bits(f64::NAN.to_bits() | (bits & 0xff)),
                2 => 0.0,
                3 => -0.0,
                4 => f64::INFINITY,
                5 => f64::NEG_INFINITY,
                6 => f64::from_bits(bits & ((1 << 52) - 1)),
                7 => -f64::from_bits(bits & ((1 << 52) - 1)),
                8 => f64::from_bits(bits),
                _ => [1880.1, 1898.5, -3.0][(bits % 3) as usize],
            })
            .collect()
    })
}

/// The comparator sort integer keys replaced: `total_cmp`, then
/// word-line; writes each member's rank within `group` to `out[wl]`.
fn comparator_ranks(t: &[f64], group: impl Iterator<Item = usize>, out: &mut [u32]) {
    let mut keyed: Vec<(f64, usize)> = group.map(|wl| (t[wl], wl)).collect();
    keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for (rank, &(_, wl)) in keyed.iter().enumerate() {
        out[wl] = rank as u32;
    }
}

/// Σ over word-lines of (max − min) member latency, one word-line at a
/// time: the loop the chunked kernel replaced.
fn sequential_extra_program_us(tprog: &[&[f64]]) -> f64 {
    let mut sum = 0.0;
    for wl in 0..tprog[0].len() {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in tprog {
            if v[wl] < min {
                min = v[wl];
            }
            if v[wl] > max {
                max = v[wl];
            }
        }
        sum += max - min;
    }
    sum
}

fn check_validity(pool: &BlockPool, sbs: &[Superblock]) -> Result<(), TestCaseError> {
    prop_assert_eq!(sbs.len(), pool.min_pool_len());
    let mut seen = std::collections::HashSet::new();
    for sb in sbs {
        prop_assert_eq!(sb.members.len(), pool.pool_count());
        let mut pools_used = std::collections::HashSet::new();
        for &m in &sb.members {
            prop_assert!(seen.insert(m), "member reused");
            let p = pool.pool_of(m).expect("member known");
            prop_assert!(pools_used.insert(p), "pool used twice");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lwl_ranks_are_permutations(t in arb_latencies(4)) {
        let r = rank::lwl_ranks(&t);
        let mut sorted = r.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..t.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn str_ranks_are_per_layer_permutations(t in arb_latencies(4)) {
        let r = rank::str_ranks(&t, STRINGS);
        for layer in r.chunks(STRINGS as usize) {
            let mut sorted = layer.to_vec();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..u32::from(STRINGS)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pwl_ranks_are_per_string_permutations(t in arb_latencies(4)) {
        let layers = t.len() / STRINGS as usize;
        let r = rank::pwl_ranks(&t, STRINGS);
        for s in 0..STRINGS as usize {
            let mut got: Vec<u32> = (0..layers).map(|l| r[l * STRINGS as usize + s]).collect();
            got.sort_unstable();
            prop_assert_eq!(got, (0..layers as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn integer_key_ranks_equal_the_comparator_sort(
        t in arb_awkward(0..48),
        strings in 1u16..5,
    ) {
        let mut expected = vec![0; t.len()];
        comparator_ranks(&t, 0..t.len(), &mut expected);
        prop_assert_eq!(rank::lwl_ranks(&t), expected);
        let s = usize::from(strings);
        let t = &t[..t.len() - t.len() % s];
        let mut expected = vec![0; t.len()];
        for string in 0..s {
            comparator_ranks(t, (string..t.len()).step_by(s), &mut expected);
        }
        prop_assert_eq!(rank::pwl_ranks(t, strings), expected);
    }

    #[test]
    fn counted_str_ranks_equal_the_sorted_ones(t in arb_awkward(0..48), strings in 1u16..9) {
        let s = usize::from(strings);
        let t = &t[..t.len() - t.len() % s];
        let mut expected = vec![0; t.len()];
        for first in (0..t.len()).step_by(s) {
            comparator_ranks(t, first..first + s, &mut expected);
        }
        prop_assert_eq!(rank::str_ranks(t, strings), expected);
    }

    #[test]
    fn chunked_extra_program_equals_the_sequential_loop(
        members in proptest::collection::vec(arb_awkward(29..30), 2..6),
        wls in 1usize..30,
    ) {
        // Word-line counts on both sides of the 8-wide chunks, so whole
        // chunks, a tail and tails alone all occur.
        let tprog: Vec<&[f64]> = members.iter().map(|m| &m[..wls]).collect();
        let tbers = vec![3000.0; tprog.len()];
        let chunked = ExtraLatency::of_vectors(&tprog, &tbers).unwrap().program_us;
        prop_assert_eq!(chunked.to_bits(), sequential_extra_program_us(&tprog).to_bits());
    }

    #[test]
    fn str_median_marks_half_per_layer(t in arb_latencies(4)) {
        let e = rank::str_median_eigen(&t, STRINGS);
        for layer in 0..t.len() / STRINGS as usize {
            let ones: u32 = (0..STRINGS as usize)
                .filter(|&s| e.get(layer * STRINGS as usize + s))
                .count() as u32;
            prop_assert_eq!(ones, u32::from(STRINGS) / 2);
        }
    }

    #[test]
    fn eigen_distance_is_a_metric(a in proptest::collection::vec(any::<bool>(), 1..200),
                                  b in proptest::collection::vec(any::<bool>(), 1..200),
                                  c in proptest::collection::vec(any::<bool>(), 1..200)) {
        let n = a.len().min(b.len()).min(c.len());
        let ea = EigenSequence::from_bits(a[..n].iter().copied());
        let eb = EigenSequence::from_bits(b[..n].iter().copied());
        let ec = EigenSequence::from_bits(c[..n].iter().copied());
        prop_assert_eq!(ea.distance(&ea), 0);
        prop_assert_eq!(ea.distance(&eb), eb.distance(&ea));
        prop_assert!(ea.distance(&ec) <= ea.distance(&eb) + eb.distance(&ec));
        if ea.distance(&eb) == 0 {
            prop_assert_eq!(&ea, &eb);
        }
    }

    #[test]
    fn rank_distance_bounds(a in proptest::collection::vec(0u32..10, 1..100),
                            b in proptest::collection::vec(0u32..10, 1..100)) {
        let n = a.len().min(b.len());
        let d = rank_distance(&a[..n], &b[..n]);
        prop_assert!(d as usize <= n);
        prop_assert_eq!(d, rank_distance(&b[..n], &a[..n]));
    }

    #[test]
    fn combination_distance_is_sum_of_pairs(vs in proptest::collection::vec(proptest::collection::vec(0u32..4, 8), 2..5)) {
        let refs: Vec<&[u32]> = vs.iter().map(|v| v.as_slice()).collect();
        let total = combination_rank_distance(&refs);
        let mut manual = 0u64;
        for i in 0..refs.len() {
            for j in (i + 1)..refs.len() {
                manual += u64::from(rank_distance(refs[i], refs[j]));
            }
        }
        prop_assert_eq!(total, manual);
    }

    #[test]
    fn gatherer_matches_offline_summary(t in arb_latencies(6)) {
        let addr = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(0));
        let layers = (t.len() / STRINGS as usize) as u16;
        let mut g = BlockGatherer::new(addr, STRINGS, layers);
        for (i, &lat) in t.iter().enumerate() {
            g.record(i as u32, lat).unwrap();
        }
        let s = g.finish().unwrap();
        prop_assert_eq!(s.eigen, rank::str_median_eigen(&t, STRINGS));
        prop_assert!((s.pgm_sum_us - t.iter().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn extra_latency_is_permutation_invariant(t in proptest::collection::vec(arb_latencies(3), 3)) {
        let refs: Vec<&[f64]> = t.iter().map(|v| v.as_slice()).collect();
        let tbers = [3000.0, 3010.0, 3020.0];
        let e1 = ExtraLatency::of_vectors(&refs, &tbers).unwrap();
        let rev: Vec<&[f64]> = refs.iter().rev().copied().collect();
        let tb_rev: Vec<f64> = tbers.iter().rev().copied().collect();
        let e2 = ExtraLatency::of_vectors(&rev, &tb_rev).unwrap();
        prop_assert!((e1.program_us - e2.program_us).abs() < 1e-9);
        prop_assert!((e1.erase_us - e2.erase_us).abs() < 1e-9);
        prop_assert!(e1.program_us >= 0.0 && e1.erase_us >= 0.0);
    }

    #[test]
    fn every_assembler_emits_valid_superblocks(pool in arb_pool(), seed in any::<u64>()) {
        let assemblers: Vec<Box<dyn Assembler>> = vec![
            Box::new(RandomAssembly::new(seed)),
            Box::new(SequentialAssembly::new()),
            Box::new(LatencySortAssembly::new(SortKey::Erase)),
            Box::new(LatencySortAssembly::new(SortKey::Program)),
            Box::new(OptimalAssembly::new(3)),
            Box::new(RankAssembly::new(RankStrategy::Lwl, 2)),
            Box::new(RankAssembly::new(RankStrategy::Str, 3)),
            Box::new(RankAssembly::new(RankStrategy::StrMedian, 3)),
            Box::new(QstrMed::with_candidates(2)),
        ];
        for mut a in assemblers {
            let sbs = a.assemble(&pool);
            check_validity(&pool, &sbs)?;
        }
    }

    #[test]
    fn qstr_on_demand_drains_exactly_min_pool(pool in arb_pool()) {
        let mut q = QstrMed::with_candidates(3);
        let strings = pool.strings();
        for p in 0..pool.pool_count() {
            for b in pool.pool(p) {
                q.insert(p, b.summary(strings));
            }
        }
        let mut count = 0;
        while q.assemble_on_demand(if count % 2 == 0 { SpeedClass::Fast } else { SpeedClass::Slow }).is_some() {
            count += 1;
        }
        prop_assert_eq!(count, pool.min_pool_len());
    }

    #[test]
    fn demand_classes_include_the_extreme_reference_block(pool in arb_pool()) {
        let mut q = QstrMed::with_candidates(3);
        let strings = pool.strings();
        for p in 0..pool.pool_count() {
            for b in pool.pool(p) {
                q.insert(p, b.summary(strings));
            }
        }
        // The fast request must claim the globally fastest free block.
        let global_fastest = pool
            .iter()
            .min_by(|a, b| a.pgm_sum_us().partial_cmp(&b.pgm_sum_us()).unwrap())
            .unwrap()
            .addr();
        let fast = q.assemble_on_demand(SpeedClass::Fast).unwrap();
        prop_assert!(fast.members.contains(&global_fastest));
        // The slow request must claim the slowest block still free.
        if pool.min_pool_len() >= 2 {
            let remaining_slowest = pool
                .iter()
                .filter(|b| !fast.members.contains(&b.addr()))
                .max_by(|a, b| a.pgm_sum_us().partial_cmp(&b.pgm_sum_us()).unwrap())
                .unwrap()
                .addr();
            let slow = q.assemble_on_demand(SpeedClass::Slow).unwrap();
            prop_assert!(slow.members.contains(&remaining_slowest));
        }
    }
}
