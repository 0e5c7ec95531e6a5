//! Property-based tests for the latency model's invariants.

use flash_model::{
    BlockAddr, BlockId, CellType, ChipId, FaultConfig, FlashArray, FlashConfig, Geometry, LwlId,
    PageType, PlaneId, PwlLayer, Sampler, VariationConfig,
};
use proptest::prelude::*;

fn arb_geometry() -> impl Strategy<Value = Geometry> {
    (1u16..5, 1u16..3, 1u32..20, 1u16..12, prop_oneof![Just(2u16), Just(4u16)]).prop_map(
        |(chips, planes, blocks, layers, strings)| {
            Geometry::new(chips, planes, blocks, layers, strings, CellType::Tlc)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn latencies_are_deterministic_and_positive(seed in any::<u64>(), geo in arb_geometry()) {
        let m1 = flash_model::LatencyModel::new(geo.clone(), VariationConfig::default(), seed);
        let m2 = flash_model::LatencyModel::new(geo.clone(), VariationConfig::default(), seed);
        for addr in geo.blocks().take(8) {
            prop_assert_eq!(m1.erase_latency_us(addr, 0), m2.erase_latency_us(addr, 0));
            prop_assert!(m1.erase_latency_us(addr, 0) > 0.0);
            for lwl in geo.lwls().take(8) {
                let t1 = m1.program_latency_us(addr.wl(lwl), 0);
                prop_assert_eq!(t1, m2.program_latency_us(addr.wl(lwl), 0));
                prop_assert!(t1 > 0.0);
            }
        }
    }

    #[test]
    fn program_latency_is_quantized(seed in any::<u64>(), geo in arb_geometry()) {
        let m = flash_model::LatencyModel::new(geo.clone(), VariationConfig::default(), seed);
        let q = m.variation().pulse_us;
        for addr in geo.blocks().take(4) {
            for lwl in geo.lwls().take(8) {
                let t = m.program_latency_us(addr.wl(lwl), 0);
                let ratio = t / q;
                prop_assert!((ratio - ratio.round()).abs() < 1e-9, "{} not on grid", t);
            }
        }
    }

    #[test]
    fn fast_strings_mark_exactly_half((seed, geo) in (any::<u64>(), arb_geometry())) {
        let m = flash_model::LatencyModel::new(geo.clone(), VariationConfig::default(), seed);
        let expect = u32::from(geo.strings() / 2).max(1);
        for addr in geo.blocks().take(4) {
            for l in 0..geo.pwl_layers() {
                prop_assert_eq!(m.fast_strings(addr, PwlLayer(l)).count(), expect);
            }
        }
    }

    #[test]
    fn sampler_ranges_hold(seed in any::<u64>(), tags in proptest::collection::vec(any::<u64>(), 0..5), n in 1usize..100) {
        let s = Sampler::new(seed);
        let u = s.uniform(&tags);
        prop_assert!((0.0..1.0).contains(&u));
        prop_assert!(s.choice(n, &tags) < n);
        prop_assert!(s.normal(&tags).is_finite());
        prop_assert!(s.exponential(2.0, &tags) >= 0.0);
    }

    #[test]
    fn geometry_lwl_roundtrip(geo in arb_geometry(), lwl_idx in 0u32..100) {
        let lwl = LwlId(lwl_idx % geo.lwls_per_block());
        let layer = geo.layer_of(lwl);
        let string = geo.string_of(lwl);
        prop_assert_eq!(geo.lwl_of(layer, string), lwl);
    }

    #[test]
    fn erase_program_lifecycle_always_legal(seed in any::<u64>(), geo in arb_geometry()) {
        let mut array = FlashArray::new(
            FlashConfig { geometry: geo.clone(), variation: VariationConfig::default() },
            seed,
        );
        let addr = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(0));
        let payload = vec![7u64; geo.pages_per_lwl() as usize];
        // Program before erase must fail; after erase the whole block must
        // program in order and then be fully readable.
        prop_assert!(array.program_wl(addr.wl(LwlId(0)), &payload).is_err());
        array.erase_block(addr).unwrap();
        for lwl in geo.lwls() {
            array.program_wl(addr.wl(lwl), &payload).unwrap();
        }
        prop_assert!(array.program_wl(addr.wl(LwlId(0)), &payload).is_err());
        let (data, _) = array
            .read_page(addr.wl(LwlId(geo.lwls_per_block() - 1)).page(flash_model::PageType::Lsb))
            .unwrap();
        prop_assert_eq!(data, 7);
    }

    #[test]
    fn latency_cache_matches_uncached_model(
        seed in any::<u64>(),
        ops in collection::vec((0u8..10, 0usize..4, any::<u32>(), 0usize..4), 1..160),
    ) {
        // Two arrays replay the same random interleaving of programs, reads,
        // erases and aging with read disturb tracked and page-type spread on;
        // only one memoizes. Every latency and error-bit answer must agree
        // to the bit, which pins the cache's invalidation on every P/E change.
        let geo = Geometry::new(2, 1, 2, 3, 2, CellType::Tlc);
        let config = FlashConfig { geometry: geo.clone(), variation: VariationConfig::default() };
        let fault = FaultConfig {
            page_type_ber_spread: 0.35,
            weak_block_prob: 0.3,
            weak_ber_multiplier: 300.0,
            ..FaultConfig::default()
        };
        let mut plain = FlashArray::with_faults(config.clone(), seed, fault.clone());
        let mut memo = FlashArray::with_faults(config, seed, fault);
        memo.set_fast_latency(true);
        plain.set_track_disturb(true);
        memo.set_track_disturb(true);
        let blocks: Vec<BlockAddr> = geo.blocks().collect();
        let per_lwl = geo.pages_per_lwl();
        for (kind, b, pick, age) in ops {
            let addr = blocks[b];
            // A page on a word-line the block has already programmed, when
            // it has any.
            let written = plain.next_lwl(addr).unwrap().0.max(1);
            let pt = PageType::from_index(geo.cell(), pick % per_lwl).unwrap();
            let page = addr.wl(LwlId((pick / per_lwl) % written)).page(pt);
            match kind {
                0 | 1 => {
                    let (a, b) = (plain.erase_block(addr), memo.erase_block(addr));
                    prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
                }
                2 | 3 => {
                    let wl = addr.wl(plain.next_lwl(addr).unwrap());
                    let data = vec![u64::from(pick); per_lwl as usize];
                    let (a, b) = (plain.program_wl(wl, &data), memo.program_wl(wl, &data));
                    prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
                }
                4..=7 => {
                    let (a, b) = (plain.read_page(page), memo.read_page(page));
                    prop_assert_eq!(
                        a.map(|(d, t)| (d, t.to_bits())),
                        b.map(|(d, t)| (d, t.to_bits()))
                    );
                }
                8 => {
                    plain.age_block(addr, 1 + pick % 500).unwrap();
                    memo.age_block(addr, 1 + pick % 500).unwrap();
                }
                _ => {
                    plain.age_all(1 + pick % 50);
                    memo.age_all(1 + pick % 50);
                }
            }
            let retention = [0.0, 0.0, 3.5, 2000.0][age];
            prop_assert_eq!(
                plain.expected_error_bits(page, retention).to_bits(),
                memo.expected_error_bits(page, retention).to_bits()
            );
        }
    }

    #[test]
    fn uniform_variation_means_identical_blocks(seed in any::<u64>()) {
        let geo = Geometry::small_test();
        let m = flash_model::LatencyModel::new(geo.clone(), VariationConfig::uniform(), seed);
        let reference = m.block_program_sum_us(BlockAddr::new(ChipId(0), PlaneId(0), BlockId(0)), 0);
        for addr in geo.blocks().take(16) {
            prop_assert_eq!(m.block_program_sum_us(addr, 0), reference);
        }
    }

    #[test]
    fn wear_speeds_programs_and_slows_erases_on_average(seed in any::<u64>()) {
        let geo = Geometry::small_test();
        let m = flash_model::LatencyModel::new(geo.clone(), VariationConfig::default(), seed);
        let sum = |pe: u32| -> (f64, f64) {
            let mut prog = 0.0;
            let mut ers = 0.0;
            for addr in geo.blocks().take(32) {
                prog += m.block_program_sum_us(addr, pe);
                ers += m.erase_latency_us(addr, pe);
            }
            (prog, ers)
        };
        let (p0, e0) = sum(0);
        let (p3, e3) = sum(3000);
        prop_assert!(p3 < p0, "programs should get faster with wear");
        prop_assert!(e3 > e0, "erases should get slower with wear");
    }
}
