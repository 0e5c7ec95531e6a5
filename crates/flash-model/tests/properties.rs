//! Property-based tests for the latency model's invariants.

use flash_model::{
    BlockAddr, BlockHandle, BlockId, CellType, ChipId, FaultConfig, FlashArray, FlashConfig,
    Geometry, LwlId, PageAddr, PageOob, PageType, PlaneId, PwlLayer, Sampler, VariationConfig,
};
use proptest::prelude::*;

/// Page-type spread plus frequent weak blocks: every page-granular and
/// block-granular error multiplier is live.
fn mixed_faults() -> FaultConfig {
    FaultConfig {
        page_type_ber_spread: 0.35,
        weak_block_prob: 0.3,
        weak_ber_multiplier: 300.0,
        ..FaultConfig::default()
    }
}

/// `FlashArray::expected_error_bits` from the uncached formulas: the
/// `BerModel` at the block's P/E count and the page's disturb count, times
/// the weak-block and (when not exactly 1) page-type multipliers.
fn model_error_bits(array: &FlashArray, page: PageAddr, retention_hours: f64) -> f64 {
    let geo = array.geometry();
    let addr = page.wl.block;
    let fault = array.fault_injector();
    let bits = array.ber_model().expected_error_bits(
        geo,
        addr,
        geo.layer_of(page.wl.lwl),
        array.pe_cycles(addr).unwrap(),
        retention_hours,
        array.read_disturbs(page),
        16 * 1024,
    ) * fault.ber_multiplier(addr);
    let page_type = fault.page_type_ber_mult(page.page.slot(geo.cell()), geo.pages_per_lwl());
    if page_type == 1.0 {
        bits
    } else {
        bits * page_type
    }
}

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
        // One array replays a random interleaving of programs, reads,
        // erases and aging with read disturb tracked, page-type spread and
        // weak blocks on. Every latency and error-bit answer of its memo
        // must equal the uncached `LatencyModel` / `BerModel` formulas
        // evaluated on the array's own P/E and disturb state, to the bit,
        // which pins the memo's invalidation on every P/E change.
        let geo = Geometry::new(2, 1, 2, 3, 2, CellType::Tlc);
        let config = FlashConfig { geometry: geo.clone(), variation: VariationConfig::default() };
        let mut array = FlashArray::with_faults(config, seed, mixed_faults());
        array.set_track_disturb(true);
        let blocks: Vec<BlockAddr> = geo.blocks().collect();
        let per_lwl = geo.pages_per_lwl();
        for (kind, b, pick, age) in ops {
            let addr = blocks[b];
            // A page on a word-line the block has already programmed, when
            // it has any.
            let written = array.next_lwl(addr).unwrap().0.max(1);
            let pt = PageType::from_index(geo.cell(), pick % per_lwl).unwrap();
            let page = addr.wl(LwlId((pick / per_lwl) % written)).page(pt);
            let pe = array.pe_cycles(addr).unwrap();
            let model = array.latency_model().clone();
            match kind {
                0 | 1 => {
                    let t = array.erase_block(addr).unwrap();
                    prop_assert_eq!(t.to_bits(), model.erase_latency_us(addr, pe).to_bits());
                }
                2 | 3 => {
                    let wl = addr.wl(array.next_lwl(addr).unwrap());
                    let data = vec![u64::from(pick); per_lwl as usize];
                    if let Ok(t) = array.program_wl(wl, &data) {
                        prop_assert_eq!(t.to_bits(), model.program_latency_us(wl, pe).to_bits());
                    }
                }
                4..=7 => {
                    if let Ok((_, t)) = array.read_page(page) {
                        prop_assert_eq!(t.to_bits(), model.read_latency_us(page, pe).to_bits());
                    }
                }
                8 => array.age_block(addr, 1 + pick % 500).unwrap(),
                _ => array.age_all(1 + pick % 50),
            }
            let retention = [0.0, 0.0, 3.5, 2000.0][age];
            prop_assert_eq!(
                array.expected_error_bits(page, retention).to_bits(),
                model_error_bits(&array, page, retention).to_bits()
            );
        }
    }

    #[test]
    fn word_line_view_answers_what_per_page_reads_answer(
        seed in any::<u64>(),
        cell in prop_oneof![Just(CellType::Mlc), Just(CellType::Tlc), Just(CellType::Qlc)],
        ops in collection::vec((0u8..12, 0usize..4, any::<u32>(), 0usize..4), 1..160),
    ) {
        // Twin arrays replay the same random stream of erases, programs
        // (some failing), torn word-lines, aging and scans. One scans each
        // word-line through a `WordLine` view, the other with per-page
        // `read_oob` / `read_page` / `expected_error_bits` calls in the
        // same order. Every answer, error and disturb count must agree to
        // the bit, on readable, unwritten, torn and program-failed
        // word-lines alike. A view comes from a handle taken now, from a
        // handle taken before any operation and never refreshed, or from
        // one kept and refreshed by its reads; the last two were taken
        // before erases, reprograms, `age_block` and `age_all`.
        let geo = Geometry::new(2, 1, 2, 3, 2, cell);
        let config = FlashConfig { geometry: geo.clone(), variation: VariationConfig::default() };
        let faults = FaultConfig { program_fail_prob: 0.04, ..mixed_faults() };
        let mut view = FlashArray::with_faults(config.clone(), seed, faults.clone());
        let mut paged = FlashArray::with_faults(config, seed, faults);
        view.set_track_disturb(true);
        paged.set_track_disturb(true);
        let blocks: Vec<BlockAddr> = geo.blocks().collect();
        let taken: Vec<BlockHandle> = blocks.iter().map(|&a| view.block(a).unwrap()).collect();
        let mut kept = taken.clone();
        let per_lwl = geo.pages_per_lwl();
        for (kind, b, pick, age) in ops {
            let addr = blocks[b];
            let lwls = geo.lwls_per_block();
            let wl = addr.wl(LwlId(pick % lwls));
            let next = addr.wl(view.next_lwl(addr).unwrap());
            let data: Vec<u64> = (0..u64::from(per_lwl)).map(|k| u64::from(pick) + k).collect();
            let retention = [0.0, 0.0, 3.5, 2000.0][age];
            match kind {
                0 => {
                    let (a, b) = (view.erase_block(addr), paged.erase_block(addr));
                    prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
                }
                1 => {
                    let (a, b) = (view.program_wl(next, &data), paged.program_wl(next, &data));
                    prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
                }
                2 | 3 => {
                    // With a distinct OOB record per page, so a view that
                    // mixed up its slots would show.
                    let oob: Vec<PageOob> = data
                        .iter()
                        .map(|&lpn| PageOob { lpn, seq: lpn ^ 0x5a, sb_id: 3, member_slot: b as u16 })
                        .collect();
                    let (a, b) = (
                        view.program_wl_with_oob(next, &data, &oob),
                        paged.program_wl_with_oob(next, &data, &oob),
                    );
                    prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
                }
                4 => {
                    if next.lwl.0 < lwls {
                        view.mark_torn(next).unwrap();
                        paged.mark_torn(next).unwrap();
                    }
                }
                5 => {
                    view.age_block(addr, 1 + pick % 300).unwrap();
                    paged.age_block(addr, 1 + pick % 300).unwrap();
                }
                6 => {
                    view.age_all(1 + pick % 50);
                    paged.age_all(1 + pick % 50);
                }
                _ => {
                    // A patrol-style scan: each page's OOB, then its read,
                    // then its error bits (which see that read's disturb).
                    let first = wl.page(PageType::for_cell(cell)[0]);
                    let line = match (pick >> 8) % 3 {
                        0 => view.word_line(wl),
                        1 => view.line(&mut taken[b].clone(), wl.lwl),
                        _ => view.line(&mut kept[b], wl.lwl),
                    };
                    match line {
                        Ok(line) => {
                            prop_assert_eq!(line.pages(), per_lwl);
                            for k in 0..line.pages() {
                                let page = line.page(k);
                                prop_assert_eq!(Ok(line.oob(k)), paged.read_oob(page));
                                let (d, t) = (line.peek(k), line.read(k));
                                let (pd, pt) = paged.read_page(page).unwrap();
                                prop_assert_eq!((d, t.to_bits()), (pd, pt.to_bits()));
                                prop_assert_eq!(
                                    line.expected_error_bits(k, retention).to_bits(),
                                    paged.expected_error_bits(page, retention).to_bits()
                                );
                            }
                        }
                        Err(e) => {
                            prop_assert_eq!(Err(e.clone()), paged.read_oob(first));
                            prop_assert_eq!(Err(e), paged.read_page(first).map(|_| ()));
                        }
                    }
                }
            }
            for page in geo.lwls().flat_map(|l| {
                PageType::for_cell(cell).iter().map(move |&pt| addr.wl(l).page(pt))
            }) {
                prop_assert_eq!(view.read_disturbs(page), paged.read_disturbs(page));
                prop_assert_eq!(
                    view.expected_error_bits(page, retention).to_bits(),
                    paged.expected_error_bits(page, retention).to_bits()
                );
            }
        }
    }

    #[test]
    fn index_reads_answer_what_per_page_reads_answer(
        seed in any::<u64>(),
        cell in prop_oneof![Just(CellType::Mlc), Just(CellType::Tlc), Just(CellType::Qlc)],
        ops in collection::vec((0u8..10, 0usize..8, any::<u32>(), 0usize..4), 1..120),
    ) {
        // Twin arrays replay the same random stream of erases, programs
        // (some failing), torn word-lines and aging, on two planes per chip
        // so the index decodes every address field. A scan reads every page
        // index in order, one array by `read_at`, the other by `read_page`
        // of the decoded address: the tR bits, the error and the page it
        // names, the error bits and the payload must agree, and so must
        // every page's disturb count after every step. Peeks, by index or
        // through a word-line view, must leave the disturb counts alone.
        let geo = Geometry::new(2, 2, 2, 3, 2, cell);
        let config = FlashConfig { geometry: geo.clone(), variation: VariationConfig::default() };
        let faults = FaultConfig { program_fail_prob: 0.04, ..mixed_faults() };
        let mut indexed = FlashArray::with_faults(config.clone(), seed, faults.clone());
        let mut paged = FlashArray::with_faults(config, seed, faults);
        indexed.set_track_disturb(true);
        paged.set_track_disturb(true);
        let blocks: Vec<BlockAddr> = geo.blocks().collect();
        let pages: Vec<PageAddr> =
            (0..geo.total_pages() as usize).map(|i| geo.page_at_index(i)).collect();
        let disturbs = |array: &FlashArray| -> Vec<u64> {
            pages.iter().map(|&page| array.read_disturbs(page)).collect()
        };
        let per_lwl = geo.pages_per_lwl();
        for (kind, b, pick, age) in ops {
            let addr = blocks[b];
            let lwls = geo.lwls_per_block();
            let next = addr.wl(indexed.next_lwl(addr).unwrap());
            let data: Vec<u64> = (0..u64::from(per_lwl)).map(|k| u64::from(pick) + k).collect();
            let retention = [0.0, 0.0, 3.5, 2000.0][age];
            match kind {
                0 => {
                    let (x, y) = (indexed.erase_block(addr), paged.erase_block(addr));
                    prop_assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits));
                }
                1 | 2 => {
                    let (x, y) = (indexed.program_wl(next, &data), paged.program_wl(next, &data));
                    prop_assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits));
                }
                3 => {
                    if next.lwl.0 < lwls {
                        indexed.mark_torn(next).unwrap();
                        paged.mark_torn(next).unwrap();
                    }
                }
                4 => {
                    indexed.age_block(addr, 1 + pick % 300).unwrap();
                    paged.age_block(addr, 1 + pick % 300).unwrap();
                }
                5 => {
                    indexed.age_all(1 + pick % 50);
                    paged.age_all(1 + pick % 50);
                }
                6 => {
                    // Peeks through a word-line view record nothing.
                    let before = disturbs(&indexed);
                    if let Ok(line) = indexed.word_line(addr.wl(LwlId(pick % lwls))) {
                        for k in 0..line.pages() {
                            let _ = line.peek(k);
                        }
                    }
                    prop_assert_eq!(disturbs(&indexed), before);
                }
                _ => {
                    for (index, &page) in pages.iter().enumerate() {
                        match indexed.read_at(index) {
                            Ok(read) => {
                                let (tag, t) = paged.read_page(page).unwrap();
                                prop_assert_eq!(read.us().to_bits(), t.to_bits(), "{}", page);
                                prop_assert_eq!(
                                    read.expected_error_bits(retention).to_bits(),
                                    paged.expected_error_bits(page, retention).to_bits()
                                );
                                let before = disturbs(&indexed);
                                prop_assert_eq!(read.peek(), tag);
                                prop_assert_eq!(disturbs(&indexed), before, "a peek is no read");
                            }
                            Err(e) => prop_assert_eq!(Err(e), paged.read_page(page).map(drop)),
                        }
                    }
                }
            }
            prop_assert_eq!(disturbs(&indexed), disturbs(&paged));
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
