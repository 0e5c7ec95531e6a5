//! Logical-to-physical page mapping with validity tracking.
//!
//! Both directions are flat 32-bit tables: L2P holds each logical page's
//! [`Geometry::page_index`] and P2L, indexed by that index, holds each
//! page's logical page, with [`NO_PAGE`] for "none" in both. A per-block
//! valid-page counter is maintained incrementally on every map/unmap/trim.
//! Validity queries ([`Mapping::valid_in_block_count`]) are O(1) counter
//! reads and [`Mapping::valid_in_block`] walks only the block's contiguous
//! index range, so garbage collection never rescans the whole device. A
//! [`PageAddr`] is decoded from an index only when a caller asks for one.
//!
//! The mapping records which logical pages changed since the last
//! [`Mapping::take_changed`]; the SPOR checkpoint uses that record to
//! refresh only what moved. The unit tests hold every query and the record
//! to a scan-based reference model.

use flash_model::{BlockAddr, Geometry, PageAddr};

/// The "no page" sentinel of every 32-bit per-page table in the FTL: an
/// L2P or checkpoint entry of a logical page that maps to no page, and a
/// P2L entry of a page that holds no valid logical page. Safe because
/// [`Mapping::new`] admits only geometries whose page indices, and so
/// whose logical pages, all lie below it.
pub(crate) const NO_PAGE: u32 = u32::MAX;

/// A set of logical pages: a per-LPN mark bitset deduplicates, and the list
/// holds each member once in insertion order, so clearing or draining the
/// set costs O(members), not O(capacity). The bitset grows to the largest
/// LPN inserted.
#[derive(Debug, Clone, Default)]
pub(crate) struct LpnSet {
    marks: Vec<u64>,
    list: Vec<u64>,
}

impl LpnSet {
    /// An empty set whose bitset is sized for LPNs below `capacity`.
    fn new(capacity: u64) -> Self {
        LpnSet { marks: vec![0; (capacity as usize).div_ceil(64)], list: Vec::new() }
    }

    pub(crate) fn insert(&mut self, lpn: u64) {
        let (word, bit) = ((lpn / 64) as usize, 1u64 << (lpn % 64));
        if word >= self.marks.len() {
            self.marks.resize(word + 1, 0);
        }
        if self.marks[word] & bit == 0 {
            self.marks[word] |= bit;
            self.list.push(lpn);
        }
    }

    pub(crate) fn contains(&self, lpn: u64) -> bool {
        self.marks.get((lpn / 64) as usize).is_some_and(|word| word & (1 << (lpn % 64)) != 0)
    }

    /// Moves the members into `out` (cleared first), in insertion order,
    /// and empties the set. Swaps buffers with `out`, so a caller reusing
    /// one `Vec` allocates nothing in steady state.
    fn take(&mut self, out: &mut Vec<u64>) {
        out.clear();
        self.unmark();
        std::mem::swap(out, &mut self.list);
    }

    pub(crate) fn clear(&mut self) {
        self.unmark();
        self.list.clear();
    }

    fn unmark(&mut self) {
        for &lpn in &self.list {
            // Every set bit of the word belongs to a listed LPN.
            self.marks[(lpn / 64) as usize] = 0;
        }
    }
}

/// Page-level L2P/P2L mapping.
///
/// Invariant: L2P maps `lpn` to page index `page` iff P2L maps `page` to
/// `lpn`; a physical page with no P2L entry is invalid (stale or never
/// written). Each block's valid counter counts its P2L entries, and the
/// total counts them all.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// Page index per LPN; [`NO_PAGE`] = unmapped.
    l2p: Vec<u32>,
    /// LPN per page index; [`NO_PAGE`] = stale or never written.
    p2l: Vec<u32>,
    /// Valid-page count per `Geometry::block_index`.
    block_valid: Vec<u32>,
    /// Total valid pages (sum of `block_valid`).
    valid: usize,
    /// Geometry defining the flattening.
    geo: Geometry,
    /// Every LPN passed through `map`, `unmap` or `invalidate_block` since
    /// the last [`Mapping::take_changed`]. Every L2P change — writes,
    /// relocations, trims and erase sweeps — funnels through those three,
    /// so the record is complete; a recovery [`Mapping::rebuild`] replaces
    /// the whole mapping and resets it.
    changes: LpnSet,
}

impl Mapping {
    /// A mapping exporting `capacity` logical pages over `geo`'s physical
    /// space, all unmapped.
    ///
    /// # Panics
    ///
    /// Panics unless `geo.total_pages()` and `capacity` both lie below
    /// `u32::MAX`, the tables' "no page" sentinel: every page index and
    /// every logical page must fit a 32-bit entry. `FtlConfig::validate`
    /// rejects such geometries before a device is built.
    #[must_use]
    pub fn new(capacity: u64, geo: &Geometry) -> Self {
        let pages = geo.total_pages();
        assert!(pages < u64::from(NO_PAGE), "{pages} physical pages overflow 32-bit page indices");
        assert!(capacity < u64::from(NO_PAGE), "{capacity} logical pages overflow 32-bit LPNs");
        Mapping {
            l2p: vec![NO_PAGE; capacity as usize],
            p2l: vec![NO_PAGE; pages as usize],
            block_valid: vec![0; geo.total_blocks() as usize],
            valid: 0,
            geo: geo.clone(),
            changes: LpnSet::new(capacity),
        }
    }

    /// The block index of page index `page`.
    fn block_of(&self, page: usize) -> usize {
        page / self.geo.pages_per_block() as usize
    }

    /// Records `lpn` at page index `page`, counting it valid.
    fn set_reverse(&mut self, page: usize, lpn: usize) {
        assert!(self.p2l[page] == NO_PAGE, "physical page written twice without erase");
        // `lpn` is below the capacity, which `Mapping::new` bounds below
        // the sentinel, as it bounds every page index.
        self.p2l[page] = lpn as u32;
        let block = self.block_of(page);
        self.block_valid[block] += 1;
        self.valid += 1;
    }

    /// Drops the reverse record of page index `page`, fixing the counters.
    fn clear_reverse(&mut self, page: u32) {
        let page = page as usize;
        if self.p2l[page] != NO_PAGE {
            self.p2l[page] = NO_PAGE;
            let block = self.block_of(page);
            self.block_valid[block] -= 1;
            self.valid -= 1;
        }
    }

    /// Moves every logical page changed since the previous drain into
    /// `out` (cleared first; each LPN once, in first-change order) and
    /// resets the record. Swaps buffers with `out`, so a caller reusing
    /// one `Vec` allocates nothing in steady state.
    pub fn take_changed(&mut self, out: &mut Vec<u64>) {
        self.changes.take(out);
    }

    /// Exported logical capacity in pages.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// Physical location of a logical page.
    #[inline]
    #[must_use]
    pub fn lookup(&self, lpn: u64) -> Option<PageAddr> {
        let page = *self.l2p.get(lpn as usize)?;
        (page != NO_PAGE).then(|| self.geo.page_at_index(page as usize))
    }

    /// Location of a logical page as a [`Geometry::page_index`], or
    /// [`NO_PAGE`] when it is unmapped: the L2P entry itself.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub(crate) fn page_index(&self, lpn: u64) -> u32 {
        self.l2p[lpn as usize]
    }

    /// Logical page stored at a physical page, if it is valid.
    #[must_use]
    pub fn reverse(&self, ppa: PageAddr) -> Option<u64> {
        self.reverse_at(self.geo.page_index(ppa))
    }

    /// [`Mapping::reverse`] of the page at [`Geometry::page_index`] `page`,
    /// for a caller that holds the index: the P2L entry itself.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub(crate) fn reverse_at(&self, page: usize) -> Option<u64> {
        let lpn = self.p2l[page];
        (lpn != NO_PAGE).then_some(u64::from(lpn))
    }

    /// Whether a physical page holds valid data.
    #[must_use]
    pub fn is_valid(&self, ppa: PageAddr) -> bool {
        self.reverse(ppa).is_some()
    }

    /// Number of valid physical pages.
    #[must_use]
    pub fn valid_pages(&self) -> usize {
        self.valid
    }

    /// Maps `lpn` to `ppa`, invalidating any previous location.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range or `ppa` already holds another
    /// logical page (a physical page is written once per erase cycle).
    pub fn map(&mut self, lpn: u64, ppa: PageAddr) {
        assert!(lpn < self.capacity(), "lpn {lpn} out of range");
        self.changes.insert(lpn);
        let old = self.l2p[lpn as usize];
        if old != NO_PAGE {
            self.clear_reverse(old);
        }
        let page = self.geo.page_index(ppa);
        self.set_reverse(page, lpn as usize);
        self.l2p[lpn as usize] = page as u32;
    }

    /// Unmaps a logical page (trim); returns its old location. Records the
    /// LPN as changed even when it was already unmapped: a trim of an
    /// unmapped page still moves its tombstone.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub fn unmap(&mut self, lpn: u64) -> Option<PageAddr> {
        assert!(lpn < self.capacity(), "lpn {lpn} out of range");
        self.changes.insert(lpn);
        let old = std::mem::replace(&mut self.l2p[lpn as usize], NO_PAGE);
        (old != NO_PAGE).then(|| {
            self.clear_reverse(old);
            self.geo.page_at_index(old as usize)
        })
    }

    /// Drops validity records for every page of a block (after erase).
    pub fn invalidate_block(&mut self, block: BlockAddr) {
        // Erase only happens after relocation, so every page of the block
        // must already be invalid; this is a defensive sweep.
        let bi = self.geo.block_index(block);
        if self.block_valid[bi] == 0 {
            return;
        }
        let ppb = self.geo.pages_per_block() as usize;
        let base = bi * ppb;
        for slot in &mut self.p2l[base..base + ppb] {
            let lpn = std::mem::replace(slot, NO_PAGE);
            if lpn != NO_PAGE {
                self.l2p[lpn as usize] = NO_PAGE;
                self.changes.insert(u64::from(lpn));
                self.valid -= 1;
            }
        }
        self.block_valid[bi] = 0;
    }

    /// Replaces the whole mapping in one pass with `pages`, the location
    /// of every logical page in LPN order as a [`Geometry::page_index`]
    /// ([`NO_PAGE`]: unmapped). L2P comes straight from `pages`, then P2L
    /// and the block counters are scattered from it. The change record is
    /// reset: the caller holds the state it rebuilt from.
    ///
    /// # Panics
    ///
    /// Panics if `pages` does not hold one entry per logical page, or two
    /// logical pages share a physical page.
    pub(crate) fn rebuild(&mut self, pages: impl IntoIterator<Item = u32>) {
        let capacity = self.l2p.len();
        self.l2p.clear();
        self.l2p.extend(pages);
        assert_eq!(self.l2p.len(), capacity, "one location per logical page");
        self.p2l.fill(NO_PAGE);
        self.block_valid.fill(0);
        self.valid = 0;
        for lpn in 0..capacity {
            let page = self.l2p[lpn];
            if page != NO_PAGE {
                self.set_reverse(page as usize, lpn);
            }
        }
        self.changes.clear();
    }

    /// Number of valid pages currently stored in a block: one counter read.
    #[must_use]
    pub fn valid_in_block_count(&self, block: BlockAddr) -> usize {
        self.block_valid[self.geo.block_index(block)] as usize
    }

    /// Valid logical pages currently stored in a block, with locations, in
    /// `(lwl, page)` program order. Alloc-free; collect into a reusable
    /// buffer when the mapping must be mutated while iterating.
    pub fn valid_in_block(&self, block: BlockAddr) -> impl Iterator<Item = (u64, PageAddr)> + '_ {
        let ppb = self.geo.pages_per_block() as usize;
        let base = self.geo.block_index(block) * ppb;
        self.p2l[base..base + ppb]
            .iter()
            .enumerate()
            .filter(|&(_, &lpn)| lpn != NO_PAGE)
            .map(move |(off, &lpn)| (u64::from(lpn), self.geo.page_at_offset(block, off)))
    }

    /// Checks the L2P/P2L bijection, the block counters and the total (for
    /// tests).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let Mapping { l2p, p2l, block_valid, valid, geo, .. } = self;
        let forward_ok = l2p
            .iter()
            .enumerate()
            .filter(|&(_, &page)| page != NO_PAGE)
            .all(|(lpn, &page)| p2l.get(page as usize) == Some(&(lpn as u32)));
        if !forward_ok {
            return false;
        }
        let ppb = geo.pages_per_block() as usize;
        let mut total = 0usize;
        for (bi, &count) in block_valid.iter().enumerate() {
            let base = bi * ppb;
            let live = p2l[base..base + ppb].iter().filter(|&&l| l != NO_PAGE).count();
            if live != count as usize {
                return false;
            }
            total += live;
        }
        if total != *valid {
            return false;
        }
        p2l.iter()
            .enumerate()
            .filter(|&(_, &lpn)| lpn != NO_PAGE)
            .all(|(page, &lpn)| l2p.get(lpn as usize) == Some(&(page as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_model::{BlockAddr, BlockId, CellType, ChipId, LwlId, PageType, PlaneId};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn geo() -> Geometry {
        Geometry::new(2, 1, 4, 2, 2, CellType::Tlc)
    }

    fn ppa(b: u32, lwl: u32, pt: PageType) -> PageAddr {
        BlockAddr::new(ChipId(0), PlaneId(0), BlockId(b)).wl(LwlId(lwl)).page(pt)
    }

    #[test]
    fn map_and_lookup_roundtrip() {
        let mut m = Mapping::new(10, &geo());
        m.map(3, ppa(0, 0, PageType::Lsb));
        assert_eq!(m.lookup(3), Some(ppa(0, 0, PageType::Lsb)));
        assert_eq!(m.reverse(ppa(0, 0, PageType::Lsb)), Some(3));
        assert!(m.is_consistent());
    }

    #[test]
    fn remap_invalidates_old_location() {
        let mut m = Mapping::new(10, &geo());
        m.map(3, ppa(0, 0, PageType::Lsb));
        m.map(3, ppa(1, 0, PageType::Lsb));
        assert!(!m.is_valid(ppa(0, 0, PageType::Lsb)));
        assert_eq!(m.lookup(3), Some(ppa(1, 0, PageType::Lsb)));
        assert!(m.is_consistent());
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn double_write_to_same_ppa_panics() {
        let mut m = Mapping::new(10, &geo());
        m.map(1, ppa(0, 0, PageType::Lsb));
        m.map(2, ppa(0, 0, PageType::Lsb));
    }

    #[test]
    fn unmap_clears_both_directions() {
        let mut m = Mapping::new(10, &geo());
        m.map(3, ppa(0, 0, PageType::Lsb));
        assert_eq!(m.unmap(3), Some(ppa(0, 0, PageType::Lsb)));
        assert_eq!(m.lookup(3), None);
        assert_eq!(m.valid_pages(), 0);
        assert!(m.is_consistent());
    }

    #[test]
    fn valid_in_block_filters_and_sorts() {
        let mut m = Mapping::new(10, &geo());
        m.map(1, ppa(0, 1, PageType::Lsb));
        m.map(2, ppa(0, 0, PageType::Msb));
        m.map(3, ppa(1, 0, PageType::Lsb));
        let blk0 = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(0));
        let v: Vec<_> = m.valid_in_block(blk0).collect();
        assert_eq!(v.len(), 2);
        assert_eq!(m.valid_in_block_count(blk0), 2);
        assert_eq!(v[0].0, 2, "WL0 before WL1");
    }

    #[test]
    fn invalidate_block_sweeps_everything() {
        let mut m = Mapping::new(10, &geo());
        m.map(1, ppa(0, 0, PageType::Lsb));
        m.map(2, ppa(0, 1, PageType::Csb));
        m.invalidate_block(BlockAddr::new(ChipId(0), PlaneId(0), BlockId(0)));
        assert_eq!(m.valid_pages(), 0);
        assert_eq!(m.lookup(1), None);
        assert!(m.is_consistent());
    }

    #[test]
    fn block_counters_track_map_unmap_remap() {
        let mut m = Mapping::new(20, &geo());
        let blk0 = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(0));
        let blk1 = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(1));
        m.map(1, ppa(0, 0, PageType::Lsb));
        m.map(2, ppa(0, 0, PageType::Csb));
        m.map(3, ppa(1, 0, PageType::Lsb));
        assert_eq!(m.valid_in_block_count(blk0), 2);
        assert_eq!(m.valid_in_block_count(blk1), 1);
        // Remap lpn 1 into block 1: counters move with it.
        m.map(1, ppa(1, 0, PageType::Csb));
        assert_eq!(m.valid_in_block_count(blk0), 1);
        assert_eq!(m.valid_in_block_count(blk1), 2);
        m.unmap(2);
        assert_eq!(m.valid_in_block_count(blk0), 0);
        assert!(m.is_consistent());
    }

    #[test]
    fn change_log_records_each_changed_lpn_once_per_drain() {
        let mut m = Mapping::new(130, &geo());
        let mut out = vec![99];
        m.map(1, ppa(0, 0, PageType::Lsb));
        m.take_changed(&mut out);
        assert_eq!(out, [1], "a new mapping records from the start");
        m.map(1, ppa(0, 1, PageType::Lsb));
        m.map(129, ppa(0, 0, PageType::Csb));
        m.map(1, ppa(1, 0, PageType::Lsb));
        m.unmap(70);
        m.take_changed(&mut out);
        assert_eq!(out, [1, 129, 70], "first-change order, deduplicated");
        m.take_changed(&mut out);
        assert!(out.is_empty(), "a drain resets the record");
        m.map(2, ppa(0, 1, PageType::Csb));
        m.invalidate_block(BlockAddr::new(ChipId(0), PlaneId(0), BlockId(0)));
        m.take_changed(&mut out);
        out.sort_unstable();
        assert_eq!(out, [2, 129], "an erase sweep records every LPN it unmaps");
        assert!(m.is_consistent());
    }

    /// Applies `steps` random maps (onto free pages only), unmaps and erase
    /// sweeps drawn from `seed`.
    fn drive(m: &mut Mapping, seed: u64, steps: usize) {
        let geo = geo();
        let blocks: Vec<BlockAddr> = geo.blocks().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let capacity = m.capacity();
        for _ in 0..steps {
            match rng.random_range(0u32..10) {
                0..=6 => {
                    let ppa = geo.page_at_index(rng.random_range(0..geo.total_pages() as usize));
                    if !m.is_valid(ppa) {
                        m.map(rng.random_range(0..capacity), ppa);
                    }
                }
                7..=8 => drop(m.unmap(rng.random_range(0..capacity))),
                _ => m.invalidate_block(blocks[rng.random_range(0..blocks.len())]),
            }
        }
    }

    #[test]
    fn one_pass_rebuild_reproduces_the_mapping_it_reads() {
        let geo = geo();
        let blocks: Vec<BlockAddr> = geo.blocks().collect();
        let pages: Vec<PageAddr> =
            (0..geo.total_pages() as usize).map(|i| geo.page_at_index(i)).collect();
        for seed in 0..24 {
            let mut source = Mapping::new(60, &geo);
            drive(&mut source, seed, 400);
            // The target has its own history, so a rebuild that keeps
            // any stale reverse entry or block count shows.
            let mut target = Mapping::new(60, &geo);
            drive(&mut target, seed + 1000, 400);
            let locations: Vec<u32> =
                (0..source.capacity()).map(|lpn| source.page_index(lpn)).collect();
            target.rebuild(locations.iter().copied());
            let tag = format!("seed {seed}");
            assert!(target.is_consistent(), "{tag}: bijection and counters hold");
            assert_eq!(target.valid_pages(), source.valid_pages(), "{tag}: valid pages");
            for lpn in 0..source.capacity() {
                assert_eq!(target.lookup(lpn), source.lookup(lpn), "{tag}: lookup({lpn})");
            }
            for &ppa in &pages {
                assert_eq!(target.reverse(ppa), source.reverse(ppa), "{tag}: reverse({ppa})");
            }
            for &b in &blocks {
                let (got, want) = (target.valid_in_block_count(b), source.valid_in_block_count(b));
                assert_eq!(got, want, "{tag}: valid_in_block_count({b})");
                let got: Vec<_> = target.valid_in_block(b).collect();
                let want: Vec<_> = source.valid_in_block(b).collect();
                assert_eq!(got, want, "{tag}: valid_in_block({b})");
            }
            let mut changed = vec![1];
            target.take_changed(&mut changed);
            assert!(changed.is_empty(), "{tag}: a rebuild resets the change record");
        }
    }

    #[test]
    fn lookup_out_of_range_is_none() {
        let m = Mapping::new(4, &geo());
        assert_eq!(m.lookup(99), None);
    }

    /// The model the tables are held to: an L2P of addresses and nothing
    /// else. It answers reverse lookups, valid counts and block listings
    /// by scanning that L2P, and refuses to map a page twice.
    #[derive(Debug)]
    struct Reference {
        l2p: Vec<Option<PageAddr>>,
        /// Every LPN changed since the last drain, once, in first-change
        /// order.
        changed: Vec<u64>,
    }

    impl Reference {
        fn new(capacity: u64) -> Self {
            Reference { l2p: vec![None; capacity as usize], changed: Vec::new() }
        }

        fn reverse(&self, ppa: PageAddr) -> Option<u64> {
            let mut holders =
                (0..self.l2p.len() as u64).filter(|&l| self.l2p[l as usize] == Some(ppa));
            let lpn = holders.next();
            assert_eq!(holders.next(), None, "{ppa} holds two logical pages");
            lpn
        }

        /// [`Reference::reverse`] of every page at once, by page index on
        /// `geo`, from one scan instead of one per page.
        fn reverse_table(&self, geo: &Geometry) -> Vec<Option<u64>> {
            let mut table = vec![None; geo.total_pages() as usize];
            for (lpn, ppa) in self.l2p.iter().enumerate() {
                if let Some(ppa) = ppa {
                    let holder = table[geo.page_index(*ppa)].replace(lpn as u64);
                    assert_eq!(holder, None, "{ppa} holds two logical pages");
                }
            }
            table
        }

        fn valid_pages(&self) -> usize {
            self.l2p.iter().flatten().count()
        }

        /// The block's valid pages in `(lwl, slot)` order (page-type
        /// indices order a word-line's pages as their slots do).
        fn valid_in_block(&self, block: BlockAddr) -> Vec<(u64, PageAddr)> {
            let mut held: Vec<(u64, PageAddr)> = (0..self.l2p.len() as u64)
                .filter_map(|l| self.l2p[l as usize].map(|p| (l, p)))
                .filter(|(_, p)| p.wl.block == block)
                .collect();
            held.sort_by_key(|&(_, p)| (p.wl.lwl, p.page.index()));
            held
        }

        fn record(&mut self, lpn: u64) {
            if !self.changed.contains(&lpn) {
                self.changed.push(lpn);
            }
        }

        fn map(&mut self, lpn: u64, ppa: PageAddr) {
            assert_eq!(self.reverse(ppa), None, "{ppa} written twice without erase");
            self.l2p[lpn as usize] = Some(ppa);
            self.record(lpn);
        }

        fn unmap(&mut self, lpn: u64) -> Option<PageAddr> {
            self.record(lpn);
            self.l2p[lpn as usize].take()
        }

        /// Unmaps the block's pages in page order, recording each LPN.
        fn invalidate_block(&mut self, block: BlockAddr) {
            for (lpn, _) in self.valid_in_block(block) {
                self.l2p[lpn as usize] = None;
                self.record(lpn);
            }
        }
    }

    /// One step against the mapping and the reference.
    #[derive(Debug, Clone, Copy)]
    enum MapStep {
        /// Map a logical page onto a page, if that page is free.
        Map { lpn: u64, page: usize },
        /// Trim a logical page.
        Unmap { lpn: u64 },
        /// Sweep a block, as GC does after relocating and erasing it.
        InvalidateBlock { block: usize },
        /// Give the reference a fresh random state drawn from `seed` and
        /// rebuild the mapping, with its own history, from its locations.
        Rebuild { seed: u64 },
        /// Drain both change records.
        TakeChanged,
    }

    fn arb_map_steps(
        capacity: u64,
        total_pages: usize,
        total_blocks: usize,
        len: usize,
    ) -> impl Strategy<Value = Vec<MapStep>> {
        proptest::collection::vec(
            (0u8..16, 0..capacity, 0..total_pages, any::<u64>()).prop_map(
                move |(kind, lpn, page, seed)| match kind {
                    0..=8 => MapStep::Map { lpn, page },
                    9..=11 => MapStep::Unmap { lpn },
                    12..=13 => MapStep::InvalidateBlock { block: page % total_blocks },
                    14 => MapStep::Rebuild { seed },
                    _ => MapStep::TakeChanged,
                },
            ),
            0..len,
        )
    }

    /// Compares every query of `m` with `reference`, and the change record
    /// `m` would drain now.
    fn agree(m: &Mapping, reference: &Reference, geo: &Geometry) -> Result<(), TestCaseError> {
        prop_assert!(m.is_consistent(), "bijection and counters");
        prop_assert_eq!(m.valid_pages(), reference.valid_pages(), "valid_pages");
        prop_assert_eq!(m.lookup(m.capacity()), None, "lookup past the capacity");
        for lpn in 0..m.capacity() {
            let want = reference.l2p[lpn as usize];
            prop_assert_eq!(m.lookup(lpn), want, "lookup({})", lpn);
            let index = want.map_or(NO_PAGE, |p| geo.page_index(p) as u32);
            prop_assert_eq!(m.page_index(lpn), index, "page_index({})", lpn);
        }
        for (index, want) in reference.reverse_table(geo).into_iter().enumerate() {
            let ppa = geo.page_at_index(index);
            prop_assert_eq!(m.reverse(ppa), want, "reverse({})", ppa);
            prop_assert_eq!(m.reverse_at(index), want, "reverse_at({})", index);
        }
        for block in geo.blocks() {
            let want = reference.valid_in_block(block);
            prop_assert_eq!(m.valid_in_block_count(block), want.len(), "count of {}", block);
            let got: Vec<_> = m.valid_in_block(block).collect();
            prop_assert_eq!(got, want, "valid_in_block({})", block);
        }
        let mut changed = Vec::new();
        m.clone().take_changed(&mut changed);
        prop_assert_eq!(&changed, &reference.changed, "change record");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn dense_mapping_agrees_with_the_reference(
            steps in arb_map_steps(100, 144, 12, 300),
        ) {
            // Random write, trim, GC-sweep, recovery-rebuild and checkpoint
            // sequences: after every step each query and the change record
            // must answer as the reference does.
            let geo = Geometry::new(2, 2, 3, 2, 2, CellType::Tlc);
            let blocks: Vec<_> = geo.blocks().collect();
            let pages = geo.total_pages() as usize;
            prop_assert_eq!((blocks.len(), pages), (12, 144));
            let mut m = Mapping::new(100, &geo);
            let mut reference = Reference::new(100);
            for step in steps {
                match step {
                    MapStep::Map { lpn, page } => {
                        let ppa = geo.page_at_index(page);
                        // A physical page is programmed once per erase
                        // cycle; the two agree on whether this one is taken.
                        let taken = reference.reverse(ppa).is_some();
                        prop_assert_eq!(m.is_valid(ppa), taken, "is_valid({})", ppa);
                        if !taken {
                            m.map(lpn, ppa);
                            reference.map(lpn, ppa);
                        }
                    }
                    MapStep::Unmap { lpn } => {
                        prop_assert_eq!(m.unmap(lpn), reference.unmap(lpn), "unmap({})", lpn);
                    }
                    MapStep::InvalidateBlock { block } => {
                        m.invalidate_block(blocks[block]);
                        reference.invalidate_block(blocks[block]);
                    }
                    MapStep::Rebuild { seed } => {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let mut fresh = Reference::new(100);
                        for lpn in 0..100 {
                            let ppa = geo.page_at_index(rng.random_range(0..pages));
                            if rng.random_range(0u32..2) == 0 && fresh.reverse(ppa).is_none() {
                                fresh.l2p[lpn] = Some(ppa);
                            }
                        }
                        reference = fresh;
                        let index = |p: &Option<PageAddr>| p.map_or(NO_PAGE, |p| geo.page_index(p) as u32);
                        m.rebuild(reference.l2p.iter().map(index));
                    }
                    MapStep::TakeChanged => {
                        let mut changed = vec![u64::MAX];
                        m.take_changed(&mut changed);
                        prop_assert_eq!(&changed, &reference.changed, "drained record");
                        reference.changed.clear();
                    }
                }
                agree(&m, &reference, &geo)?;
            }
        }
    }
}
