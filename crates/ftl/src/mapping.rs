//! Logical-to-physical page mapping with validity tracking.
//!
//! Two interchangeable stores implement the same semantics:
//!
//! * **Dense** (the default, [`Mapping::new`]) — both directions are flat
//!   32-bit tables: L2P holds each logical page's [`Geometry::page_index`]
//!   and P2L, indexed by that index, holds each page's logical page, with
//!   [`NO_PAGE`] for "none" in both. A per-block valid-page counter is
//!   maintained incrementally on every map/unmap/trim. Validity queries
//!   ([`Mapping::valid_in_block_count`]) are O(1) counter reads and
//!   [`Mapping::valid_in_block`] walks only the block's contiguous index
//!   range, so garbage collection stops rescanning the whole device. A
//!   [`PageAddr`] is decoded from an index only when a caller asks for one.
//! * **Naive** ([`Mapping::new_naive`]) — the original `HashMap`-backed
//!   reverse map beside an `Option<PageAddr>` forward table, whose
//!   per-block queries scan every mapped page. Retained as the reference
//!   implementation for oracle tests (the recovery lockstep tests, the
//!   mapping property tests) and the dense-vs-naive microbench
//!   (`benches/gc.rs`); both stores make identical decisions, the dense one
//!   just answers in O(1).
//!
//! Either store records which logical pages changed since the last
//! [`Mapping::take_changed`]; the SPOR checkpoint uses that record to
//! refresh only what moved.

use flash_model::{BlockAddr, Geometry, PageAddr};
use std::collections::HashMap;

/// The "no page" sentinel of every 32-bit per-page table in the FTL: an
/// L2P or checkpoint entry of a logical page that maps to no page, and a
/// P2L entry of a page that holds no valid logical page. Safe because
/// [`Mapping::new`] admits only geometries whose page indices, and so
/// whose logical pages, all lie below it.
pub(crate) const NO_PAGE: u32 = u32::MAX;

#[derive(Debug, Clone)]
enum Store {
    Dense(Dense),
    Naive { l2p: Vec<Option<PageAddr>>, p2l: HashMap<PageAddr, u64> },
}

/// The dense store's tables.
#[derive(Debug, Clone)]
struct Dense {
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
}

impl Dense {
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
}

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
/// Invariant: L2P maps `lpn` to `ppa` iff the reverse store maps `ppa` to
/// `lpn`; a physical page absent from the reverse store is invalid (stale or
/// never written).
#[derive(Debug, Clone)]
pub struct Mapping {
    store: Store,
    /// Every LPN passed through `map`, `unmap` or `invalidate_block` since
    /// the last [`Mapping::take_changed`]. Every L2P change — writes,
    /// relocations, trims and erase sweeps — funnels through those three,
    /// so the record is complete; a recovery [`Mapping::rebuild`] replaces
    /// the whole mapping and resets it.
    changes: LpnSet,
}

impl Mapping {
    /// A dense mapping exporting `capacity` logical pages over `geo`'s
    /// physical space, all unmapped.
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
            store: Store::Dense(Dense {
                l2p: vec![NO_PAGE; capacity as usize],
                p2l: vec![NO_PAGE; pages as usize],
                block_valid: vec![0; geo.total_blocks() as usize],
                valid: 0,
                geo: geo.clone(),
            }),
            changes: LpnSet::new(capacity),
        }
    }

    /// The `HashMap`-backed reference mapping (original implementation).
    ///
    /// Semantically identical to [`Mapping::new`] but every per-block query
    /// scans all mapped pages. Kept for oracle tests and the dense-vs-naive
    /// GC microbench; not meant for production paths.
    #[must_use]
    pub fn new_naive(capacity: u64) -> Self {
        Mapping {
            store: Store::Naive { l2p: vec![None; capacity as usize], p2l: HashMap::new() },
            changes: LpnSet::new(capacity),
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
        match &self.store {
            Store::Dense(d) => d.l2p.len() as u64,
            Store::Naive { l2p, .. } => l2p.len() as u64,
        }
    }

    /// Physical location of a logical page.
    #[inline]
    #[must_use]
    pub fn lookup(&self, lpn: u64) -> Option<PageAddr> {
        match &self.store {
            Store::Dense(d) => {
                let page = *d.l2p.get(lpn as usize)?;
                (page != NO_PAGE).then(|| d.geo.page_at_index(page as usize))
            }
            Store::Naive { l2p, .. } => l2p.get(lpn as usize).copied().flatten(),
        }
    }

    /// Location of a logical page as a [`Geometry::page_index`] on `geo`,
    /// or [`NO_PAGE`] when it is unmapped. The dense store holds the index
    /// already; `geo` encodes the naive store's addresses.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub(crate) fn page_index(&self, lpn: u64, geo: &Geometry) -> u32 {
        match &self.store {
            Store::Dense(d) => d.l2p[lpn as usize],
            Store::Naive { l2p, .. } => l2p[lpn as usize].map_or(NO_PAGE, |ppa| {
                u32::try_from(geo.page_index(ppa)).expect("page indices fit 32 bits")
            }),
        }
    }

    /// Logical page stored at a physical page, if it is valid.
    #[must_use]
    pub fn reverse(&self, ppa: PageAddr) -> Option<u64> {
        match &self.store {
            Store::Dense(d) => {
                let lpn = d.p2l[d.geo.page_index(ppa)];
                (lpn != NO_PAGE).then_some(u64::from(lpn))
            }
            Store::Naive { p2l, .. } => p2l.get(&ppa).copied(),
        }
    }

    /// [`Mapping::reverse`] of the page at [`Geometry::page_index`]
    /// `page` on `geo`, for a caller that holds the index: the dense store
    /// reads it without an encode, and `geo` decodes it for the naive
    /// store, which holds addresses.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub(crate) fn reverse_at(&self, page: usize, geo: &Geometry) -> Option<u64> {
        match &self.store {
            Store::Dense(d) => {
                let lpn = d.p2l[page];
                (lpn != NO_PAGE).then_some(u64::from(lpn))
            }
            Store::Naive { p2l, .. } => p2l.get(&geo.page_at_index(page)).copied(),
        }
    }

    /// Whether a physical page holds valid data.
    #[must_use]
    pub fn is_valid(&self, ppa: PageAddr) -> bool {
        self.reverse(ppa).is_some()
    }

    /// Number of valid physical pages.
    #[must_use]
    pub fn valid_pages(&self) -> usize {
        match &self.store {
            Store::Dense(d) => d.valid,
            Store::Naive { p2l, .. } => p2l.len(),
        }
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
        match &mut self.store {
            Store::Dense(d) => {
                let old = d.l2p[lpn as usize];
                if old != NO_PAGE {
                    d.clear_reverse(old);
                }
                let page = d.geo.page_index(ppa);
                d.set_reverse(page, lpn as usize);
                d.l2p[lpn as usize] = page as u32;
            }
            Store::Naive { l2p, p2l } => {
                if let Some(old) = l2p[lpn as usize].take() {
                    p2l.remove(&old);
                }
                let prev = p2l.insert(ppa, lpn);
                assert!(prev.is_none(), "physical page written twice without erase");
                l2p[lpn as usize] = Some(ppa);
            }
        }
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
        match &mut self.store {
            Store::Dense(d) => {
                let old = std::mem::replace(&mut d.l2p[lpn as usize], NO_PAGE);
                (old != NO_PAGE).then(|| {
                    d.clear_reverse(old);
                    d.geo.page_at_index(old as usize)
                })
            }
            Store::Naive { l2p, p2l } => {
                let old = l2p[lpn as usize].take();
                if let Some(ppa) = old {
                    p2l.remove(&ppa);
                }
                old
            }
        }
    }

    /// Drops validity records for every page of a block (after erase).
    pub fn invalidate_block(&mut self, block: BlockAddr) {
        // Erase only happens after relocation, so every page of the block
        // must already be invalid; this is a defensive sweep.
        match &mut self.store {
            Store::Dense(d) => {
                let bi = d.geo.block_index(block);
                if d.block_valid[bi] == 0 {
                    return;
                }
                let ppb = d.geo.pages_per_block() as usize;
                let base = bi * ppb;
                for slot in &mut d.p2l[base..base + ppb] {
                    let lpn = std::mem::replace(slot, NO_PAGE);
                    if lpn != NO_PAGE {
                        d.l2p[lpn as usize] = NO_PAGE;
                        self.changes.insert(u64::from(lpn));
                        d.valid -= 1;
                    }
                }
                d.block_valid[bi] = 0;
            }
            Store::Naive { l2p, p2l } => {
                let stale: Vec<PageAddr> =
                    p2l.keys().filter(|p| p.wl.block == block).copied().collect();
                for ppa in stale {
                    if let Some(lpn) = p2l.remove(&ppa) {
                        l2p[lpn as usize] = None;
                        self.changes.insert(lpn);
                    }
                }
            }
        }
    }

    /// Replaces the whole mapping in one pass with `pages`, the location
    /// of every logical page in LPN order as a [`Geometry::page_index`] on
    /// `geo` ([`NO_PAGE`]: unmapped). L2P comes straight from `pages`, then
    /// the reverse store and the block counters are scattered from it. The
    /// change record is reset: the caller holds the state it rebuilt from.
    /// `geo` decodes the indices for the naive store, which holds
    /// addresses.
    ///
    /// # Panics
    ///
    /// Panics if `pages` does not hold one entry per logical page, or two
    /// logical pages share a physical page.
    pub(crate) fn rebuild(&mut self, geo: &Geometry, pages: impl IntoIterator<Item = u32>) {
        let capacity = self.capacity() as usize;
        match &mut self.store {
            Store::Dense(d) => {
                debug_assert_eq!(&d.geo, geo, "the dense store indexes its own geometry");
                d.l2p.clear();
                d.l2p.extend(pages);
                assert_eq!(d.l2p.len(), capacity, "one location per logical page");
                d.p2l.fill(NO_PAGE);
                d.block_valid.fill(0);
                d.valid = 0;
                for lpn in 0..capacity {
                    let page = d.l2p[lpn];
                    if page != NO_PAGE {
                        d.set_reverse(page as usize, lpn);
                    }
                }
            }
            Store::Naive { l2p, p2l } => {
                l2p.clear();
                let decode = |page| (page != NO_PAGE).then(|| geo.page_at_index(page as usize));
                l2p.extend(pages.into_iter().map(decode));
                assert_eq!(l2p.len(), capacity, "one location per logical page");
                p2l.clear();
                for (lpn, ppa) in l2p.iter().enumerate() {
                    if let Some(ppa) = *ppa {
                        let prev = p2l.insert(ppa, lpn as u64);
                        assert!(prev.is_none(), "physical page written twice without erase");
                    }
                }
            }
        }
        self.changes.clear();
    }

    /// Number of valid pages currently stored in a block.
    ///
    /// Dense store: one O(1) counter read. Naive store: a scan over every
    /// mapped page (the original cost this counter replaces).
    #[must_use]
    pub fn valid_in_block_count(&self, block: BlockAddr) -> usize {
        match &self.store {
            Store::Dense(d) => d.block_valid[d.geo.block_index(block)] as usize,
            Store::Naive { p2l, .. } => p2l.keys().filter(|p| p.wl.block == block).count(),
        }
    }

    /// Valid logical pages currently stored in a block, with locations, in
    /// `(lwl, page)` program order. Alloc-free; collect into a reusable
    /// buffer when the mapping must be mutated while iterating.
    pub fn valid_in_block(&self, block: BlockAddr) -> impl Iterator<Item = (u64, PageAddr)> + '_ {
        let dense = match &self.store {
            Store::Dense(d) => {
                let ppb = d.geo.pages_per_block() as usize;
                let base = d.geo.block_index(block) * ppb;
                Some(
                    d.p2l[base..base + ppb]
                        .iter()
                        .enumerate()
                        .filter(|&(_, &lpn)| lpn != NO_PAGE)
                        .map(move |(off, &lpn)| (u64::from(lpn), d.geo.page_at_offset(block, off))),
                )
            }
            Store::Naive { .. } => None,
        };
        let naive = match &self.store {
            Store::Naive { p2l, .. } => {
                let mut v: Vec<(u64, PageAddr)> = p2l
                    .iter()
                    .filter(|(p, _)| p.wl.block == block)
                    .map(|(p, &l)| (l, *p))
                    .collect();
                v.sort_by_key(|&(_, p)| (p.wl.lwl, p.page.index()));
                Some(v.into_iter())
            }
            Store::Dense(_) => None,
        };
        dense.into_iter().flatten().chain(naive.into_iter().flatten())
    }

    /// Checks the L2P/P2L bijection invariant (for tests).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        match &self.store {
            Store::Dense(Dense { l2p, p2l, block_valid, valid, geo }) => {
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
            Store::Naive { l2p, p2l } => {
                let forward_ok = l2p
                    .iter()
                    .enumerate()
                    .filter_map(|(l, p)| p.map(|p| (l as u64, p)))
                    .all(|(l, p)| p2l.get(&p) == Some(&l));
                forward_ok && p2l.iter().all(|(p, &l)| l2p.get(l as usize) == Some(&Some(*p)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_model::{BlockAddr, BlockId, CellType, ChipId, LwlId, PageType, PlaneId};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn geo() -> Geometry {
        Geometry::new(2, 1, 4, 2, 2, CellType::Tlc)
    }

    fn both(capacity: u64) -> Vec<Mapping> {
        vec![Mapping::new(capacity, &geo()), Mapping::new_naive(capacity)]
    }

    fn ppa(b: u32, lwl: u32, pt: PageType) -> PageAddr {
        BlockAddr::new(ChipId(0), PlaneId(0), BlockId(b)).wl(LwlId(lwl)).page(pt)
    }

    #[test]
    fn map_and_lookup_roundtrip() {
        for mut m in both(10) {
            m.map(3, ppa(0, 0, PageType::Lsb));
            assert_eq!(m.lookup(3), Some(ppa(0, 0, PageType::Lsb)));
            assert_eq!(m.reverse(ppa(0, 0, PageType::Lsb)), Some(3));
            assert!(m.is_consistent());
        }
    }

    #[test]
    fn remap_invalidates_old_location() {
        for mut m in both(10) {
            m.map(3, ppa(0, 0, PageType::Lsb));
            m.map(3, ppa(1, 0, PageType::Lsb));
            assert!(!m.is_valid(ppa(0, 0, PageType::Lsb)));
            assert_eq!(m.lookup(3), Some(ppa(1, 0, PageType::Lsb)));
            assert!(m.is_consistent());
        }
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn double_write_to_same_ppa_panics() {
        let mut m = Mapping::new(10, &geo());
        m.map(1, ppa(0, 0, PageType::Lsb));
        m.map(2, ppa(0, 0, PageType::Lsb));
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn naive_double_write_to_same_ppa_panics() {
        let mut m = Mapping::new_naive(10);
        m.map(1, ppa(0, 0, PageType::Lsb));
        m.map(2, ppa(0, 0, PageType::Lsb));
    }

    #[test]
    fn unmap_clears_both_directions() {
        for mut m in both(10) {
            m.map(3, ppa(0, 0, PageType::Lsb));
            assert_eq!(m.unmap(3), Some(ppa(0, 0, PageType::Lsb)));
            assert_eq!(m.lookup(3), None);
            assert_eq!(m.valid_pages(), 0);
            assert!(m.is_consistent());
        }
    }

    #[test]
    fn valid_in_block_filters_and_sorts() {
        for mut m in both(10) {
            m.map(1, ppa(0, 1, PageType::Lsb));
            m.map(2, ppa(0, 0, PageType::Msb));
            m.map(3, ppa(1, 0, PageType::Lsb));
            let blk0 = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(0));
            let v: Vec<_> = m.valid_in_block(blk0).collect();
            assert_eq!(v.len(), 2);
            assert_eq!(m.valid_in_block_count(blk0), 2);
            assert_eq!(v[0].0, 2, "WL0 before WL1");
        }
    }

    #[test]
    fn invalidate_block_sweeps_everything() {
        for mut m in both(10) {
            m.map(1, ppa(0, 0, PageType::Lsb));
            m.map(2, ppa(0, 1, PageType::Csb));
            m.invalidate_block(BlockAddr::new(ChipId(0), PlaneId(0), BlockId(0)));
            assert_eq!(m.valid_pages(), 0);
            assert_eq!(m.lookup(1), None);
            assert!(m.is_consistent());
        }
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
        for mut m in both(130) {
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
            for store in 0..2 {
                let mut source = both(60).swap_remove(store);
                drive(&mut source, seed, 400);
                // The target has its own history, so a rebuild that keeps
                // any stale reverse entry or block count shows.
                let mut target = both(60).swap_remove(store);
                drive(&mut target, seed + 1000, 400);
                let locations: Vec<u32> =
                    (0..source.capacity()).map(|lpn| source.page_index(lpn, &geo)).collect();
                target.rebuild(&geo, locations.iter().copied());
                let tag = format!("seed {seed} store {store}");
                assert!(target.is_consistent(), "{tag}: bijection and counters hold");
                assert_eq!(target.valid_pages(), source.valid_pages(), "{tag}: valid pages");
                for lpn in 0..source.capacity() {
                    assert_eq!(target.lookup(lpn), source.lookup(lpn), "{tag}: lookup({lpn})");
                }
                for &ppa in &pages {
                    assert_eq!(target.reverse(ppa), source.reverse(ppa), "{tag}: reverse({ppa})");
                }
                for &b in &blocks {
                    let (got, want) =
                        (target.valid_in_block_count(b), source.valid_in_block_count(b));
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
    }

    #[test]
    fn lookup_out_of_range_is_none() {
        let m = Mapping::new(4, &geo());
        assert_eq!(m.lookup(99), None);
    }
}
