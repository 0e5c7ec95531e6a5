//! Logical-to-physical page mapping with validity tracking.
//!
//! Two interchangeable stores implement the same semantics:
//!
//! * **Dense** (the default, [`Mapping::new`]) — the reverse map is a flat
//!   `Vec` indexed by [`Geometry::page_index`], with a per-block valid-page
//!   counter maintained incrementally on every map/unmap/trim. Validity
//!   queries ([`Mapping::valid_in_block_count`]) are O(1) counter reads and
//!   [`Mapping::valid_in_block`] walks only the block's contiguous index
//!   range, so garbage collection stops rescanning the whole device.
//! * **Naive** ([`Mapping::new_naive`]) — the original `HashMap`-backed
//!   reverse map whose per-block queries scan every mapped page. Retained as
//!   the reference implementation for oracle tests (the recovery lockstep
//!   tests, the mapping property tests) and the dense-vs-naive microbench
//!   (`benches/gc.rs`); both stores make identical decisions, the dense one
//!   just answers in O(1).
//!
//! Either store records which logical pages changed since the last
//! [`Mapping::take_changed`]; the SPOR checkpoint uses that record to
//! refresh only what moved.

use flash_model::{BlockAddr, Geometry, PageAddr};
use std::collections::HashMap;

/// Sentinel marking an invalid (unmapped) physical page in the dense store.
/// Safe because stored LPNs are always below the logical capacity.
const INVALID: u64 = u64::MAX;

#[derive(Debug, Clone)]
enum Store {
    Dense {
        /// Reverse map indexed by `Geometry::page_index`; `INVALID` = stale.
        p2l: Vec<u64>,
        /// Valid-page count per `Geometry::block_index`.
        block_valid: Vec<u32>,
        /// Total valid pages (sum of `block_valid`).
        valid: usize,
        /// Geometry defining the flattening.
        geo: Geometry,
    },
    Naive {
        p2l: HashMap<PageAddr, u64>,
    },
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
/// Invariant: `l2p[lpn] == Some(ppa)` iff the reverse store maps `ppa` to
/// `lpn`; a physical page absent from the reverse store is invalid (stale or
/// never written).
#[derive(Debug, Clone)]
pub struct Mapping {
    l2p: Vec<Option<PageAddr>>,
    store: Store,
    /// Every LPN passed through `map`, `unmap` or `invalidate_block` since
    /// the last [`Mapping::take_changed`]. Every L2P change — writes,
    /// relocations, trims, erase sweeps and recovery rebuilds — funnels
    /// through those three, so the record is complete.
    changes: LpnSet,
}

impl Mapping {
    /// A dense mapping exporting `capacity` logical pages over `geo`'s
    /// physical space, all unmapped.
    #[must_use]
    pub fn new(capacity: u64, geo: &Geometry) -> Self {
        Mapping {
            l2p: vec![None; capacity as usize],
            store: Store::Dense {
                p2l: vec![INVALID; geo.total_pages() as usize],
                block_valid: vec![0; geo.total_blocks() as usize],
                valid: 0,
                geo: geo.clone(),
            },
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
            l2p: vec![None; capacity as usize],
            store: Store::Naive { p2l: HashMap::new() },
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
        self.l2p.len() as u64
    }

    /// Physical location of a logical page.
    #[inline]
    #[must_use]
    pub fn lookup(&self, lpn: u64) -> Option<PageAddr> {
        self.l2p.get(lpn as usize).copied().flatten()
    }

    /// Logical page stored at a physical page, if it is valid.
    #[must_use]
    pub fn reverse(&self, ppa: PageAddr) -> Option<u64> {
        match &self.store {
            Store::Dense { p2l, geo, .. } => {
                let lpn = p2l[geo.page_index(ppa)];
                (lpn != INVALID).then_some(lpn)
            }
            Store::Naive { p2l } => p2l.get(&ppa).copied(),
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
            Store::Dense { valid, .. } => *valid,
            Store::Naive { p2l } => p2l.len(),
        }
    }

    /// Maps `lpn` to `ppa`, invalidating any previous location.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range or `ppa` already holds another
    /// logical page (a physical page is written once per erase cycle).
    pub fn map(&mut self, lpn: u64, ppa: PageAddr) {
        assert!((lpn as usize) < self.l2p.len(), "lpn {lpn} out of range");
        self.changes.insert(lpn);
        if let Some(old) = self.l2p[lpn as usize].take() {
            self.clear_reverse(old);
        }
        match &mut self.store {
            Store::Dense { p2l, block_valid, valid, geo } => {
                let idx = geo.page_index(ppa);
                assert!(p2l[idx] == INVALID, "physical page written twice without erase");
                p2l[idx] = lpn;
                block_valid[geo.block_index(ppa.wl.block)] += 1;
                *valid += 1;
            }
            Store::Naive { p2l } => {
                let prev = p2l.insert(ppa, lpn);
                assert!(prev.is_none(), "physical page written twice without erase");
            }
        }
        self.l2p[lpn as usize] = Some(ppa);
    }

    /// Unmaps a logical page (trim); returns its old location. Records the
    /// LPN as changed even when it was already unmapped: a trim of an
    /// unmapped page still moves its tombstone.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub fn unmap(&mut self, lpn: u64) -> Option<PageAddr> {
        assert!((lpn as usize) < self.l2p.len(), "lpn {lpn} out of range");
        self.changes.insert(lpn);
        let old = self.l2p[lpn as usize].take();
        if let Some(ppa) = old {
            self.clear_reverse(ppa);
        }
        old
    }

    /// Drops the reverse-store record of one page, fixing the counters.
    fn clear_reverse(&mut self, ppa: PageAddr) {
        match &mut self.store {
            Store::Dense { p2l, block_valid, valid, geo } => {
                let idx = geo.page_index(ppa);
                if p2l[idx] != INVALID {
                    p2l[idx] = INVALID;
                    block_valid[geo.block_index(ppa.wl.block)] -= 1;
                    *valid -= 1;
                }
            }
            Store::Naive { p2l } => {
                p2l.remove(&ppa);
            }
        }
    }

    /// Drops validity records for every page of a block (after erase).
    pub fn invalidate_block(&mut self, block: BlockAddr) {
        // Erase only happens after relocation, so every page of the block
        // must already be invalid; this is a defensive sweep.
        match &mut self.store {
            Store::Dense { p2l, block_valid, valid, geo } => {
                let bi = geo.block_index(block);
                if block_valid[bi] == 0 {
                    return;
                }
                let ppb = geo.pages_per_block() as usize;
                let base = bi * ppb;
                for slot in &mut p2l[base..base + ppb] {
                    let lpn = std::mem::replace(slot, INVALID);
                    if lpn != INVALID {
                        self.l2p[lpn as usize] = None;
                        self.changes.insert(lpn);
                        *valid -= 1;
                    }
                }
                block_valid[bi] = 0;
            }
            Store::Naive { p2l } => {
                let stale: Vec<PageAddr> =
                    p2l.keys().filter(|p| p.wl.block == block).copied().collect();
                for ppa in stale {
                    if let Some(lpn) = p2l.remove(&ppa) {
                        self.l2p[lpn as usize] = None;
                        self.changes.insert(lpn);
                    }
                }
            }
        }
    }

    /// Number of valid pages currently stored in a block.
    ///
    /// Dense store: one O(1) counter read. Naive store: a scan over every
    /// mapped page (the original cost this counter replaces).
    #[must_use]
    pub fn valid_in_block_count(&self, block: BlockAddr) -> usize {
        match &self.store {
            Store::Dense { block_valid, geo, .. } => block_valid[geo.block_index(block)] as usize,
            Store::Naive { p2l } => p2l.keys().filter(|p| p.wl.block == block).count(),
        }
    }

    /// Valid logical pages currently stored in a block, with locations, in
    /// `(lwl, page)` program order. Alloc-free; collect into a reusable
    /// buffer when the mapping must be mutated while iterating.
    pub fn valid_in_block(&self, block: BlockAddr) -> impl Iterator<Item = (u64, PageAddr)> + '_ {
        let dense = match &self.store {
            Store::Dense { p2l, geo, .. } => {
                let ppb = geo.pages_per_block() as usize;
                let base = geo.block_index(block) * ppb;
                Some(
                    p2l[base..base + ppb]
                        .iter()
                        .enumerate()
                        .filter(|&(_, &lpn)| lpn != INVALID)
                        .map(move |(off, &lpn)| (lpn, geo.page_at_offset(block, off))),
                )
            }
            Store::Naive { .. } => None,
        };
        let naive = match &self.store {
            Store::Naive { p2l } => {
                let mut v: Vec<(u64, PageAddr)> = p2l
                    .iter()
                    .filter(|(p, _)| p.wl.block == block)
                    .map(|(p, &l)| (l, *p))
                    .collect();
                v.sort_by_key(|&(_, p)| (p.wl.lwl, p.page.index()));
                Some(v.into_iter())
            }
            Store::Dense { .. } => None,
        };
        dense.into_iter().flatten().chain(naive.into_iter().flatten())
    }

    /// Checks the L2P/P2L bijection invariant (for tests).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let forward_ok = self
            .l2p
            .iter()
            .enumerate()
            .filter_map(|(l, p)| p.map(|p| (l as u64, p)))
            .all(|(l, p)| self.reverse(p) == Some(l));
        if !forward_ok {
            return false;
        }
        match &self.store {
            Store::Dense { p2l, block_valid, valid, geo } => {
                let ppb = geo.pages_per_block() as usize;
                let mut total = 0usize;
                for (bi, &count) in block_valid.iter().enumerate() {
                    let base = bi * ppb;
                    let live = p2l[base..base + ppb].iter().filter(|&&l| l != INVALID).count();
                    if live != count as usize {
                        return false;
                    }
                    total += live;
                }
                if total != *valid {
                    return false;
                }
                p2l.iter().enumerate().filter(|(_, &l)| l != INVALID).all(|(i, &l)| {
                    match self.l2p[l as usize] {
                        Some(p) => geo.page_index(p) == i,
                        None => false,
                    }
                })
            }
            Store::Naive { p2l } => p2l.iter().all(|(p, &l)| self.l2p[l as usize] == Some(*p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_model::{BlockAddr, BlockId, CellType, ChipId, LwlId, PageType, PlaneId};

    fn geo() -> Geometry {
        Geometry::new(2, 1, 4, 2, 2, CellType::Tlc)
    }

    fn both(capacity: u64) -> [Mapping; 2] {
        [Mapping::new(capacity, &geo()), Mapping::new_naive(capacity)]
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

    #[test]
    fn lookup_out_of_range_is_none() {
        let m = Mapping::new(4, &geo());
        assert_eq!(m.lookup(99), None);
    }
}
