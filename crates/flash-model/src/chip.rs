//! Stateful per-block bookkeeping: phases, write pointers and page data.

use crate::error::FlashError;
use crate::geometry::Geometry;
use crate::ids::{BlockAddr, LwlId, PageAddr};
use crate::spor::PageOob;
use crate::wear::WearState;
use crate::Result;
use std::cell::{Cell, OnceCell};

/// Lifecycle phase of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BlockPhase {
    /// Never erased since power-on; must be erased before programming.
    #[default]
    Fresh,
    /// Erased and empty.
    Erased,
    /// Partially programmed; the next word-line is tracked.
    Open,
    /// Every word-line is programmed.
    Full,
    /// A program or erase on this block reported a media fault. Pages
    /// programmed before the failure stay readable (so live data can be
    /// relocated), but further programs and erases are rejected: the block
    /// must be retired.
    Failed,
}

/// Mutable state of one block.
#[derive(Debug, Clone)]
pub(crate) struct BlockState {
    pub phase: BlockPhase,
    pub next_lwl: LwlId,
    pub wear: WearState,
    /// Page payload tags, indexed by `lwl * pages_per_lwl + page_index`;
    /// allocated lazily on the first program.
    pages: Option<Box<[u64]>>,
    /// Out-of-band spare-area metadata, same indexing and lifetime as
    /// `pages`; allocated lazily on the first program that carries OOB.
    oob: Option<Box<[PageOob]>>,
    /// Word-line whose program was interrupted by a power loss. A torn
    /// word-line exposes neither payload nor OOB, and the block takes no
    /// further programs until erased.
    pub torn_lwl: Option<LwlId>,
    /// Payload reads of any page in this block since the last erase.
    /// Interior mutability because reads take `&self`; cleared by erase.
    block_reads: Cell<u64>,
    /// Per-page own-read counts, same indexing as `pages` and allocated on
    /// the first recorded read. A page's *disturb* count is
    /// `block_reads - own_reads[idx]`: reads of sibling word-lines stress
    /// a victim page's cells, reads of the page itself do not.
    own_reads: OnceCell<Box<[Cell<u64>]>>,
}

impl Default for BlockState {
    fn default() -> Self {
        BlockState {
            phase: BlockPhase::Fresh,
            next_lwl: LwlId(0),
            wear: WearState::new(),
            pages: None,
            oob: None,
            torn_lwl: None,
            block_reads: Cell::new(0),
            own_reads: OnceCell::new(),
        }
    }
}

impl BlockState {
    pub(crate) fn erase(&mut self) {
        self.phase = BlockPhase::Erased;
        self.next_lwl = LwlId(0);
        self.wear.record_erase();
        self.pages = None;
        self.oob = None;
        self.torn_lwl = None;
        self.block_reads.set(0);
        for own in self.own_reads.get_mut().into_iter().flat_map(|own| own.iter()) {
            own.set(0);
        }
    }

    /// Records one disturbing payload read of page `idx` (of `total` pages
    /// in the block). Called by the array only when disturb tracking is on,
    /// so untracked runs never allocate the counter vector.
    #[inline]
    pub(crate) fn record_read_disturb(&self, total: usize, idx: usize) {
        self.block_reads.set(self.block_reads.get() + 1);
        let own = &self.own_reads.get_or_init(|| vec![Cell::new(0); total].into())[idx];
        own.set(own.get() + 1);
    }

    /// Accumulated read disturb of page `idx`: sibling reads since the
    /// block's last erase. Zero when tracking never recorded anything.
    #[inline]
    pub(crate) fn read_disturbs(&self, idx: usize) -> u64 {
        let own = self.own_reads.get().and_then(|own| own.get(idx)).map_or(0, Cell::get);
        self.block_reads.get().saturating_sub(own)
    }

    /// Marks the block failed after a media fault, preserving already-
    /// programmed pages for relocation.
    pub(crate) fn mark_failed(&mut self) {
        self.phase = BlockPhase::Failed;
    }

    /// The legality checks of [`BlockState::program_wl`] without the
    /// mutation, so a fault draw can be taken on an operation known legal.
    pub(crate) fn check_program(
        &self,
        geo: &Geometry,
        addr: BlockAddr,
        lwl: LwlId,
        data: &[u64],
    ) -> Result<()> {
        let per_wl = geo.pages_per_lwl();
        if data.len() != per_wl as usize {
            return Err(FlashError::DataLengthMismatch { expected: per_wl, got: data.len() });
        }
        match self.phase {
            BlockPhase::Fresh => return Err(FlashError::ProgramOnUnerased { addr }),
            BlockPhase::Full => return Err(FlashError::BlockFull { addr }),
            BlockPhase::Failed => return Err(FlashError::ProgramFailed { wl: addr.wl(lwl) }),
            BlockPhase::Erased | BlockPhase::Open => {}
        }
        if let Some(torn) = self.torn_lwl {
            return Err(FlashError::TornWordLine { wl: addr.wl(torn) });
        }
        if lwl != self.next_lwl {
            return Err(FlashError::ProgramOutOfOrder { addr, expected: self.next_lwl, got: lwl });
        }
        Ok(())
    }

    pub(crate) fn program_wl(
        &mut self,
        geo: &Geometry,
        addr: BlockAddr,
        lwl: LwlId,
        data: &[u64],
        oob: Option<&[PageOob]>,
    ) -> Result<()> {
        self.check_program(geo, addr, lwl, data)?;
        let per_wl = geo.pages_per_lwl();
        let total = (geo.pages_per_block()) as usize;
        let pages = self.pages.get_or_insert_with(|| vec![0u64; total].into_boxed_slice());
        let base = (lwl.0 * per_wl) as usize;
        pages[base..base + per_wl as usize].copy_from_slice(data);
        if let Some(oob) = oob {
            let spare =
                self.oob.get_or_insert_with(|| vec![PageOob::default(); total].into_boxed_slice());
            spare[base..base + per_wl as usize].copy_from_slice(oob);
        }
        self.next_lwl = LwlId(lwl.0 + 1);
        self.phase = if self.next_lwl.0 == geo.lwls_per_block() {
            BlockPhase::Full
        } else {
            BlockPhase::Open
        };
        Ok(())
    }

    /// Marks `lwl` as torn by a power loss mid-program. The word-line's
    /// pages become unreadable and the block takes no further programs until
    /// erased; the write pointer is *not* advanced (the program never
    /// completed).
    pub(crate) fn mark_torn(&mut self, lwl: LwlId) {
        self.torn_lwl = Some(lwl);
    }

    /// The block's page payloads and OOB records (`None` when nothing was
    /// programmed with OOB, so every page reports the filler default), once
    /// `page`'s word-line passes the rules every read applies: programmed
    /// and not torn. Both slices are indexed by in-block page offset.
    #[inline]
    pub(crate) fn readable(&self, page: PageAddr) -> Result<(&[u64], Option<&[PageOob]>)> {
        self.readable_lwl(page.wl.lwl, || page)
    }

    /// [`BlockState::readable`] of word-line `lwl` for a caller that holds
    /// no page address: `page` builds the one the error names, and runs
    /// only when there is an error.
    #[inline]
    pub(crate) fn readable_lwl(
        &self,
        lwl: LwlId,
        page: impl FnOnce() -> PageAddr,
    ) -> Result<(&[u64], Option<&[PageOob]>)> {
        if self.torn_lwl == Some(lwl) {
            return Err(FlashError::TornWordLine { wl: page().wl });
        }
        let programmed = match self.phase {
            BlockPhase::Full => true,
            BlockPhase::Open | BlockPhase::Failed => lwl < self.next_lwl,
            BlockPhase::Fresh | BlockPhase::Erased => false,
        };
        match &self.pages {
            Some(pages) if programmed => Ok((pages, self.oob.as_deref())),
            _ => Err(FlashError::ReadUnwritten { page: page() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{BlockId, ChipId, PageType, PlaneId};

    fn geo() -> Geometry {
        Geometry::small_test()
    }

    fn addr() -> BlockAddr {
        BlockAddr::new(ChipId(0), PlaneId(0), BlockId(0))
    }

    /// One page's payload under the block's readability rules.
    fn read(b: &BlockState, g: &Geometry, page: PageAddr) -> Result<u64> {
        Ok(b.readable(page)?.0[g.offset_in_block(page)])
    }

    #[test]
    fn fresh_block_rejects_program() {
        let g = geo();
        let mut b = BlockState::default();
        let data = vec![1; g.pages_per_lwl() as usize];
        assert_eq!(
            b.program_wl(&g, addr(), LwlId(0), &data, None),
            Err(FlashError::ProgramOnUnerased { addr: addr() })
        );
    }

    #[test]
    fn program_must_be_sequential() {
        let g = geo();
        let mut b = BlockState::default();
        b.erase();
        let data = vec![1; g.pages_per_lwl() as usize];
        b.program_wl(&g, addr(), LwlId(0), &data, None).unwrap();
        let err = b.program_wl(&g, addr(), LwlId(2), &data, None).unwrap_err();
        assert!(matches!(
            err,
            FlashError::ProgramOutOfOrder { expected: LwlId(1), got: LwlId(2), .. }
        ));
    }

    #[test]
    fn full_block_rejects_more_programs() {
        let g = geo();
        let mut b = BlockState::default();
        b.erase();
        let data = vec![1; g.pages_per_lwl() as usize];
        for lwl in g.lwls() {
            b.program_wl(&g, addr(), lwl, &data, None).unwrap();
        }
        assert_eq!(b.phase, BlockPhase::Full);
        let err = b.program_wl(&g, addr(), LwlId(0), &data, None).unwrap_err();
        assert!(matches!(err, FlashError::BlockFull { .. }));
    }

    #[test]
    fn read_returns_programmed_data() {
        let g = geo();
        let mut b = BlockState::default();
        b.erase();
        b.program_wl(&g, addr(), LwlId(0), &[10, 20, 30], None).unwrap();
        let wl = addr().wl(LwlId(0));
        assert_eq!(read(&b, &g, wl.page(PageType::Lsb)).unwrap(), 10);
        assert_eq!(read(&b, &g, wl.page(PageType::Csb)).unwrap(), 20);
        assert_eq!(read(&b, &g, wl.page(PageType::Msb)).unwrap(), 30);
    }

    #[test]
    fn read_of_unwritten_page_fails() {
        let g = geo();
        let mut b = BlockState::default();
        b.erase();
        b.program_wl(&g, addr(), LwlId(0), &[1, 2, 3], None).unwrap();
        let err = read(&b, &g, addr().wl(LwlId(1)).page(PageType::Lsb)).unwrap_err();
        assert!(matches!(err, FlashError::ReadUnwritten { .. }));
    }

    #[test]
    fn erase_clears_data_and_counts_wear() {
        let g = geo();
        let mut b = BlockState::default();
        b.erase();
        b.program_wl(&g, addr(), LwlId(0), &[1, 2, 3], None).unwrap();
        b.erase();
        assert_eq!(b.wear.pe_cycles(), 2);
        assert_eq!(b.phase, BlockPhase::Erased);
        assert!(read(&b, &g, addr().wl(LwlId(0)).page(PageType::Lsb)).is_err());
    }

    #[test]
    fn wrong_data_length_rejected() {
        let g = geo();
        let mut b = BlockState::default();
        b.erase();
        let err = b.program_wl(&g, addr(), LwlId(0), &[1, 2], None).unwrap_err();
        assert_eq!(err, FlashError::DataLengthMismatch { expected: 3, got: 2 });
    }

    #[test]
    fn sibling_reads_disturb_a_page_but_own_reads_do_not() {
        let g = geo();
        let total = g.pages_per_block() as usize;
        let b = BlockState::default();
        // Three reads of page 0, one of page 1: page 0 suffered exactly the
        // sibling read, page 1 the three reads of page 0, page 2 all four.
        for _ in 0..3 {
            b.record_read_disturb(total, 0);
        }
        b.record_read_disturb(total, 1);
        assert_eq!(b.read_disturbs(0), 1);
        assert_eq!(b.read_disturbs(1), 3);
        assert_eq!(b.read_disturbs(2), 4);
    }

    #[test]
    fn erase_resets_read_disturb() {
        let g = geo();
        let total = g.pages_per_block() as usize;
        let mut b = BlockState::default();
        b.erase();
        b.record_read_disturb(total, 0);
        b.record_read_disturb(total, 0);
        assert_eq!(b.read_disturbs(1), 2);
        b.erase();
        assert_eq!(b.read_disturbs(0), 0);
        assert_eq!(b.read_disturbs(1), 0);
    }

    #[test]
    fn untracked_blocks_report_zero_disturb() {
        let b = BlockState::default();
        assert_eq!(b.read_disturbs(0), 0);
        assert_eq!(b.read_disturbs(7), 0);
    }
}
