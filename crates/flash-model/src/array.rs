//! The stateful flash array: legal-operation enforcement plus latency
//! reporting, and the outcome of a multi-plane (MP) command folded from
//! its members.

use crate::ber::{BerModel, RberFactors};
use crate::chip::{BlockPhase, BlockState};
use crate::config::FlashConfig;
use crate::error::FlashError;
use crate::fault::{FaultConfig, FaultInjector};
use crate::geometry::Geometry;
use crate::ids::{BlockAddr, LwlId, PageAddr, PageType, WlAddr};
use crate::latency::{LatencyCache, LatencyModel};
use crate::spor::{PageOob, SealRecord};
use crate::Result;

/// User data per page, bytes (the paper's platform): the error-bit scale.
const PAGE_BYTES: u32 = 16 * 1024;

/// Outcome of a multi-plane command.
///
/// An MP command completes only when every member operation completes, so
/// the observable latency is the maximum; the *extra latency* (the paper's
/// optimization target) is `max - min`.
#[derive(Debug, Clone, PartialEq)]
pub struct MpOutcome {
    /// Latency of each member operation, in issue order, µs.
    pub member_us: Vec<f64>,
    /// Completion latency of the whole command (`max`), µs.
    pub total_us: f64,
    /// Extra latency (`max - min`), µs.
    pub extra_us: f64,
}

impl MpOutcome {
    /// Builds an outcome from individual member latencies: an FTL issues
    /// one operation per member (real MP commands fail per plane, so one
    /// failed member does not abort the others) and folds the results
    /// here. An empty slice yields an all-zero outcome.
    #[must_use]
    pub fn from_members(member_us: Vec<f64>) -> Self {
        let (total_us, extra_us) = MpOutcome::fold(&member_us);
        MpOutcome { member_us, total_us, extra_us }
    }

    /// The fold behind [`MpOutcome::from_members`] over a borrowed slice,
    /// for a caller that reuses its buffer: `(total_us, extra_us)`, that is
    /// `(max, max - min)`, or `(0, 0)` for no members.
    #[must_use]
    pub fn fold(member_us: &[f64]) -> (f64, f64) {
        if member_us.is_empty() {
            return (0.0, 0.0);
        }
        let max = member_us.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = member_us.iter().copied().fold(f64::INFINITY, f64::min);
        (max, max - min)
    }
}

/// A stateful flash array backed by the deterministic latency model.
///
/// Operations check NAND legality (erase-before-program, in-order word-line
/// programming, no reads of unwritten pages) and report synthesized
/// latencies that depend on each block's process-variation traits and wear.
///
/// ```
/// use flash_model::{BlockAddr, BlockId, ChipId, FlashArray, FlashConfig, MpOutcome, PlaneId};
///
/// # fn main() -> flash_model::Result<()> {
/// let mut array = FlashArray::new(FlashConfig::small_test(), 1);
/// // A multi-chip erase completes when its slowest member finishes.
/// let mut member_us = Vec::new();
/// for c in 0..4 {
///     member_us.push(array.erase_block(BlockAddr::new(ChipId(c), PlaneId(0), BlockId(0)))?);
/// }
/// let outcome = MpOutcome::from_members(member_us);
/// assert_eq!(outcome.total_us, outcome.member_us.iter().copied().fold(f64::MIN, f64::max));
/// assert!(outcome.extra_us >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FlashArray {
    model: LatencyModel,
    ber: BerModel,
    fault: FaultInjector,
    blocks: Vec<BlockState>,
    /// Capacitor-backed metadata region holding per-superblock seal records;
    /// survives sudden power loss (the flush is covered by the SSD's
    /// power-loss-protection capacitors, as on real drives).
    seals: Vec<SealRecord>,
    /// Memoized static latency and RBER terms, bit-identical to the
    /// uncached models (see [`LatencyCache`]); its tables are allocated on
    /// the first query that needs them.
    cache: LatencyCache,
    /// Whether page reads accumulate per-block read-disturb counters
    /// ([`FlashArray::set_track_disturb`]). Off by default: untracked runs
    /// never allocate counters, and a zero disturb count multiplies the
    /// RBER by exactly 1.0, so tracking state never perturbs latencies.
    track_disturb: bool,
    /// [`FaultInjector::page_type_ber_mult`] of each page slot (1.0 past
    /// the cell type's pages) and `BerModel::layer_factor` of each logical
    /// word-line's layer: functions of the configuration alone, tabled at
    /// build time.
    slot_mult: [f64; 4],
    layer_factor: Box<[f64]>,
}

impl FlashArray {
    /// Creates an array in the `Fresh` state for every block, with fault
    /// injection disabled (perfect media).
    #[must_use]
    pub fn new(config: FlashConfig, seed: u64) -> Self {
        Self::with_faults(config, seed, FaultConfig::default())
    }

    /// Creates an array whose media faults follow `fault` (seeded from the
    /// same master seed, decorrelated from latency and BER draws).
    #[must_use]
    pub fn with_faults(config: FlashConfig, seed: u64, fault: FaultConfig) -> Self {
        let geo = &config.geometry;
        let (ber, fault) = (BerModel::new(seed), FaultInjector::new(fault, seed));
        let pages = geo.pages_per_lwl();
        let slot_mult = std::array::from_fn(|k| {
            let k = k as u32;
            if k < pages {
                fault.page_type_ber_mult(k, pages)
            } else {
                1.0
            }
        });
        let layer_factor = geo.lwls().map(|lwl| ber.layer_factor(geo, geo.layer_of(lwl)));
        FlashArray {
            cache: LatencyCache::new(geo),
            blocks: vec![BlockState::default(); geo.total_blocks() as usize],
            layer_factor: layer_factor.collect(),
            slot_mult,
            model: LatencyModel::new(config.geometry, config.variation, seed),
            ber,
            fault,
            seals: Vec::new(),
            track_disturb: false,
        }
    }

    /// Turns read-disturb tracking on or off. When on, every page read
    /// (not a payload peek) bumps its block's disturb counters and
    /// [`FlashArray::expected_error_bits`] folds the victim page's
    /// accumulated sibling reads into the RBER. When off (the default) no
    /// counter is ever touched, and since a zero count contributes a factor
    /// of exactly `exp(0) == 1.0`, all reported error bits stay
    /// bit-identical to a build without the feature.
    pub fn set_track_disturb(&mut self, enabled: bool) {
        self.track_disturb = enabled;
    }

    /// The fault oracle this array draws media failures from.
    #[must_use]
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.fault
    }

    /// The array geometry.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        self.model.geometry()
    }

    /// The underlying latency model (read-only).
    #[must_use]
    pub fn latency_model(&self) -> &LatencyModel {
        &self.model
    }

    /// The bit-error-rate model.
    #[must_use]
    pub fn ber_model(&self) -> &BerModel {
        &self.ber
    }

    fn check(&self, addr: BlockAddr) -> Result<usize> {
        if !self.geometry().contains_block(addr) {
            return Err(FlashError::AddressOutOfRange { addr });
        }
        Ok(self.geometry().block_index(addr))
    }

    fn check_wl(&self, wl: WlAddr) -> Result<usize> {
        let idx = self.check(wl.block)?;
        if wl.lwl.0 >= self.geometry().lwls_per_block() {
            return Err(FlashError::WlOutOfRange { wl });
        }
        Ok(idx)
    }

    /// Current lifecycle phase of a block.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::AddressOutOfRange`] for addresses outside the
    /// geometry.
    pub fn phase(&self, addr: BlockAddr) -> Result<BlockPhase> {
        Ok(self.blocks[self.check(addr)?].phase)
    }

    /// P/E cycles a block has endured.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::AddressOutOfRange`] for addresses outside the
    /// geometry.
    pub fn pe_cycles(&self, addr: BlockAddr) -> Result<u32> {
        Ok(self.blocks[self.check(addr)?].wear.pe_cycles())
    }

    /// Next word-line a block expects (its write pointer).
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::AddressOutOfRange`] for addresses outside the
    /// geometry.
    pub fn next_lwl(&self, addr: BlockAddr) -> Result<crate::ids::LwlId> {
        Ok(self.blocks[self.check(addr)?].next_lwl)
    }

    /// Erases a block, returning the erase latency in µs.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::AddressOutOfRange`] for addresses outside the
    /// geometry, and [`FlashError::EraseFailed`] when the block is already
    /// failed or the fault injector fails this erase (the block then moves
    /// to [`BlockPhase::Failed`] and must be retired).
    pub fn erase_block(&mut self, addr: BlockAddr) -> Result<f64> {
        let idx = self.check(addr)?;
        let pe = self.blocks[idx].wear.pe_cycles();
        if self.blocks[idx].phase == BlockPhase::Failed {
            return Err(FlashError::EraseFailed { addr });
        }
        if self.fault.erase_fails(addr, pe) {
            self.blocks[idx].mark_failed();
            return Err(FlashError::EraseFailed { addr });
        }
        self.blocks[idx].erase();
        self.cache.invalidate_block(idx);
        Ok(self.cache.erase_latency_us(&self.model, addr, pe))
    }

    /// Programs one logical word-line with one payload tag per page,
    /// returning the program latency in µs.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range, the block is not
    /// erased/open, the word-line is out of order, or the data length does
    /// not match the geometry's pages-per-word-line. Returns
    /// [`FlashError::ProgramFailed`] when the fault injector fails a legal
    /// program (the block then moves to [`BlockPhase::Failed`]: earlier
    /// word-lines stay readable but the block must be retired).
    pub fn program_wl(&mut self, wl: WlAddr, data: &[u64]) -> Result<f64> {
        self.program_wl_inner(wl, data, None)
    }

    /// Like [`FlashArray::program_wl`] but also stores one [`PageOob`] spare
    /// record per page, atomically with the payload. Latency, fault draws
    /// and legality are bit-identical to the plain program — the spare bytes
    /// ride along in the same program pulse on real NAND.
    ///
    /// # Errors
    ///
    /// As [`FlashArray::program_wl`], plus
    /// [`FlashError::DataLengthMismatch`] when `oob` and `data` differ in
    /// length.
    pub fn program_wl_with_oob(
        &mut self,
        wl: WlAddr,
        data: &[u64],
        oob: &[PageOob],
    ) -> Result<f64> {
        if oob.len() != data.len() {
            return Err(FlashError::DataLengthMismatch {
                expected: data.len() as u32,
                got: oob.len(),
            });
        }
        self.program_wl_inner(wl, data, Some(oob))
    }

    fn program_wl_inner(
        &mut self,
        wl: WlAddr,
        data: &[u64],
        oob: Option<&[PageOob]>,
    ) -> Result<f64> {
        let idx = self.check_wl(wl)?;
        let geo = self.geometry().clone();
        let pe = self.blocks[idx].wear.pe_cycles();
        if self.fault.program_fails(wl, pe) {
            self.blocks[idx].check_program(&geo, wl.block, wl.lwl, data)?;
            self.blocks[idx].mark_failed();
            return Err(FlashError::ProgramFailed { wl });
        }
        self.blocks[idx].program_wl(&geo, wl.block, wl.lwl, data, oob)?;
        Ok(self.cache.program_latency_us(&self.model, wl, pe))
    }

    /// Marks a word-line torn by a sudden power loss mid-program: its pages
    /// become unreadable and the block rejects further programs until
    /// erased. The write pointer is not advanced.
    ///
    /// # Errors
    ///
    /// Returns an error if the word-line address is outside the geometry.
    pub fn mark_torn(&mut self, wl: WlAddr) -> Result<()> {
        let idx = self.check_wl(wl)?;
        self.blocks[idx].mark_torn(wl.lwl);
        Ok(())
    }

    /// The word-line of `addr` torn by a power loss, if any.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::AddressOutOfRange`] for addresses outside the
    /// geometry.
    pub fn torn_lwl(&self, addr: BlockAddr) -> Result<Option<crate::ids::LwlId>> {
        Ok(self.blocks[self.check(addr)?].torn_lwl)
    }

    /// Reads one page's spare-area OOB metadata under the same readability
    /// rules as [`FlashArray::read_page`]. Pages programmed without OOB
    /// report the filler default.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range, the page was never
    /// programmed, or its word-line is torn.
    ///
    /// # Panics
    ///
    /// Panics if the page type does not exist on the geometry's cell type.
    pub fn read_oob(&self, page: PageAddr) -> Result<PageOob> {
        let idx = self.check_wl(page.wl)?;
        let (_, oob) = self.blocks[idx].readable(page)?;
        Ok(oob_at(oob, self.geometry().page_offset_in_block(page)))
    }

    /// Appends a superblock seal record to the capacitor-backed metadata
    /// region. Records survive power loss; a later record for the same
    /// superblock id supersedes earlier ones.
    pub fn persist_seal_record(&mut self, record: SealRecord) {
        self.seals.push(record);
    }

    /// All persisted seal records, in append order.
    #[must_use]
    pub fn seal_records(&self) -> &[SealRecord] {
        &self.seals
    }

    /// Reads one page, returning `(payload tag, read latency µs)`: the
    /// [`WordLine::peek`] and the [`WordLine::read`] of its slot. With
    /// read-disturb tracking on, the read first counts against every
    /// sibling page of its block.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range, the page was never
    /// programmed, or its word-line is torn.
    ///
    /// # Panics
    ///
    /// Panics if the page type does not exist on the geometry's cell type.
    pub fn read_page(&self, page: PageAddr) -> Result<(u64, f64)> {
        // A bare read takes no RBER terms.
        let mut block = self.handle_at(page.wl.block, self.check(page.wl.block)?, false);
        let line = self.view(&mut block, page)?;
        let k = page.page.slot(self.geometry().cell());
        Ok((line.peek(k), line.read(k)))
    }

    /// Reads the page at dense index `index` ([`Geometry::page_index`], what
    /// an FTL's mapping stores) for its time alone, under the rules of
    /// [`FlashArray::read_page`]: the same readability checks and errors,
    /// the same read disturb when tracking is on, the same memoized tR. It
    /// loads no payload, and decodes the page's address only when the tR
    /// memo misses or the read fails.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::ReadUnwritten`] or [`FlashError::TornWordLine`]
    /// naming the page at `index`, as [`FlashArray::read_page`] would.
    ///
    /// # Panics
    ///
    /// Panics if `index >= total_pages()`.
    ///
    /// ```
    /// use flash_model::{BlockAddr, BlockId, ChipId, FlashArray, FlashConfig, LwlId, PageType, PlaneId};
    ///
    /// # fn main() -> flash_model::Result<()> {
    /// let mut array = FlashArray::new(FlashConfig::small_test(), 7);
    /// let block = BlockAddr::new(ChipId(2), PlaneId(0), BlockId(5));
    /// array.erase_block(block)?;
    /// array.program_wl(block.wl(LwlId(0)), &[4, 5, 6])?;
    /// let page = block.wl(LwlId(0)).page(PageType::Msb);
    /// let read = array.read_at(array.geometry().page_index(page))?;
    /// assert_eq!((read.peek(), read.us()), array.read_page(page)?);
    /// let unwritten = array.geometry().page_index(block.wl(LwlId(1)).page(PageType::Lsb));
    /// assert!(array.read_at(unwritten).is_err());
    /// # Ok(())
    /// # }
    /// ```
    #[inline]
    pub fn read_at(&self, index: usize) -> Result<PageRead<'_>> {
        let geo = self.geometry();
        let per_block = geo.pages_per_block() as usize;
        let (block_index, offset) = (index / per_block, index % per_block);
        let block = &self.blocks[block_index];
        let lwl = LwlId((offset / geo.pages_per_lwl() as usize) as u32);
        let (pages, _) = block.readable_lwl(lwl, || geo.page_at_index(index))?;
        let pe = block.wear.pe_cycles();
        let us = self.sense(block, index, offset, pe, || geo.page_at_index(index));
        Ok(PageRead { array: self, block, pages, block_index, offset, pe, us })
    }

    /// The time of every page read: records the read's disturb on `block`
    /// when tracking is on, then looks up the page's memoized tR. `index`
    /// and `offset` are the page's dense and in-block indices, `pe` the
    /// block's P/E count, and `page` builds its address for a memo miss.
    #[inline]
    fn sense(
        &self,
        block: &BlockState,
        index: usize,
        offset: usize,
        pe: u32,
        page: impl FnOnce() -> PageAddr,
    ) -> f64 {
        if self.track_disturb {
            block.record_read_disturb(self.geometry().pages_per_block() as usize, offset);
        }
        self.cache.read_latency_at(&self.model, index, pe, page)
    }

    /// A handle on `addr`'s static read and RBER terms, taken now (see
    /// [`BlockHandle`]).
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::AddressOutOfRange`] for addresses outside the
    /// geometry.
    pub fn block(&self, addr: BlockAddr) -> Result<BlockHandle> {
        Ok(self.handle_at(addr, self.check(addr)?, true))
    }

    /// A handle on the in-range block `addr` at dense index `index`, with
    /// its RBER terms when `ber` is set.
    #[inline]
    fn handle_at(&self, addr: BlockAddr, index: usize, ber: bool) -> BlockHandle {
        let pe = self.blocks[index].wear.pe_cycles();
        BlockHandle { addr, index, pe, ber: ber.then(|| self.ber_terms(index, pe, || addr)) }
    }

    /// The RBER terms of the block at dense index `index` at `pe` cycles;
    /// `addr` builds its address, which only the block's first terms need.
    fn ber_terms(&self, index: usize, pe: u32, addr: impl FnOnce() -> BlockAddr) -> BerTerms {
        let (factors, weak) = self.cache.rber_factors(&self.ber, &self.fault, index, pe, addr);
        BerTerms { factors, weak }
    }

    /// `handle`'s block, its terms retaken first when the block's P/E count
    /// moved since they were taken.
    #[inline]
    fn current(&self, handle: &mut BlockHandle) -> &BlockState {
        let block = &self.blocks[handle.index];
        if block.wear.pe_cycles() != handle.pe {
            *handle = self.handle_at(handle.addr, handle.index, handle.ber.is_some());
        }
        block
    }

    /// A checked view of word-line `lwl` of `block`'s block for reading its
    /// pages one after another: the range and readability checks are taken
    /// once here, the static read and RBER terms are the handle's (retaken
    /// first if the block's P/E count moved), so each page's
    /// [`WordLine::oob`], [`WordLine::read`] and
    /// [`WordLine::expected_error_bits`] answer exactly what
    /// [`FlashArray::read_oob`], [`FlashArray::read_page`] and
    /// [`FlashArray::expected_error_bits`] answer for that page;
    /// [`WordLine::peek`] answers its payload.
    ///
    /// The view borrows the array, so nothing can program, erase or age
    /// the block while it lives; the handle outlives it.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::WlOutOfRange`] for a word-line outside the
    /// block, [`FlashError::ReadUnwritten`] naming its first page when it
    /// was never programmed, or [`FlashError::TornWordLine`].
    #[inline]
    pub fn line(&self, block: &mut BlockHandle, lwl: LwlId) -> Result<WordLine<'_>> {
        self.view(block, block.addr.wl(lwl).page(PageType::Lsb))
    }

    /// [`FlashArray::line`], or `None` where the word-line holds nothing to
    /// read: never programmed, or torn by a power loss. Scans that walk
    /// word-lines stop or skip there.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::WlOutOfRange`] for a word-line outside the
    /// block.
    #[inline]
    pub fn readable_line(
        &self,
        block: &mut BlockHandle,
        lwl: LwlId,
    ) -> Result<Option<WordLine<'_>>> {
        match self.line(block, lwl) {
            Ok(line) => Ok(Some(line)),
            Err(FlashError::ReadUnwritten { .. } | FlashError::TornWordLine { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// [`FlashArray::line`] of `page`'s word-line, its readability error
    /// naming `page`, which must lie in `block`'s block.
    #[inline]
    fn view(&self, block: &mut BlockHandle, page: PageAddr) -> Result<WordLine<'_>> {
        debug_assert_eq!(page.wl.block, block.addr, "the page lies in the handle's block");
        let (wl, geo) = (page.wl, self.geometry());
        if wl.lwl.0 >= geo.lwls_per_block() {
            return Err(FlashError::WlOutOfRange { wl });
        }
        let state = self.current(block);
        let (pages, oob) = state.readable(page)?;
        let types = PageType::for_cell(geo.cell());
        let first = wl.lwl.0 as usize * types.len();
        Ok(WordLine {
            array: self,
            block: state,
            pages,
            oob,
            wl,
            types,
            first,
            index: block.index * pages.len() + first,
            pe: block.pe,
            ber: block.ber,
        })
    }

    /// A checked view of one word-line: [`FlashArray::line`] through a
    /// handle taken now.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range, the word-line was
    /// never programmed ([`FlashError::ReadUnwritten`] naming its first
    /// page), or it is torn.
    pub fn word_line(&self, wl: WlAddr) -> Result<WordLine<'_>> {
        self.line(&mut self.block(wl.block)?, wl.lwl)
    }

    /// Accumulated read disturb of one page: reads of *sibling* pages in
    /// its block since the last erase. Zero unless
    /// [`FlashArray::set_track_disturb`] is on.
    ///
    /// # Panics
    ///
    /// Panics if the page address is outside the geometry.
    #[must_use]
    pub fn read_disturbs(&self, page: PageAddr) -> u64 {
        let idx = self.geometry().block_index(page.wl.block);
        let pidx = self.geometry().offset_in_block(page);
        self.blocks[idx].read_disturbs(pidx)
    }

    /// Reads one page including read-retry overhead for a page aged by
    /// `retention_hours` of data retention: returns
    /// `(payload tag, latency µs, retry rounds)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range or the page was never
    /// programmed.
    pub fn read_page_with_retries(
        &self,
        page: PageAddr,
        retention_hours: f64,
        retry: &crate::retry::RetryModel,
    ) -> Result<(u64, f64, u32)> {
        let (data, base_us) = self.read_page(page)?;
        let error_bits = self.expected_error_bits(page, retention_hours);
        let retries = retry.retries(error_bits);
        Ok((data, retry.read_latency_us(base_us, error_bits), retries))
    }

    /// Expected error bits when reading `page` after `retention_hours` of
    /// data retention, including the page's accumulated read disturb (when
    /// tracked) and any injected weak-block elevation (16 KB user data per
    /// page, the paper's platform).
    ///
    /// # Panics
    ///
    /// Panics if the page address is outside the geometry or its page type
    /// does not exist on the geometry's cell type.
    #[must_use]
    pub fn expected_error_bits(&self, page: PageAddr, retention_hours: f64) -> f64 {
        let (geo, addr) = (self.geometry(), page.wl.block);
        let index = geo.block_index(addr);
        let block = &self.blocks[index];
        let ber = self.ber_terms(index, block.wear.pe_cycles(), || addr);
        let disturbs = block.read_disturbs(geo.page_offset_in_block(page));
        let slot_mult = self.slot_mult[page.page.slot(geo.cell()) as usize];
        self.error_bits(&ber, self.layer_term(page.wl.lwl), slot_mult, disturbs, retention_hours)
    }

    /// `BerModel::layer_factor` of word-line `lwl`'s layer.
    ///
    /// # Panics
    ///
    /// Panics if `lwl` is outside the geometry.
    #[inline]
    fn layer_term(&self, lwl: LwlId) -> f64 {
        self.layer_factor[lwl.0 as usize]
    }

    /// Expected error bits of one page from its block's terms, its layer
    /// and page-type multipliers and its disturb count: [`BerModel::rber`]
    /// scaled to a page, times the weak-block and page-type multipliers.
    #[inline]
    fn error_bits(
        &self,
        ber: &BerTerms,
        layer: f64,
        slot_mult: f64,
        disturbs: u64,
        retention_hours: f64,
    ) -> f64 {
        let disturb = self.cache.disturb_factor(&self.ber, disturbs);
        let bits = self.ber.rber_from(ber.factors, layer, retention_hours, disturb)
            * f64::from(PAGE_BYTES)
            * 8.0
            * ber.weak;
        // Page-type spread (LSB best, MSB worst) is the page-granular error
        // channel; the multiply is skipped at zero spread so the default
        // stays bit-identical to the block-granular model.
        if slot_mult == 1.0 {
            bits
        } else {
            bits * slot_mult
        }
    }

    /// Adds accelerated wear to one block without data operations — the
    /// simulation counterpart of the paper's chamber cycling between
    /// measurement points.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::AddressOutOfRange`] for addresses outside the
    /// geometry.
    pub fn age_block(&mut self, addr: BlockAddr, cycles: u32) -> Result<()> {
        let idx = self.check(addr)?;
        self.blocks[idx].wear.age(cycles);
        self.cache.invalidate_block(idx);
        Ok(())
    }

    /// Adds accelerated wear to every block.
    pub fn age_all(&mut self, cycles: u32) {
        for b in &mut self.blocks {
            b.wear.age(cycles);
        }
        self.cache.invalidate_reads();
    }
}

/// One page's OOB record from a block's spare area (`None`: nothing was
/// programmed with OOB, so every page is filler).
#[inline]
fn oob_at(oob: Option<&[PageOob]>, offset: usize) -> PageOob {
    oob.map_or_else(PageOob::default, |o| o[offset])
}

/// One block's static read and RBER terms, taken once by
/// [`FlashArray::block`]: its dense index, the P/E count the terms stand
/// at, its [`RberFactors`] and its weak-block multiplier
/// ([`FaultInjector::ber_multiplier`]).
///
/// A handle borrows nothing, so it may be kept across programs, erases and
/// aging of its block. Every read through it ([`FlashArray::line`]) first
/// compares the block's P/E count with the handle's and retakes the terms
/// when it moved: P/E is their only input besides the address. A handle
/// belongs to the array that took it.
///
/// ```
/// use flash_model::{BlockAddr, BlockId, ChipId, FlashArray, FlashConfig, LwlId, PlaneId};
///
/// # fn main() -> flash_model::Result<()> {
/// let mut array = FlashArray::new(FlashConfig::small_test(), 7);
/// let addr = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(1));
/// let mut block = array.block(addr)?;
/// // Erasing moves the P/E count; the next view retakes the handle's terms.
/// array.erase_block(addr)?;
/// array.program_wl(addr.wl(LwlId(0)), &[4, 5, 6])?;
/// let bits = array.line(&mut block, LwlId(0))?.expected_error_bits(0, 0.0);
/// let page = addr.wl(LwlId(0)).page(flash_model::PageType::Lsb);
/// assert_eq!(bits.to_bits(), array.expected_error_bits(page, 0.0).to_bits());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BlockHandle {
    addr: BlockAddr,
    index: usize,
    pe: u32,
    /// The RBER terms at `pe`; `None` only in the handle a bare page read
    /// takes, which reads no error bits.
    ber: Option<BerTerms>,
}

/// The RBER terms of one block at one P/E count.
#[derive(Debug, Clone, Copy)]
struct BerTerms {
    factors: RberFactors,
    /// [`FaultInjector::ber_multiplier`] of the block.
    weak: f64,
}

impl BlockHandle {
    /// The block's address.
    #[must_use]
    pub fn addr(&self) -> BlockAddr {
        self.addr
    }
}

/// A checked, read-only view of one programmed word-line
/// ([`FlashArray::line`], [`FlashArray::word_line`]). Pages are addressed
/// by their slot `k` in `0..pages()` (the [`PageType::slot`] order: LSB
/// first).
///
/// ```
/// use flash_model::{BlockAddr, BlockId, ChipId, FlashArray, FlashConfig, LwlId, PlaneId};
///
/// # fn main() -> flash_model::Result<()> {
/// let mut array = FlashArray::new(FlashConfig::small_test(), 7);
/// let block = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(1));
/// array.erase_block(block)?;
/// array.program_wl(block.wl(LwlId(0)), &[4, 5, 6])?;
/// let wl = array.word_line(block.wl(LwlId(0)))?;
/// for k in 0..wl.pages() {
///     let (tag, t_read) = (wl.peek(k), wl.read(k));
///     assert_eq!((tag, t_read.to_bits()), {
///         let (d, t) = array.read_page(wl.page(k))?;
///         (d, t.to_bits())
///     });
/// }
/// assert!(array.word_line(block.wl(LwlId(1))).is_err(), "never programmed");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WordLine<'a> {
    array: &'a FlashArray,
    block: &'a BlockState,
    /// The block's page payloads, by in-block offset.
    pages: &'a [u64],
    /// The block's OOB records, by in-block offset.
    oob: Option<&'a [PageOob]>,
    wl: WlAddr,
    /// The cell type's pages in slot order.
    types: &'static [PageType],
    /// In-block offset of slot 0.
    first: usize,
    /// Array-wide page index of slot 0.
    index: usize,
    /// The block's P/E count and RBER terms, current for this view.
    pe: u32,
    ber: Option<BerTerms>,
}

impl WordLine<'_> {
    /// Pages on the word-line (one per bit of the cell type).
    #[inline]
    #[must_use]
    pub fn pages(&self) -> u32 {
        self.types.len() as u32
    }

    /// Address of the page in slot `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.pages()`.
    #[inline]
    #[must_use]
    pub fn page(&self, k: u32) -> PageAddr {
        PageAddr { wl: self.wl, page: self.types[k as usize] }
    }

    /// In-block offset of slot `k`.
    #[inline]
    fn offset(&self, k: u32) -> usize {
        assert!((k as usize) < self.types.len(), "page slot {k} out of range");
        self.first + k as usize
    }

    /// The OOB record of slot `k`, as [`FlashArray::read_oob`] reports it.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.pages()`.
    #[inline]
    #[must_use]
    pub fn oob(&self, k: u32) -> PageOob {
        oob_at(self.oob, self.offset(k))
    }

    /// Reads slot `k` for its time, exactly as [`FlashArray::read_page`]
    /// does — its read disturb is recorded, then its memoized tR looked up
    /// — returning the read latency, µs. The payload is
    /// [`WordLine::peek`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.pages()`.
    #[inline]
    pub fn read(&self, k: u32) -> f64 {
        let offset = self.offset(k);
        self.array.sense(self.block, self.index + k as usize, offset, self.pe, || self.page(k))
    }

    /// The payload tag of slot `k`, as [`FlashArray::read_page`] reports
    /// it. A peek, not a read: it records no disturb and takes no time, for
    /// parity math and debug checks on pages a read already charged.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.pages()`.
    #[inline]
    #[must_use]
    pub fn peek(&self, k: u32) -> u64 {
        self.pages[self.offset(k)]
    }

    /// Expected error bits of slot `k` after `retention_hours` of data
    /// retention, as [`FlashArray::expected_error_bits`] computes them:
    /// the disturb count is the page's current one, so reads through this
    /// view count.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.pages()`.
    #[inline]
    #[must_use]
    pub fn expected_error_bits(&self, k: u32, retention_hours: f64) -> f64 {
        let disturbs = self.block.read_disturbs(self.offset(k));
        let ber = self.ber.as_ref().expect("views from `FlashArray::line` carry the RBER terms");
        let (layer, slot_mult) =
            (self.array.layer_term(self.wl.lwl), self.array.slot_mult[k as usize]);
        self.array.error_bits(ber, layer, slot_mult, disturbs, retention_hours)
    }
}

/// One page read by dense index ([`FlashArray::read_at`]): its time, and
/// on demand its error bits and its payload.
#[derive(Debug)]
pub struct PageRead<'a> {
    array: &'a FlashArray,
    block: &'a BlockState,
    /// The block's page payloads, by in-block offset.
    pages: &'a [u64],
    /// The block's dense index and the page's offset in it.
    block_index: usize,
    offset: usize,
    /// The block's P/E count.
    pe: u32,
    us: f64,
}

impl PageRead<'_> {
    /// The read latency (the page's memoized tR), µs.
    #[inline]
    #[must_use]
    pub fn us(&self) -> f64 {
        self.us
    }

    /// Expected error bits of the page after `retention_hours` of data
    /// retention, as [`FlashArray::expected_error_bits`] computes them,
    /// this read's disturb included. The block's address is decoded only
    /// when its RBER terms are taken for the first time.
    #[must_use]
    pub fn expected_error_bits(&self, retention_hours: f64) -> f64 {
        let (array, offset) = (self.array, self.offset);
        let geo = array.geometry();
        let ber =
            array.ber_terms(self.block_index, self.pe, || geo.block_at_index(self.block_index));
        let per_lwl = geo.pages_per_lwl() as usize;
        let (layer, slot_mult) =
            (array.layer_factor[offset / per_lwl], array.slot_mult[offset % per_lwl]);
        array.error_bits(&ber, layer, slot_mult, self.block.read_disturbs(offset), retention_hours)
    }

    /// The page's payload tag, as [`FlashArray::read_page`] reports it. A
    /// peek, like [`WordLine::peek`]: it records no disturb.
    #[inline]
    #[must_use]
    pub fn peek(&self) -> u64 {
        self.pages[self.offset]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{BlockId, ChipId, LwlId, PageType, PlaneId};

    fn array() -> FlashArray {
        FlashArray::new(FlashConfig::small_test(), 17)
    }

    fn blk(c: u16, b: u32) -> BlockAddr {
        BlockAddr::new(ChipId(c), PlaneId(0), BlockId(b))
    }

    #[test]
    fn fresh_array_reports_fresh_phase() {
        let a = array();
        assert_eq!(a.phase(blk(0, 0)).unwrap(), BlockPhase::Fresh);
        assert_eq!(a.pe_cycles(blk(0, 0)).unwrap(), 0);
    }

    #[test]
    fn erase_then_program_then_read_roundtrip() {
        let mut a = array();
        let b = blk(1, 2);
        a.erase_block(b).unwrap();
        a.program_wl(b.wl(LwlId(0)), &[7, 8, 9]).unwrap();
        let (d, t) = a.read_page(b.wl(LwlId(0)).page(PageType::Csb)).unwrap();
        assert_eq!(d, 8);
        assert!(t > 0.0);
    }

    #[test]
    fn program_latency_matches_model() {
        let mut a = array();
        let b = blk(0, 5);
        a.erase_block(b).unwrap();
        let t = a.program_wl(b.wl(LwlId(0)), &[0, 0, 0]).unwrap();
        assert_eq!(t, a.latency_model().program_latency_us(b.wl(LwlId(0)), 1));
    }

    #[test]
    fn mp_outcome_total_is_max_of_members() {
        let mut a = array();
        let member_us: Vec<f64> = (0..4).map(|c| a.erase_block(blk(c, 0)).unwrap()).collect();
        let out = MpOutcome::from_members(member_us);
        assert_eq!(out.member_us.len(), 4);
        let max = out.member_us.iter().copied().fold(f64::MIN, f64::max);
        let min = out.member_us.iter().copied().fold(f64::MAX, f64::min);
        assert_eq!(out.total_us, max);
        assert!((out.extra_us - (max - min)).abs() < 1e-12);
        let none = MpOutcome::from_members(Vec::new());
        assert_eq!((none.total_us, none.extra_us), (0.0, 0.0));
    }

    #[test]
    fn aging_changes_reported_latency() {
        let mut a = array();
        let b = blk(0, 0);
        a.erase_block(b).unwrap();
        let before = a.latency_model().erase_latency_us(b, a.pe_cycles(b).unwrap());
        a.age_block(b, 3000).unwrap();
        let after = a.latency_model().erase_latency_us(b, a.pe_cycles(b).unwrap());
        assert!(after > before, "wear should slow erase: {before} -> {after}");
    }

    #[test]
    fn age_all_touches_every_block() {
        let mut a = array();
        a.age_all(500);
        assert_eq!(a.pe_cycles(blk(3, 63)).unwrap(), 500);
    }

    #[test]
    fn out_of_range_is_reported() {
        let a = array();
        let bad = BlockAddr::new(ChipId(9), PlaneId(0), BlockId(0));
        assert!(matches!(a.phase(bad), Err(FlashError::AddressOutOfRange { .. })));
    }

    #[test]
    fn wl_out_of_range_is_reported() {
        let mut a = array();
        let b = blk(0, 0);
        a.erase_block(b).unwrap();
        let bad = b.wl(LwlId(a.geometry().lwls_per_block()));
        assert!(matches!(a.program_wl(bad, &[0, 0, 0]), Err(FlashError::WlOutOfRange { .. })));
    }

    #[test]
    fn retries_appear_only_when_worn() {
        let mut a = array();
        let retry = crate::retry::RetryModel::default();
        let b = blk(0, 0);
        a.erase_block(b).unwrap();
        a.program_wl(b.wl(LwlId(0)), &[1, 2, 3]).unwrap();
        let page = b.wl(LwlId(0)).page(PageType::Lsb);
        let (_, fresh_lat, fresh_r) = a.read_page_with_retries(page, 0.0, &retry).unwrap();
        assert_eq!(fresh_r, 0, "fresh page needs no retries");
        // Age heavily plus long retention: retries must kick in and slow reads.
        a.age_block(b, 30_000).unwrap();
        let (_, worn_lat, worn_r) = a.read_page_with_retries(page, 50_000.0, &retry).unwrap();
        assert!(worn_r > 0, "worn page should retry");
        assert!(worn_lat > fresh_lat);
    }

    #[test]
    fn erase_increments_pe() {
        let mut a = array();
        let b = blk(2, 3);
        a.erase_block(b).unwrap();
        a.erase_block(b).unwrap();
        assert_eq!(a.pe_cycles(b).unwrap(), 2);
    }

    fn faulty_array(fault: crate::FaultConfig) -> FlashArray {
        FlashArray::with_faults(FlashConfig::small_test(), 17, fault)
    }

    /// High per-operation rates so the fixed-seed block scans below always
    /// find a victim (sweep-style `with_rate` spreads program risk across a
    /// whole block fill, far too thin for a 1-plane scan).
    fn harsh_faults() -> crate::FaultConfig {
        crate::FaultConfig {
            program_fail_prob: 0.3,
            erase_fail_prob: 0.2,
            weak_block_prob: 0.8,
            ..crate::FaultConfig::with_rate(0.1)
        }
    }

    #[test]
    fn disabled_faults_leave_latencies_bit_identical() {
        let mut plain = array();
        let mut gated = faulty_array(crate::FaultConfig::default());
        let b = blk(1, 4);
        assert_eq!(
            plain.erase_block(b).unwrap().to_bits(),
            gated.erase_block(b).unwrap().to_bits()
        );
        let wl = b.wl(LwlId(0));
        assert_eq!(
            plain.program_wl(wl, &[1, 2, 3]).unwrap().to_bits(),
            gated.program_wl(wl, &[1, 2, 3]).unwrap().to_bits()
        );
        let page = wl.page(PageType::Lsb);
        let retry = crate::retry::RetryModel::default();
        let (_, t0, _) = plain.read_page_with_retries(page, 100.0, &retry).unwrap();
        let (_, t1, _) = gated.read_page_with_retries(page, 100.0, &retry).unwrap();
        assert_eq!(t0.to_bits(), t1.to_bits());
    }

    #[test]
    fn erase_fault_marks_block_failed_and_sticky() {
        let mut a = faulty_array(harsh_faults());
        let geo = a.geometry().clone();
        // Find a block whose first erase fails.
        let victim = (0..geo.blocks_per_plane())
            .map(|b| blk(0, b))
            .find(|&b| a.fault_injector().erase_fails(b, 0))
            .expect("20% erase-fail rate must hit some block");
        assert_eq!(a.erase_block(victim).unwrap_err(), FlashError::EraseFailed { addr: victim });
        assert_eq!(a.phase(victim).unwrap(), BlockPhase::Failed);
        // Failed is sticky: later erases keep failing without a new draw.
        assert!(matches!(a.erase_block(victim), Err(FlashError::EraseFailed { .. })));
        assert!(a.erase_block(victim).unwrap_err().is_media_failure());
    }

    #[test]
    fn program_fault_keeps_earlier_wls_readable() {
        let mut a = faulty_array(harsh_faults());
        let geo = a.geometry().clone();
        // Find a block that erases fine and whose second WL program fails.
        let victim = (0..geo.blocks_per_plane())
            .map(|b| blk(1, b))
            .find(|&b| {
                !a.fault_injector().erase_fails(b, 0)
                    && !a.fault_injector().program_fails(b.wl(LwlId(0)), 1)
                    && a.fault_injector().program_fails(b.wl(LwlId(1)), 1)
            })
            .expect("30% program-fail rate must hit some block");
        a.erase_block(victim).unwrap();
        a.program_wl(victim.wl(LwlId(0)), &[7, 8, 9]).unwrap();
        let err = a.program_wl(victim.wl(LwlId(1)), &[1, 2, 3]).unwrap_err();
        assert_eq!(err, FlashError::ProgramFailed { wl: victim.wl(LwlId(1)) });
        assert!(err.is_media_failure());
        assert_eq!(a.phase(victim).unwrap(), BlockPhase::Failed);
        // The WL programmed before the failure survives for relocation.
        let (d, _) = a.read_page(victim.wl(LwlId(0)).page(PageType::Csb)).unwrap();
        assert_eq!(d, 8);
        // But the block takes no further programs or erases.
        assert!(a.program_wl(victim.wl(LwlId(1)), &[1, 2, 3]).is_err());
        assert!(a.erase_block(victim).is_err());
    }

    #[test]
    fn oob_rides_along_with_programs_bit_identically() {
        let mut plain = array();
        let mut spare = array();
        let b = blk(0, 7);
        plain.erase_block(b).unwrap();
        spare.erase_block(b).unwrap();
        let wl = b.wl(LwlId(0));
        let oob: Vec<PageOob> = (0..3)
            .map(|i| PageOob { lpn: 100 + i, seq: 50 + i, sb_id: 9, member_slot: 2 })
            .collect();
        let t0 = plain.program_wl(wl, &[1, 2, 3]).unwrap();
        let t1 = spare.program_wl_with_oob(wl, &[1, 2, 3], &oob).unwrap();
        assert_eq!(t0.to_bits(), t1.to_bits(), "OOB must not change latency");
        let page = wl.page(PageType::Csb);
        assert_eq!(spare.read_oob(page).unwrap(), oob[1]);
        // Pages programmed without OOB report the filler default.
        assert!(plain.read_oob(page).unwrap().is_filler());
        // Erase clears the spare area too.
        spare.erase_block(b).unwrap();
        assert!(spare.read_oob(page).is_err());
    }

    #[test]
    fn oob_length_mismatch_is_rejected() {
        let mut a = array();
        let b = blk(0, 8);
        a.erase_block(b).unwrap();
        let err =
            a.program_wl_with_oob(b.wl(LwlId(0)), &[1, 2, 3], &[PageOob::default()]).unwrap_err();
        assert_eq!(err, FlashError::DataLengthMismatch { expected: 3, got: 1 });
    }

    #[test]
    fn torn_wl_is_unreadable_and_blocks_programs_until_erase() {
        let mut a = array();
        let b = blk(2, 5);
        a.erase_block(b).unwrap();
        a.program_wl(b.wl(LwlId(0)), &[1, 2, 3]).unwrap();
        a.mark_torn(b.wl(LwlId(1))).unwrap();
        assert_eq!(a.torn_lwl(b).unwrap(), Some(LwlId(1)));
        // The completed WL stays readable; the torn one exposes nothing.
        assert!(a.read_page(b.wl(LwlId(0)).page(PageType::Lsb)).is_ok());
        let err = a.read_page(b.wl(LwlId(1)).page(PageType::Lsb)).unwrap_err();
        assert!(matches!(err, FlashError::TornWordLine { .. }));
        assert!(a.read_oob(b.wl(LwlId(1)).page(PageType::Lsb)).is_err());
        // Programs are rejected until the block is erased.
        let err = a.program_wl(b.wl(LwlId(1)), &[4, 5, 6]).unwrap_err();
        assert!(matches!(err, FlashError::TornWordLine { .. }));
        a.erase_block(b).unwrap();
        assert_eq!(a.torn_lwl(b).unwrap(), None);
        a.program_wl(b.wl(LwlId(0)), &[4, 5, 6]).unwrap();
    }

    #[test]
    fn fast_latency_cache_is_bit_identical_end_to_end() {
        // Every answer of the always-on memo equals the uncached model
        // evaluated on the array's own state: erases at the P/E count
        // before the erase, programs and reads at the current one, error
        // bits at the current P/E and disturb counts.
        let mut a = faulty_array(crate::FaultConfig {
            page_type_ber_spread: 0.35,
            weak_block_prob: 0.5,
            ..crate::FaultConfig::default()
        });
        a.set_track_disturb(true);
        let model = a.latency_model().clone();
        let geo = a.geometry().clone();
        let retry = crate::retry::RetryModel::default();
        for round in 0..3u64 {
            for c in 0..4 {
                let b = blk(c, 2);
                let pe = a.pe_cycles(b).unwrap();
                assert_eq!(
                    a.erase_block(b).unwrap().to_bits(),
                    model.erase_latency_us(b, pe).to_bits(),
                    "erase chip {c} round {round}"
                );
                let pe = pe + 1;
                for lwl in 0..4 {
                    let wl = b.wl(LwlId(lwl));
                    assert_eq!(
                        a.program_wl(wl, &[1, 2, 3]).unwrap().to_bits(),
                        model.program_latency_us(wl, pe).to_bits(),
                        "program {wl} round {round}"
                    );
                }
                for (i, pt) in [PageType::Lsb, PageType::Csb, PageType::Msb].into_iter().enumerate()
                {
                    let page = b.wl(LwlId(round as u32)).page(pt);
                    // Twice: the second read hits the memo.
                    for _ in 0..2 {
                        let (_, t) = a.read_page(page).unwrap();
                        assert_eq!(t.to_bits(), model.read_latency_us(page, pe).to_bits());
                    }
                    let weak = a.fault_injector().ber_multiplier(b);
                    let bits = a.ber_model().expected_error_bits(
                        &geo,
                        b,
                        geo.layer_of(page.wl.lwl),
                        pe,
                        12.5,
                        a.read_disturbs(page),
                        PAGE_BYTES,
                    ) * weak
                        * a.fault_injector().page_type_ber_mult(i as u32, 3);
                    assert_eq!(a.expected_error_bits(page, 12.5).to_bits(), bits.to_bits());
                    let (_, t, _) = a.read_page_with_retries(page, 12.5, &retry).unwrap();
                    assert!(t > 0.0);
                }
            }
        }
    }

    #[test]
    fn disturb_memo_is_exact_on_both_sides_of_its_cap() {
        let a = array();
        let ber = a.ber_model();
        for n in [0, 1, 999, 16_383, 16_384, 1 << 20, u64::MAX] {
            for _ in 0..2 {
                assert_eq!(
                    a.cache.disturb_factor(ber, n).to_bits(),
                    ber.disturb_factor(n).to_bits(),
                    "{n}"
                );
            }
        }
        assert_eq!(ber.disturb_factor(0), 1.0);
    }

    #[test]
    fn memo_tables_wait_for_the_first_flash_operation() {
        // Offline characterization builds a paper-platform array per run
        // and only queries its latency model: that must allocate no memo.
        let mut a = FlashArray::new(FlashConfig::paper_platform(), 3);
        let _ = a.latency_model().program_latency_us(blk(0, 0).wl(LwlId(0)), 0);
        assert_eq!(a.cache.allocated_entries(), 0);
        let b = blk(0, 0);
        a.erase_block(b).unwrap();
        assert!(a.cache.allocated_entries() > 0);
    }

    #[test]
    fn seal_records_persist_in_append_order() {
        let mut a = array();
        assert!(a.seal_records().is_empty());
        a.persist_seal_record(crate::SealRecord {
            sb_id: 0,
            members: vec![blk(0, 0)],
            summaries: vec![],
        });
        a.persist_seal_record(crate::SealRecord {
            sb_id: 1,
            members: vec![blk(1, 0)],
            summaries: vec![],
        });
        assert_eq!(a.seal_records().len(), 2);
        assert_eq!(a.seal_records()[1].sb_id, 1);
    }

    #[test]
    fn weak_blocks_elevate_expected_error_bits() {
        let mut a = faulty_array(harsh_faults());
        let geo = a.geometry().clone();
        let inj = a.fault_injector().clone();
        let weak = (0..geo.blocks_per_plane())
            .map(|b| blk(2, b))
            .find(|&b| inj.ber_multiplier(b) > 1.0 && !inj.erase_fails(b, 0))
            .expect("80% weak rate must hit some block");
        a.erase_block(weak).unwrap();
        let page = weak.wl(LwlId(0)).page(PageType::Lsb);
        let bits = a.expected_error_bits(page, 0.0);
        let retry = crate::retry::RetryModel::default();
        assert!(retry.is_uncorrectable(bits), "weak page must exceed the retry ladder: {bits}");
    }

    #[test]
    fn sibling_read_hammering_elevates_error_bits_until_erase() {
        let mut a = array();
        a.set_track_disturb(true);
        let b = blk(0, 3);
        a.erase_block(b).unwrap();
        a.program_wl(b.wl(LwlId(0)), &[1, 2, 3]).unwrap();
        let victim = b.wl(LwlId(0)).page(PageType::Lsb);
        let sibling = b.wl(LwlId(0)).page(PageType::Msb);
        let quiet = a.expected_error_bits(victim, 0.0);
        for _ in 0..5_000 {
            a.read_page(sibling).unwrap();
        }
        assert_eq!(a.read_disturbs(victim), 5_000);
        let hammered = a.expected_error_bits(victim, 0.0);
        assert!(hammered > quiet * 5.0, "{quiet} -> {hammered}");
        // Reads of the victim itself do not disturb it further.
        a.read_page(victim).unwrap();
        assert_eq!(a.read_disturbs(victim), 5_000);
        // Erase wipes the accumulated disturb with the data (the rewritten
        // page is one P/E cycle older, so compare against the hammered
        // level, not bitwise against the original).
        a.erase_block(b).unwrap();
        a.program_wl(b.wl(LwlId(0)), &[1, 2, 3]).unwrap();
        assert_eq!(a.read_disturbs(victim), 0);
        assert!(a.expected_error_bits(victim, 0.0) < hammered / 5.0);
    }

    #[test]
    fn untracked_reads_leave_error_bits_bit_identical() {
        // Hammer one array with tracking off: every expected-error-bit
        // answer must equal a never-read twin's, bit for bit.
        let mut a = array();
        let mut twin = array();
        let b = blk(1, 6);
        for arr in [&mut a, &mut twin] {
            arr.erase_block(b).unwrap();
            arr.program_wl(b.wl(LwlId(0)), &[1, 2, 3]).unwrap();
        }
        let victim = b.wl(LwlId(0)).page(PageType::Lsb);
        for _ in 0..1_000 {
            a.read_page(b.wl(LwlId(0)).page(PageType::Msb)).unwrap();
        }
        assert_eq!(a.read_disturbs(victim), 0, "tracking off records nothing");
        assert_eq!(
            a.expected_error_bits(victim, 3.5).to_bits(),
            twin.expected_error_bits(victim, 3.5).to_bits()
        );
    }
}
