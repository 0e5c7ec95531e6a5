//! The stateful flash array: legal-operation enforcement plus latency
//! reporting, including multi-plane (MP) command semantics.

use crate::ber::{BerModel, RberFactors};
use crate::chip::{BlockPhase, BlockState};
use crate::config::FlashConfig;
use crate::error::FlashError;
use crate::fault::{FaultConfig, FaultInjector};
use crate::geometry::Geometry;
use crate::ids::{BlockAddr, PageAddr, WlAddr};
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
    /// Builds an outcome from individual member latencies. Exposed so an
    /// FTL issuing per-member operations (e.g. around a failed member) can
    /// report the identical command-level numbers. An empty slice yields an
    /// all-zero outcome.
    #[must_use]
    pub fn from_members(member_us: Vec<f64>) -> Self {
        if member_us.is_empty() {
            return MpOutcome { member_us, total_us: 0.0, extra_us: 0.0 };
        }
        let max = member_us.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = member_us.iter().copied().fold(f64::INFINITY, f64::min);
        MpOutcome { member_us, total_us: max, extra_us: max - min }
    }
}

/// A stateful flash array backed by the deterministic latency model.
///
/// Operations check NAND legality (erase-before-program, in-order word-line
/// programming, no reads of unwritten pages) and report synthesized
/// latencies that depend on each block's process-variation traits and wear.
///
/// ```
/// use flash_model::{FlashArray, FlashConfig, BlockAddr, ChipId, PlaneId, BlockId, LwlId};
///
/// # fn main() -> flash_model::Result<()> {
/// let mut array = FlashArray::new(FlashConfig::small_test(), 1);
/// // A multi-chip erase completes when its slowest member finishes.
/// let members: Vec<BlockAddr> =
///     (0..4).map(|c| BlockAddr::new(ChipId(c), PlaneId(0), BlockId(0))).collect();
/// let outcome = array.mp_erase(&members)?;
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
    /// Optional memoization of the static latency and RBER terms
    /// ([`FlashArray::set_fast_latency`]); bit-identical to the uncached
    /// models, so enabling it never changes any reported latency or error
    /// count.
    fast_latency: Option<LatencyCache>,
    /// Whether payload reads accumulate per-block read-disturb counters
    /// ([`FlashArray::set_track_disturb`]). Off by default: untracked runs
    /// never allocate counters, and a zero disturb count multiplies the
    /// RBER by exactly 1.0, so tracking state never perturbs latencies.
    track_disturb: bool,
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
        let model = LatencyModel::new(config.geometry.clone(), config.variation, seed);
        let blocks = vec![BlockState::default(); config.geometry.total_blocks() as usize];
        FlashArray {
            model,
            ber: BerModel::new(seed),
            fault: FaultInjector::new(fault, seed),
            blocks,
            seals: Vec::new(),
            fast_latency: None,
            track_disturb: false,
        }
    }

    /// Turns memoization of the static latency and RBER terms on or off.
    /// The cache is an optimization only: every latency and error count it
    /// returns is bit-identical to the uncached [`LatencyModel`] and
    /// [`BerModel`] queries, so this flag never changes simulation results.
    /// It skips the static sampler draws of every program and erase, every
    /// re-read of a page since its block's last erase, and the per-block
    /// RBER terms. The cost is a dense `f64` table per (block, word-line)
    /// for program prefixes and one per physical page for read latencies:
    /// 8 B per physical page, zero-filled so a page never read maps no
    /// memory. Toggling clears the cache.
    pub fn set_fast_latency(&mut self, enabled: bool) {
        self.fast_latency = enabled.then(|| LatencyCache::new(self.model.geometry()));
    }

    /// Turns read-disturb tracking on or off. When on, every payload read
    /// bumps its block's disturb counters and
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
        Ok(match &mut self.fast_latency {
            Some(cache) => {
                cache.invalidate_block(idx);
                cache.erase_latency_us(&self.model, addr, pe)
            }
            None => self.model.erase_latency_us(addr, pe),
        })
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
        Ok(match &mut self.fast_latency {
            Some(cache) => cache.program_latency_us(&self.model, wl, pe),
            None => self.model.program_latency_us(wl, pe),
        })
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
    pub fn read_oob(&self, page: PageAddr) -> Result<PageOob> {
        let idx = self.check_wl(page.wl)?;
        self.blocks[idx].read_oob(self.geometry(), page)
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

    /// Reads one page, returning `(payload tag, read latency µs)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range or the page was never
    /// programmed.
    pub fn read_page(&self, page: PageAddr) -> Result<(u64, f64)> {
        let idx = self.check_wl(page.wl)?;
        let data = self.blocks[idx].read_page(self.geometry(), page)?;
        if self.track_disturb {
            let total = self.geometry().pages_per_block() as usize;
            let pidx = self.geometry().offset_in_block(page);
            self.blocks[idx].record_read_disturb(total, pidx);
        }
        let pe = self.blocks[idx].wear.pe_cycles();
        let t = match &self.fast_latency {
            Some(cache) => cache.read_latency_us(&self.model, page, pe),
            None => self.model.read_latency_us(page, pe),
        };
        Ok((data, t))
    }

    /// Accumulated read disturb of one page: payload reads of *sibling*
    /// pages in its block since the last erase. Zero unless
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

    fn check_mp_distinct(addrs: impl Iterator<Item = BlockAddr>) -> Result<()> {
        let mut seen = Vec::new();
        for a in addrs {
            let key = (a.chip, a.plane);
            if seen.contains(&key) {
                return Err(FlashError::MultiPlaneConflict { addr: a });
            }
            seen.push(key);
        }
        Ok(())
    }

    /// Multi-plane / multi-chip erase: erases every block and reports the
    /// command outcome (completion = slowest member).
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty, addresses a plane twice, or any
    /// member address is invalid. On error no state is modified.
    pub fn mp_erase(&mut self, blocks: &[BlockAddr]) -> Result<MpOutcome> {
        if blocks.is_empty() {
            return Err(FlashError::EmptyMultiPlane);
        }
        Self::check_mp_distinct(blocks.iter().copied())?;
        for &b in blocks {
            self.check(b)?;
        }
        let mut member = Vec::with_capacity(blocks.len());
        for &b in blocks {
            member.push(self.erase_block(b)?);
        }
        Ok(MpOutcome::from_members(member))
    }

    /// Multi-plane / multi-chip word-line program (the super word-line
    /// operation of the paper's Figure 2). `data` is one payload slice per
    /// member word-line.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty or mismatched with `data`,
    /// addresses a plane twice, or any member program is illegal. Members
    /// before the failing one remain programmed (matching real MP commands,
    /// which fail per-plane).
    pub fn mp_program(&mut self, wls: &[WlAddr], data: &[&[u64]]) -> Result<MpOutcome> {
        if wls.is_empty() {
            return Err(FlashError::EmptyMultiPlane);
        }
        if wls.len() != data.len() {
            return Err(FlashError::DataLengthMismatch {
                expected: wls.len() as u32,
                got: data.len(),
            });
        }
        Self::check_mp_distinct(wls.iter().map(|w| w.block))?;
        let mut member = Vec::with_capacity(wls.len());
        for (&wl, &d) in wls.iter().zip(data) {
            member.push(self.program_wl(wl, d)?);
        }
        Ok(MpOutcome::from_members(member))
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
    /// Panics if the page address is outside the geometry.
    #[must_use]
    pub fn expected_error_bits(&self, page: PageAddr, retention_hours: f64) -> f64 {
        let idx = self.geometry().block_index(page.wl.block);
        let pe = self.blocks[idx].wear.pe_cycles();
        let layer = self.geometry().layer_of(page.wl.lwl);
        let pidx = self.geometry().offset_in_block(page);
        let disturbs = self.blocks[idx].read_disturbs(pidx);
        let geo = self.geometry();
        let addr = page.wl.block;
        let (factors, weak) = match &self.fast_latency {
            Some(cache) => cache.rber_factors(geo, &self.ber, &self.fault, addr, pe),
            None => (
                RberFactors { wear: self.ber.wear_factor(pe), block: self.ber.block_factor(addr) },
                self.fault.ber_multiplier(addr),
            ),
        };
        let bits = self.ber.expected_error_bits_with(
            geo,
            factors,
            layer,
            retention_hours,
            disturbs,
            PAGE_BYTES,
        ) * weak;
        // Page-type spread (LSB best, MSB worst) is the page-granular error
        // channel; the multiply is skipped at zero spread so the default
        // stays bit-identical to the block-granular model.
        let ptm = self.fault.page_type_ber_mult(page.page.slot(geo.cell()), geo.pages_per_lwl());
        if ptm == 1.0 {
            bits
        } else {
            bits * ptm
        }
    }

    /// Multi-plane / multi-chip page read.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty, addresses a plane twice, or any
    /// page is unwritten.
    pub fn mp_read(&self, pages: &[PageAddr]) -> Result<(Vec<u64>, MpOutcome)> {
        if pages.is_empty() {
            return Err(FlashError::EmptyMultiPlane);
        }
        Self::check_mp_distinct(pages.iter().map(|p| p.wl.block))?;
        let mut member = Vec::with_capacity(pages.len());
        let mut payloads = Vec::with_capacity(pages.len());
        for &p in pages {
            let (d, t) = self.read_page(p)?;
            payloads.push(d);
            member.push(t);
        }
        Ok((payloads, MpOutcome::from_members(member)))
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
        if let Some(cache) = &mut self.fast_latency {
            cache.invalidate_block(idx);
        }
        Ok(())
    }

    /// Adds accelerated wear to every block.
    pub fn age_all(&mut self, cycles: u32) {
        for b in &mut self.blocks {
            b.wear.age(cycles);
        }
        if let Some(cache) = &mut self.fast_latency {
            cache.invalidate_reads();
        }
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
    fn mp_erase_total_is_max_of_members() {
        let mut a = array();
        let blocks = [blk(0, 0), blk(1, 0), blk(2, 0), blk(3, 0)];
        let out = a.mp_erase(&blocks).unwrap();
        assert_eq!(out.member_us.len(), 4);
        let max = out.member_us.iter().copied().fold(f64::MIN, f64::max);
        let min = out.member_us.iter().copied().fold(f64::MAX, f64::min);
        assert_eq!(out.total_us, max);
        assert!((out.extra_us - (max - min)).abs() < 1e-12);
    }

    #[test]
    fn mp_rejects_same_plane_twice() {
        let mut a = array();
        let err = a.mp_erase(&[blk(0, 0), blk(0, 1)]).unwrap_err();
        assert!(matches!(err, FlashError::MultiPlaneConflict { .. }));
    }

    #[test]
    fn mp_rejects_empty() {
        let mut a = array();
        assert_eq!(a.mp_erase(&[]).unwrap_err(), FlashError::EmptyMultiPlane);
    }

    #[test]
    fn mp_program_roundtrip_across_chips() {
        let mut a = array();
        let blocks = [blk(0, 1), blk(1, 1), blk(2, 1), blk(3, 1)];
        for &b in &blocks {
            a.erase_block(b).unwrap();
        }
        let wls: Vec<_> = blocks.iter().map(|b| b.wl(LwlId(0))).collect();
        let payloads = [[1u64, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]];
        let refs: Vec<&[u64]> = payloads.iter().map(|p| p.as_slice()).collect();
        let out = a.mp_program(&wls, &refs).unwrap();
        assert!(out.extra_us >= 0.0);
        let pages: Vec<_> = wls.iter().map(|w| w.page(PageType::Lsb)).collect();
        let (data, _) = a.mp_read(&pages).unwrap();
        assert_eq!(data, vec![1, 4, 7, 10]);
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
        let mut plain = array();
        let mut fast = array();
        fast.set_fast_latency(true);
        for round in 0..3u64 {
            for c in 0..4 {
                let b = blk(c, 2);
                assert_eq!(
                    plain.erase_block(b).unwrap().to_bits(),
                    fast.erase_block(b).unwrap().to_bits(),
                    "erase chip {c} round {round}"
                );
                for lwl in 0..4 {
                    let wl = b.wl(LwlId(lwl));
                    assert_eq!(
                        plain.program_wl(wl, &[1, 2, 3]).unwrap().to_bits(),
                        fast.program_wl(wl, &[1, 2, 3]).unwrap().to_bits(),
                        "program {wl} round {round}"
                    );
                }
            }
        }
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
