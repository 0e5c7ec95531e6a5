//! Latency synthesis: `tPROG`, `tBERS` and `tR` as pure functions of
//! `(seed, address, P/E cycle)`.
//!
//! The decomposition (all terms in µs, then quantized to the pulse grid):
//!
//! ```text
//! tPROG(chip, plane, blk, layer, str) =
//!     layer_base(chip, layer)              // V-curve + layer-group + chip offsets
//!   + block_speed(blk)                     // shared/own/jitter mixture + outliers
//!   + pattern_penalty(blk, layer, str)     // slow strings pay ~1 pulse
//!   + noise(blk, lwl, pe)                  // i.i.d., grows with wear
//!   - wear_prog_slope * pe/1000
//!
//! tBERS(blk) = ers_base + chip_ers + ers_dev(blk) + noise_e(pe)
//!            + wear_ers_slope * pe/1000
//! ```
//!
//! `ers_dev` correlates (ρ = `ers_pgm_corr`) with the *chip-local* part of
//! the block's program speed — not the index-shared part — which is why
//! sequential assembly barely improves erase latency in the paper while
//! latency-sorted assemblies improve it a lot.

use crate::ber::{BerModel, RberFactors};
use crate::fault::FaultInjector;
use crate::geometry::Geometry;
use crate::ids::{BlockAddr, PageAddr, PwlLayer, StringId, WlAddr};
use crate::sampler::Sampler;
use crate::variation::{StringMask, VariationConfig};
use std::cell::RefCell;

// Domain tags: keep every random quantity in its own hash domain.
const TAG_LAYER_GROUP: u64 = 0x10;
const TAG_CHIP_OFFSET: u64 = 0x11;
const TAG_BLOCK_SHARED: u64 = 0x20;
const TAG_BLOCK_OWN: u64 = 0x21;
const TAG_BLOCK_JITTER: u64 = 0x22;
const TAG_BLOCK_OUTLIER: u64 = 0x23;
const TAG_BLOCK_OUTLIER_MAG: u64 = 0x24;
const TAG_FAMILY_SHARED: u64 = 0x30;
const TAG_FAMILY_OWN: u64 = 0x31;
const TAG_FAMILY_IS_SHARED: u64 = 0x32;
const TAG_PATTERN: u64 = 0x33;
const TAG_PATTERN_FLIP: u64 = 0x34;
const TAG_PATTERN_FLIP_PICK: u64 = 0x35;
const TAG_NOISE: u64 = 0x40;
const TAG_ERS_CHIP: u64 = 0x50;
const TAG_ERS_INDEP: u64 = 0x51;
const TAG_ERS_NOISE: u64 = 0x52;
const TAG_ERS_OUTLIER: u64 = 0x53;
const TAG_ERS_OUTLIER_MAG: u64 = 0x54;
const TAG_READ_NOISE: u64 = 0x60;
const TAG_READ_BLOCK: u64 = 0x61;

/// Deterministic latency synthesizer for one flash array.
///
/// ```
/// use flash_model::{Geometry, LatencyModel, VariationConfig, BlockAddr, ChipId, PlaneId, BlockId, LwlId};
///
/// let model = LatencyModel::new(Geometry::small_test(), VariationConfig::default(), 42);
/// let wl = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(3)).wl(LwlId(0));
/// // Latency is a stable trait: the same query always returns the same value.
/// assert_eq!(model.program_latency_us(wl, 0), model.program_latency_us(wl, 0));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyModel {
    geo: Geometry,
    var: VariationConfig,
    sampler: Sampler,
}

impl LatencyModel {
    /// Builds a model; the same `(geometry, variation, seed)` triple always
    /// produces identical latencies.
    ///
    /// # Panics
    ///
    /// Panics if the variation config fails [`VariationConfig::validate`].
    #[must_use]
    pub fn new(geo: Geometry, var: VariationConfig, seed: u64) -> Self {
        if let Err(e) = var.validate() {
            panic!("invalid variation config: {e}");
        }
        LatencyModel { geo, var, sampler: Sampler::new(seed) }
    }

    /// The geometry this model synthesizes latencies for.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// The variation parameters.
    #[must_use]
    pub fn variation(&self) -> &VariationConfig {
        &self.var
    }

    fn block_tags(addr: BlockAddr) -> [u64; 3] {
        [u64::from(addr.chip.0), u64::from(addr.plane.0), u64::from(addr.block.0)]
    }

    /// Layer-profile component: V-curve + per-chip layer-group offsets +
    /// per-chip constant offset. Shared by all blocks of a chip.
    #[must_use]
    pub fn layer_base_us(&self, addr: BlockAddr, layer: PwlLayer) -> f64 {
        self.layer_base_with(self.chip_offset_us(addr), addr, layer)
    }

    /// The per-chip constant term of [`Self::layer_base_us`].
    fn chip_offset_us(&self, addr: BlockAddr) -> f64 {
        self.var.chip_offset_sigma_us
            * self.sampler.normal(&[TAG_CHIP_OFFSET, u64::from(addr.chip.0)])
    }

    /// [`Self::layer_base_us`] given its chip offset.
    fn layer_base_with(&self, chip_off: f64, addr: BlockAddr, layer: PwlLayer) -> f64 {
        let v = &self.var;
        let layers = f64::from(self.geo.pwl_layers());
        let x = if layers > 1.0 { 2.0 * f64::from(layer.0) / (layers - 1.0) - 1.0 } else { 0.0 };
        let curve = v.layer_curve_amp_us * x * x - v.layer_curve_amp_us / 3.0;
        let group = u64::from(layer.0 / self.var.layer_group_size);
        let group_off = v.layer_group_sigma_us
            * self.sampler.normal(&[TAG_LAYER_GROUP, u64::from(addr.chip.0), group]);
        v.prog_base_us + curve + group_off + chip_off
    }

    /// Latent standard-normal components of a block's speed:
    /// `(shared, own, jitter)`.
    fn block_latents(&self, addr: BlockAddr) -> (f64, f64, f64) {
        let v = &self.var;
        let [c, p, b] = Self::block_tags(addr);
        let bucket = b / u64::from(v.block_corr_len.max(1));
        let shared = self.sampler.normal(&[TAG_BLOCK_SHARED, bucket]);
        let own = self.sampler.normal(&[TAG_BLOCK_OWN, c, p, bucket]);
        let jitter = self.sampler.normal(&[TAG_BLOCK_JITTER, c, p, b]);
        (shared, own, jitter)
    }

    /// The block's program-speed deviation in µs (positive = slow),
    /// including the outlier tail.
    #[must_use]
    pub fn block_speed_us(&self, addr: BlockAddr) -> f64 {
        let v = &self.var;
        let (shared, own, jitter) = self.block_latents(addr);
        let sh = v.block_shared_frac;
        let w = v.block_corr_weight;
        let mix = sh.sqrt() * shared
            + ((1.0 - sh) * w).sqrt() * own
            + ((1.0 - sh) * (1.0 - w)).sqrt() * jitter;
        v.block_sigma_us * mix + self.block_outlier_us(addr)
    }

    fn block_outlier_us(&self, addr: BlockAddr) -> f64 {
        let v = &self.var;
        let tags = Self::block_tags(addr);
        if v.outlier_prob > 0.0
            && self
                .sampler
                .bernoulli(v.outlier_prob, &[TAG_BLOCK_OUTLIER, tags[0], tags[1], tags[2]])
        {
            self.sampler.exponential(
                v.outlier_extra_us,
                &[TAG_BLOCK_OUTLIER_MAG, tags[0], tags[1], tags[2]],
            )
        } else {
            0.0
        }
    }

    /// The chip-local (non-index-shared) standard-normal quality latent used
    /// to correlate erase with program speed.
    fn local_quality(&self, addr: BlockAddr) -> f64 {
        let v = &self.var;
        let (_, own, jitter) = self.block_latents(addr);
        v.block_corr_weight.sqrt() * own + (1.0 - v.block_corr_weight).sqrt() * jitter
    }

    /// Pattern family id of a block (stable trait).
    #[must_use]
    pub fn pattern_family(&self, addr: BlockAddr) -> u32 {
        let v = &self.var;
        let [c, p, b] = Self::block_tags(addr);
        let bucket = b / u64::from(v.pattern_corr_len.max(1));
        let n = v.pattern_families as usize;
        if self.sampler.bernoulli(v.pattern_shared_frac, &[TAG_FAMILY_IS_SHARED, c, p, b]) {
            self.sampler.choice(n, &[TAG_FAMILY_SHARED, bucket]) as u32
        } else {
            self.sampler.choice(n, &[TAG_FAMILY_OWN, c, p, bucket]) as u32
        }
    }

    /// Which strings are fast on one physical word-line layer of a block.
    ///
    /// Exactly `strings / 2` (at least one) strings are fast; which ones is a
    /// stable per-(block, layer) trait derived from the block's pattern
    /// family, occasionally flipped to a block-private pattern.
    #[must_use]
    pub fn fast_strings(&self, addr: BlockAddr, layer: PwlLayer) -> StringMask {
        self.fast_strings_with(addr, layer, self.pattern_family(addr))
    }

    /// [`Self::fast_strings`] given the block's [`Self::pattern_family`].
    fn fast_strings_with(&self, addr: BlockAddr, layer: PwlLayer, family: u32) -> StringMask {
        let v = &self.var;
        let [c, p, b] = Self::block_tags(addr);
        let l = u64::from(layer.0);
        let strings = u32::from(self.geo.strings());
        let n_fast = (strings / 2).max(1);
        let combos = binomial(strings, n_fast);
        let idx = if v.pattern_flip_prob > 0.0
            && self.sampler.bernoulli(v.pattern_flip_prob, &[TAG_PATTERN_FLIP, c, p, b, l])
        {
            self.sampler.choice(combos as usize, &[TAG_PATTERN_FLIP_PICK, c, p, b, l]) as u32
        } else {
            let fam = u64::from(family);
            self.sampler.choice(combos as usize, &[TAG_PATTERN, fam, l]) as u32
        };
        k_subset_mask(strings, n_fast, idx)
    }

    fn quantize(x: f64, q: f64) -> f64 {
        (x / q).round() * q
    }

    fn wear_noise_factor(&self, pe: u32) -> f64 {
        1.0 + self.var.wear_noise_growth_per_kpe * f64::from(pe) / 1000.0
    }

    /// Program latency of one logical word-line at the given P/E cycle, µs.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range for the geometry.
    #[must_use]
    pub fn program_latency_us(&self, wl: WlAddr, pe: u32) -> f64 {
        self.program_latency_from_prefix_us(self.program_prefix_us(wl), wl, pe)
    }

    /// The wear-independent part of [`Self::program_latency_us`]: layer
    /// base plus block speed plus string-pattern penalty, summed in the
    /// same left-to-right order as the full synthesis so caching the
    /// prefix and finishing with [`Self::program_latency_from_prefix_us`]
    /// is bit-identical to the one-shot call. Constant per `(block, lwl)`.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range for the geometry.
    #[must_use]
    pub fn program_prefix_us(&self, wl: WlAddr) -> f64 {
        assert!(self.geo.contains_block(wl.block), "address {wl} out of range");
        let block = self.block_terms(wl.block);
        let layer = self.layer_terms(&block, wl.block, self.geo.layer_of(wl.lwl));
        self.prefix_of(&block, &layer, self.geo.string_of(wl.lwl))
    }

    /// Program latencies of every logical word-line of one block at P/E
    /// cycle `pe`, in word-line order; bit-identical to calling
    /// [`Self::program_latency_us`] on each word-line.
    ///
    /// The block's speed, outlier and pattern-family terms are drawn once,
    /// each layer's base and fast-string mask once per layer, so a
    /// word-line pays only for its noise draw — the block-at-a-time path
    /// characterization takes.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range for the geometry.
    pub fn block_program_latencies_us(
        &self,
        addr: BlockAddr,
        pe: u32,
    ) -> impl Iterator<Item = f64> + '_ {
        assert!(self.geo.contains_block(addr), "address {addr} out of range");
        let block = self.block_terms(addr);
        (0..self.geo.pwl_layers()).flat_map(move |l| {
            let layer = self.layer_terms(&block, addr, PwlLayer(l));
            (0..self.geo.strings()).map(move |s| {
                let string = StringId(s);
                let prefix = self.prefix_of(&block, &layer, string);
                self.program_latency_from_prefix_us(
                    prefix,
                    addr.wl(self.geo.lwl_of(PwlLayer(l), string)),
                    pe,
                )
            })
        })
    }

    /// The static program terms shared by every word-line of a block.
    fn block_terms(&self, addr: BlockAddr) -> BlockTerms {
        BlockTerms {
            speed: self.block_speed_us(addr),
            family: self.pattern_family(addr),
            chip_off: self.chip_offset_us(addr),
        }
    }

    /// The static program terms shared by every string of one layer.
    fn layer_terms(&self, block: &BlockTerms, addr: BlockAddr, layer: PwlLayer) -> LayerTerms {
        LayerTerms {
            base: self.layer_base_with(block.chip_off, addr, layer),
            fast: self.fast_strings_with(addr, layer, block.family),
        }
    }

    /// Layer base + block speed + string-pattern penalty: the one place the
    /// wear-independent program prefix is summed.
    fn prefix_of(&self, block: &BlockTerms, layer: &LayerTerms, string: StringId) -> f64 {
        let pattern = if layer.fast.contains(string.0) { 0.0 } else { self.var.pattern_penalty_us };
        layer.base + block.speed + pattern
    }

    /// Finishes a program-latency synthesis from a cached
    /// [`Self::program_prefix_us`] value: adds the per-(lwl, P/E) noise draw
    /// and the wear trend, then quantizes. `program_latency_from_prefix_us(
    /// program_prefix_us(wl), wl, pe)` equals `program_latency_us(wl, pe)`
    /// to the bit.
    #[must_use]
    pub fn program_latency_from_prefix_us(&self, prefix: f64, wl: WlAddr, pe: u32) -> f64 {
        let v = &self.var;
        let [c, p, b] = Self::block_tags(wl.block);
        let noise = v.noise_sigma_us
            * self.wear_noise_factor(pe)
            * self.sampler.normal(&[TAG_NOISE, c, p, b, u64::from(wl.lwl.0), u64::from(pe)]);
        let wear = -v.wear_prog_slope_us_per_kpe * f64::from(pe) / 1000.0;
        Self::quantize(prefix + noise + wear, v.pulse_us).max(v.pulse_us)
    }

    /// Erase latency of one block at the given P/E cycle, µs.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range for the geometry.
    #[must_use]
    pub fn erase_latency_us(&self, addr: BlockAddr, pe: u32) -> f64 {
        self.erase_latency_from_prefix_us(self.erase_prefix_us(addr), addr, pe)
    }

    /// The wear-independent part of [`Self::erase_latency_us`]: base + chip
    /// offset + block deviation + outlier tail, in the full synthesis's
    /// left-to-right order so the prefix can be cached per block and
    /// finished with [`Self::erase_latency_from_prefix_us`] bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range for the geometry.
    #[must_use]
    pub fn erase_prefix_us(&self, addr: BlockAddr) -> f64 {
        assert!(self.geo.contains_block(addr), "address {addr} out of range");
        let v = &self.var;
        let [c, p, b] = Self::block_tags(addr);
        let chip_off = v.ers_chip_sigma_us * self.sampler.normal(&[TAG_ERS_CHIP, c]);
        let rho = v.ers_pgm_corr;
        let dev = v.ers_block_sigma_us
            * (rho * self.local_quality(addr)
                + (1.0 - rho * rho).sqrt() * self.sampler.normal(&[TAG_ERS_INDEP, c, p, b]));
        let outlier = if v.ers_outlier_prob > 0.0
            && self.sampler.bernoulli(v.ers_outlier_prob, &[TAG_ERS_OUTLIER, c, p, b])
        {
            self.sampler.exponential(v.ers_outlier_extra_us, &[TAG_ERS_OUTLIER_MAG, c, p, b])
        } else {
            0.0
        };
        v.ers_base_us + chip_off + dev + outlier
    }

    /// Finishes an erase-latency synthesis from a cached
    /// [`Self::erase_prefix_us`] value; bit-identical to
    /// [`Self::erase_latency_us`].
    #[must_use]
    pub fn erase_latency_from_prefix_us(&self, prefix: f64, addr: BlockAddr, pe: u32) -> f64 {
        let v = &self.var;
        let [c, p, b] = Self::block_tags(addr);
        let noise = v.ers_noise_sigma_us
            * self.wear_noise_factor(pe)
            * self.sampler.normal(&[TAG_ERS_NOISE, c, p, b, u64::from(pe)]);
        let wear = v.wear_ers_slope_us_per_kpe * f64::from(pe) / 1000.0;
        Self::quantize(prefix + noise + wear, v.ers_quantum_us).max(v.ers_quantum_us)
    }

    /// Read latency of one page at the given P/E cycle, µs.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range for the geometry.
    #[must_use]
    pub fn read_latency_us(&self, page: PageAddr, pe: u32) -> f64 {
        assert!(self.geo.contains_block(page.wl.block), "address out of range");
        let v = &self.var;
        let [c, p, b] = Self::block_tags(page.wl.block);
        let slot = page.page.slot(self.geo.cell());
        let step = v.read_page_step_us * f64::from(slot);
        // Per-block tR deviation, correlated with program speed through the
        // same latent quality the erase path uses. Gated so the default
        // (sigma 0) adds a literal `+ 0.0` and stays bit-identical.
        let block_dev = if v.read_block_sigma_us > 0.0 {
            let rho = v.read_pgm_corr;
            v.read_block_sigma_us
                * (rho * self.local_quality(page.wl.block)
                    + (1.0 - rho * rho).sqrt() * self.sampler.normal(&[TAG_READ_BLOCK, c, p, b]))
        } else {
            0.0
        };
        let noise = v.read_noise_sigma_us
            * self.wear_noise_factor(pe)
            * self.sampler.normal(&[
                TAG_READ_NOISE,
                c,
                p,
                b,
                u64::from(page.wl.lwl.0),
                u64::from(slot),
                u64::from(pe),
            ]);
        (v.read_base_us + step + block_dev + noise).max(1.0)
    }

    /// Sum of per-LWL program latencies over a whole block — the paper's
    /// "BLK PGM LTN" metric used to sort blocks.
    #[must_use]
    pub fn block_program_sum_us(&self, addr: BlockAddr, pe: u32) -> f64 {
        self.block_program_latencies_us(addr, pe).sum()
    }
}

/// Static program terms of one block, drawn once per block.
#[derive(Clone, Copy)]
struct BlockTerms {
    /// [`LatencyModel::block_speed_us`].
    speed: f64,
    /// [`LatencyModel::pattern_family`].
    family: u32,
    /// The per-chip term of [`LatencyModel::layer_base_us`].
    chip_off: f64,
}

/// Static program terms of one layer of a block, drawn once per layer.
#[derive(Clone, Copy)]
struct LayerTerms {
    /// [`LatencyModel::layer_base_us`].
    base: f64,
    /// [`LatencyModel::fast_strings`].
    fast: StringMask,
}

/// Memoized static terms of latency and RBER synthesis.
///
/// Profiling a saturated replay shows most of the per-op cost is the 5–7
/// hash-sampler draws behind [`LatencyModel::program_latency_us`]; all but
/// the noise draw are constant per `(block, lwl)` (program) or per block
/// (erase). This cache stores those prefixes in dense tables (NaN =
/// unfilled) and finishes each query with the `*_from_prefix_us` methods,
/// so results stay bit-identical to the uncached model while steady-state
/// queries pay one draw instead of many.
///
/// A read latency depends only on `(page, P/E)`, and patrol scrubbing
/// re-reads every sealed page many times between erases, so whole read
/// latencies are memoized per page. The owner must call
/// [`LatencyCache::invalidate_block`] whenever a block's P/E count changes
/// (and [`LatencyCache::invalidate_reads`] when every block's does). The
/// per-block RBER terms — [`RberFactors`] and the fault injector's
/// weak-block multiplier — are memoized too, the wear factor keyed by the
/// P/E count it was computed at.
#[derive(Debug, Clone)]
pub struct LatencyCache {
    /// `prog_prefix[block_index * lwls_per_block + lwl]`; NaN = unfilled.
    prog_prefix: Vec<f64>,
    /// `ers_prefix[block_index]`; NaN = unfilled.
    ers_prefix: Vec<f64>,
    lwls_per_block: usize,
    /// `read_us[`[`Geometry::page_index`]`]`; 0.0 = unfilled (a
    /// read takes at least 1 µs), so the table starts as a zeroed
    /// allocation whose memory the OS maps only once touched. Interior
    /// mutability because reads take `&self`.
    read_us: RefCell<Vec<f64>>,
    pages_per_block: usize,
    /// `ber[block_index]`, filled on first use.
    ber: RefCell<Vec<BlockBer>>,
}

/// The memoized RBER terms of one block.
#[derive(Debug, Clone, Copy)]
struct BlockBer {
    /// [`BerModel::block_factor`]; NaN = unfilled.
    block: f64,
    /// [`FaultInjector::ber_multiplier`]; valid once `block` is.
    weak: f64,
    /// P/E count `wear` was computed at.
    pe: u32,
    /// [`BerModel::wear_factor`] at `pe`; NaN = unfilled.
    wear: f64,
}

impl LatencyCache {
    /// An empty cache sized for `geo`'s dense block/word-line/page index
    /// space.
    #[must_use]
    pub fn new(geo: &Geometry) -> Self {
        let blocks = geo.total_blocks() as usize;
        let lwls_per_block = geo.lwls_per_block() as usize;
        let pages_per_block = geo.pages_per_block() as usize;
        let unfilled = BlockBer { block: f64::NAN, weak: f64::NAN, pe: 0, wear: f64::NAN };
        LatencyCache {
            prog_prefix: vec![f64::NAN; blocks * lwls_per_block],
            ers_prefix: vec![f64::NAN; blocks],
            lwls_per_block,
            read_us: RefCell::new(vec![0.0; blocks * pages_per_block]),
            pages_per_block,
            ber: RefCell::new(vec![unfilled; blocks]),
        }
    }

    /// Memoized equivalent of [`LatencyModel::read_latency_us`]; bit-identical
    /// to it as long as `pe` is the block's P/E count and the owner
    /// invalidated the block when that count last changed.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range for the model's geometry.
    pub fn read_latency_us(&self, model: &LatencyModel, page: PageAddr, pe: u32) -> f64 {
        let idx = model.geometry().page_index(page);
        let mut table = self.read_us.borrow_mut();
        if table[idx] == 0.0 {
            table[idx] = model.read_latency_us(page, pe);
        }
        table[idx]
    }

    /// Drops the memoized read latencies of the block at dense index
    /// `block_index` ([`Geometry::block_index`]); call whenever its P/E
    /// count changes.
    pub fn invalidate_block(&mut self, block_index: usize) {
        let start = block_index * self.pages_per_block;
        self.read_us.get_mut()[start..start + self.pages_per_block].fill(0.0);
    }

    /// Drops every memoized read latency; call when every block's P/E count
    /// changes.
    pub fn invalidate_reads(&mut self) {
        let table = self.read_us.get_mut();
        *table = vec![0.0; table.len()];
    }

    /// Memoized [`RberFactors`] of `addr` at `pe`, plus its
    /// [`FaultInjector::ber_multiplier`]; bit-identical to computing them
    /// from `ber` and `fault` directly.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range for `geo`.
    pub fn rber_factors(
        &self,
        geo: &Geometry,
        ber: &BerModel,
        fault: &FaultInjector,
        addr: BlockAddr,
        pe: u32,
    ) -> (RberFactors, f64) {
        let mut table = self.ber.borrow_mut();
        let entry = &mut table[geo.block_index(addr)];
        if entry.block.is_nan() {
            entry.block = ber.block_factor(addr);
            entry.weak = fault.ber_multiplier(addr);
        }
        if entry.pe != pe || entry.wear.is_nan() {
            entry.pe = pe;
            entry.wear = ber.wear_factor(pe);
        }
        (RberFactors { wear: entry.wear, block: entry.block }, entry.weak)
    }

    /// Cached-prefix equivalent of [`LatencyModel::program_latency_us`];
    /// bit-identical to it by construction.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range for the model's geometry.
    pub fn program_latency_us(&mut self, model: &LatencyModel, wl: WlAddr, pe: u32) -> f64 {
        let idx = model.geometry().block_index(wl.block) * self.lwls_per_block + wl.lwl.0 as usize;
        let mut prefix = self.prog_prefix[idx];
        if prefix.is_nan() {
            prefix = model.program_prefix_us(wl);
            self.prog_prefix[idx] = prefix;
        }
        model.program_latency_from_prefix_us(prefix, wl, pe)
    }

    /// Cached-prefix equivalent of [`LatencyModel::erase_latency_us`];
    /// bit-identical to it by construction.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range for the model's geometry.
    pub fn erase_latency_us(&mut self, model: &LatencyModel, addr: BlockAddr, pe: u32) -> f64 {
        let idx = model.geometry().block_index(addr);
        let mut prefix = self.ers_prefix[idx];
        if prefix.is_nan() {
            prefix = model.erase_prefix_us(addr);
            self.ers_prefix[idx] = prefix;
        }
        model.erase_latency_from_prefix_us(prefix, addr, pe)
    }
}

/// Binomial coefficient C(n, k) for the small values used here.
fn binomial(n: u32, k: u32) -> u32 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..u64::from(k) {
        acc = acc * (u64::from(n) - i) / (i + 1);
    }
    acc as u32
}

/// Unranks the `idx`-th k-subset of `{0..n}` (combinatorial number system)
/// into a [`StringMask`]; used to map a pattern id to a fast-string set.
fn k_subset_mask(n: u32, k: u32, idx: u32) -> StringMask {
    debug_assert!(idx < binomial(n, k));
    let mut mask = 0u8;
    let mut idx = idx;
    let mut k = k;
    for bit in 0..n {
        if k == 0 {
            break;
        }
        // Subsets starting with `bit`: C(n - bit - 1, k - 1).
        let with_bit = binomial(n - bit - 1, k - 1);
        if idx < with_bit {
            mask |= 1 << bit;
            k -= 1;
        } else {
            idx -= with_bit;
        }
    }
    StringMask(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{BlockId, CellType, ChipId, LwlId, PageType, PlaneId, StringId};

    fn model() -> LatencyModel {
        LatencyModel::new(Geometry::small_test(), VariationConfig::default(), 99)
    }

    fn blk(c: u16, b: u32) -> BlockAddr {
        BlockAddr::new(ChipId(c), PlaneId(0), BlockId(b))
    }

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(4, 2), 6);
        assert_eq!(binomial(4, 0), 1);
        assert_eq!(binomial(4, 4), 1);
        assert_eq!(binomial(6, 3), 20);
        assert_eq!(binomial(3, 5), 0);
    }

    #[test]
    fn k_subsets_are_distinct_and_sized() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..6 {
            let m = k_subset_mask(4, 2, i);
            assert_eq!(m.count(), 2);
            assert!(seen.insert(m.0));
        }
    }

    #[test]
    fn latencies_are_deterministic() {
        let m1 = model();
        let m2 = model();
        let wl = blk(1, 5).wl(LwlId(3));
        assert_eq!(m1.program_latency_us(wl, 0), m2.program_latency_us(wl, 0));
        assert_eq!(m1.erase_latency_us(blk(2, 9), 100), m2.erase_latency_us(blk(2, 9), 100));
    }

    #[test]
    fn program_latency_is_on_pulse_grid() {
        let m = model();
        let q = m.variation().pulse_us;
        for b in 0..8 {
            for lwl in m.geometry().lwls() {
                let t = m.program_latency_us(blk(0, b).wl(lwl), 0);
                let ratio = t / q;
                assert!((ratio - ratio.round()).abs() < 1e-9, "{t} not on grid {q}");
            }
        }
    }

    #[test]
    fn erase_latency_is_on_erase_grid() {
        let m = model();
        let q = m.variation().ers_quantum_us;
        for b in 0..16 {
            let t = m.erase_latency_us(blk(1, b), 0);
            let ratio = t / q;
            assert!((ratio - ratio.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn latencies_are_in_plausible_ranges() {
        let m = model();
        for b in 0..16 {
            let e = m.erase_latency_us(blk(0, b), 0);
            assert!((3000.0..6000.0).contains(&e), "tBERS {e}");
            for lwl in m.geometry().lwls() {
                let t = m.program_latency_us(blk(0, b).wl(lwl), 0);
                assert!((1400.0..2400.0).contains(&t), "tPROG {t}");
            }
        }
    }

    #[test]
    fn fast_strings_mark_half_the_strings() {
        let m = model();
        for b in 0..16 {
            for l in 0..m.geometry().pwl_layers() {
                assert_eq!(m.fast_strings(blk(0, b), PwlLayer(l)).count(), 2);
            }
        }
    }

    #[test]
    fn fast_strings_are_actually_faster_on_average() {
        let m = model();
        let geo = m.geometry().clone();
        let mut fast_sum = 0.0;
        let mut fast_n = 0u32;
        let mut slow_sum = 0.0;
        let mut slow_n = 0u32;
        for b in 0..32 {
            let a = blk(0, b);
            for l in 0..geo.pwl_layers() {
                let mask = m.fast_strings(a, PwlLayer(l));
                for s in 0..geo.strings() {
                    let t = m.program_latency_us(a.wl(geo.lwl_of(PwlLayer(l), StringId(s))), 0);
                    if mask.contains(s) {
                        fast_sum += t;
                        fast_n += 1;
                    } else {
                        slow_sum += t;
                        slow_n += 1;
                    }
                }
            }
        }
        let fast_avg = fast_sum / f64::from(fast_n);
        let slow_avg = slow_sum / f64::from(slow_n);
        assert!(
            slow_avg > fast_avg + 0.5 * m.variation().pattern_penalty_us,
            "slow {slow_avg} vs fast {fast_avg}"
        );
    }

    #[test]
    fn wear_shifts_program_down_and_erase_up() {
        let m = model();
        let a = blk(0, 3);
        let sum0 = m.block_program_sum_us(a, 0);
        let sum3k = m.block_program_sum_us(a, 3000);
        assert!(sum3k < sum0, "program should speed up with wear: {sum0} -> {sum3k}");
        // Erase trend: average over blocks to beat noise.
        let e0: f64 = (0..32).map(|b| m.erase_latency_us(blk(0, b), 0)).sum();
        let e3k: f64 = (0..32).map(|b| m.erase_latency_us(blk(0, b), 3000)).sum();
        assert!(e3k > e0, "erase should slow down with wear");
    }

    #[test]
    fn uniform_config_means_zero_extra_variation() {
        let m = LatencyModel::new(Geometry::small_test(), VariationConfig::uniform(), 1);
        let t0 = m.program_latency_us(blk(0, 0).wl(LwlId(0)), 0);
        for c in 0..4 {
            for b in 0..8 {
                assert_eq!(m.program_latency_us(blk(c, b).wl(LwlId(0)), 0), t0);
            }
        }
    }

    #[test]
    fn read_latency_orders_by_page_significance() {
        let m = LatencyModel::new(Geometry::small_test(), VariationConfig::uniform(), 1);
        let wl = blk(0, 0).wl(LwlId(0));
        let lsb = m.read_latency_us(wl.page(PageType::Lsb), 0);
        let csb = m.read_latency_us(wl.page(PageType::Csb), 0);
        let msb = m.read_latency_us(wl.page(PageType::Msb), 0);
        assert!(lsb < csb && csb < msb);
    }

    #[test]
    fn read_block_sigma_zero_leaves_reads_unchanged() {
        let base = model();
        let with_corr = LatencyModel::new(
            Geometry::small_test(),
            VariationConfig { read_pgm_corr: 0.8, ..VariationConfig::default() },
            99,
        );
        let page = blk(1, 5).wl(LwlId(3)).page(PageType::Csb);
        // sigma stays 0, so the corr knob alone must not move a single bit.
        assert_eq!(
            base.read_latency_us(page, 7).to_bits(),
            with_corr.read_latency_us(page, 7).to_bits()
        );
    }

    #[test]
    fn read_block_sigma_spreads_blocks() {
        let cfg = VariationConfig {
            read_block_sigma_us: 6.0,
            read_pgm_corr: 0.8,
            read_noise_sigma_us: 0.0,
            ..VariationConfig::default()
        };
        let m = LatencyModel::new(Geometry::small_test(), cfg, 99);
        let a = m.read_latency_us(blk(0, 0).wl(LwlId(0)).page(PageType::Lsb), 0);
        let b = m.read_latency_us(blk(2, 5).wl(LwlId(0)).page(PageType::Lsb), 0);
        assert_ne!(a, b, "per-block tR deviation should differ across blocks");
    }

    #[test]
    fn block_program_sum_matches_manual_sum() {
        let m = model();
        let a = blk(2, 7);
        let manual: f64 = m.geometry().lwls().map(|l| m.program_latency_us(a.wl(l), 0)).sum();
        assert_eq!(m.block_program_sum_us(a, 0), manual);
    }

    #[test]
    fn block_routine_matches_per_word_line_synthesis() {
        for strings in [1u16, 2, 4, 8] {
            for cell in [CellType::Mlc, CellType::Tlc] {
                for (flip, outlier) in [(0.0, 0.0), (0.3, 0.0), (0.0, 0.3), (0.3, 0.3)] {
                    let var = VariationConfig {
                        pattern_flip_prob: flip,
                        outlier_prob: outlier,
                        ..VariationConfig::default()
                    };
                    let m = LatencyModel::new(Geometry::new(2, 2, 6, 5, strings, cell), var, 11);
                    let geo = m.geometry().clone();
                    for addr in geo.blocks() {
                        for pe in [0u32, 3000] {
                            let block: Vec<u64> =
                                m.block_program_latencies_us(addr, pe).map(f64::to_bits).collect();
                            let per_wl: Vec<u64> = geo
                                .lwls()
                                .map(|lwl| m.program_latency_us(addr.wl(lwl), pe).to_bits())
                                .collect();
                            assert_eq!(block, per_wl, "{addr} strings={strings} pe={pe}");
                            let sum: f64 =
                                geo.lwls().map(|lwl| m.program_latency_us(addr.wl(lwl), pe)).sum();
                            assert_eq!(m.block_program_sum_us(addr, pe).to_bits(), sum.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_routine_out_of_range_panics() {
        let m = model();
        let bad = BlockAddr::new(ChipId(99), PlaneId(0), BlockId(0));
        let _ = m.block_program_latencies_us(bad, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn program_out_of_range_panics() {
        let m = model();
        let bad = BlockAddr::new(ChipId(99), PlaneId(0), BlockId(0));
        let _ = m.program_latency_us(bad.wl(LwlId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "invalid variation config")]
    fn invalid_config_rejected() {
        let bad = VariationConfig { outlier_prob: 2.0, ..VariationConfig::default() };
        let _ = LatencyModel::new(Geometry::small_test(), bad, 0);
    }

    #[test]
    fn pattern_family_is_stable_and_in_range() {
        let m = model();
        for b in 0..32 {
            let f = m.pattern_family(blk(1, b));
            assert!(f < m.variation().pattern_families);
            assert_eq!(f, m.pattern_family(blk(1, b)));
        }
    }

    #[test]
    fn cached_program_latency_is_bit_identical() {
        let m = model();
        let mut cache = LatencyCache::new(m.geometry());
        let geo = m.geometry().clone();
        for c in 0..geo.chips() {
            for b in 0..8 {
                for lwl in geo.lwls() {
                    let wl = blk(c, b).wl(lwl);
                    for pe in [0u32, 1, 7, 100, 3000] {
                        // Query twice: first fills the prefix, second hits it.
                        assert_eq!(
                            cache.program_latency_us(&m, wl, pe).to_bits(),
                            m.program_latency_us(wl, pe).to_bits(),
                            "{wl} pe={pe}"
                        );
                        assert_eq!(
                            cache.program_latency_us(&m, wl, pe).to_bits(),
                            m.program_latency_us(wl, pe).to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cached_erase_latency_is_bit_identical() {
        let m = model();
        let mut cache = LatencyCache::new(m.geometry());
        for c in 0..m.geometry().chips() {
            for b in 0..16 {
                for pe in [0u32, 1, 42, 2000] {
                    assert_eq!(
                        cache.erase_latency_us(&m, blk(c, b), pe).to_bits(),
                        m.erase_latency_us(blk(c, b), pe).to_bits()
                    );
                    assert_eq!(
                        cache.erase_latency_us(&m, blk(c, b), pe).to_bits(),
                        m.erase_latency_us(blk(c, b), pe).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_split_reassembles_exactly() {
        let m = model();
        let wl = blk(1, 5).wl(LwlId(3));
        let prefix = m.program_prefix_us(wl);
        assert_eq!(
            m.program_latency_from_prefix_us(prefix, wl, 250).to_bits(),
            m.program_latency_us(wl, 250).to_bits()
        );
        let a = blk(2, 9);
        let eprefix = m.erase_prefix_us(a);
        assert_eq!(
            m.erase_latency_from_prefix_us(eprefix, a, 250).to_bits(),
            m.erase_latency_us(a, 250).to_bits()
        );
    }

    #[test]
    fn mlc_cell_geometry_also_works() {
        let geo = Geometry::new(2, 1, 8, 4, 4, CellType::Mlc);
        let m = LatencyModel::new(geo, VariationConfig::default(), 3);
        let t = m.program_latency_us(blk(0, 0).wl(LwlId(0)), 0);
        assert!(t > 0.0);
    }
}
