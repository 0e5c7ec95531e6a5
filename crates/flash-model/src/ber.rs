//! Raw bit error rate (RBER) model.
//!
//! The paper's §VI-C evaluates QSTR-MED "under high failure rates when an SSD
//! drive is subject to wear and tear". This small model supplies the failure
//! side: RBER grows exponentially with P/E cycles, retention time and
//! accumulated read disturb, and differs by physical word-line layer (edge
//! layers are worse, matching the V-shaped channel-aperture structure).

use crate::geometry::Geometry;
use crate::ids::{BlockAddr, PwlLayer};
use crate::sampler::Sampler;

const TAG_BER_BLOCK: u64 = 0x70;

/// Raw bit error rate model.
#[derive(Debug, Clone)]
pub struct BerModel {
    base_rber: f64,
    pe_growth_per_kcycle: f64,
    retention_growth_per_khour: f64,
    disturb_growth_per_kread: f64,
    layer_edge_factor: f64,
    block_sigma: f64,
    sampler: Sampler,
}

impl BerModel {
    /// Model with typical 3D-TLC parameters.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        BerModel {
            base_rber: 2e-4,
            pe_growth_per_kcycle: 0.9,
            retention_growth_per_khour: 0.5,
            disturb_growth_per_kread: 0.8,
            layer_edge_factor: 0.6,
            block_sigma: 0.25,
            sampler: Sampler::new(seed).derive(0x8e5),
        }
    }

    /// Clamps a garbage retention to "no aging": NaN (an uninitialized
    /// age), a negative (a skewed clock) and infinity all collapse to 0.0
    /// rather than poisoning the exponential with NaN/inf RBER.
    #[inline]
    fn sanitize_retention(retention_hours: f64) -> f64 {
        if retention_hours.is_finite() {
            retention_hours.max(0.0)
        } else {
            0.0
        }
    }

    /// The wear prefix of [`Self::rber`]: `base_rber * exp(growth * pe)`.
    /// Constant per P/E count, so a cache may key it by `pe`.
    #[must_use]
    pub fn wear_factor(&self, pe: u32) -> f64 {
        self.base_rber * (self.pe_growth_per_kcycle * f64::from(pe) / 1000.0).exp()
    }

    /// The block's lognormal RBER factor: a stable per-block trait.
    #[must_use]
    pub fn block_factor(&self, addr: BlockAddr) -> f64 {
        (self.block_sigma
            * self.sampler.normal(&[
                TAG_BER_BLOCK,
                u64::from(addr.chip.0),
                u64::from(addr.plane.0),
                u64::from(addr.block.0),
            ]))
        .exp()
    }

    /// Raw bit error rate of one layer of a block after `pe` cycles,
    /// `retention_hours` of data retention and `read_disturbs` disturbing
    /// reads (reads of *sibling* pages since the block's last erase).
    ///
    /// `retention_hours` outside `[0, ∞)` is clamped to 0 (release builds)
    /// and flagged (debug builds) — callers own their clock arithmetic, but
    /// a bad age must degrade to "fresh data", never to NaN error bits.
    ///
    /// With zero disturbs and zero retention the disturb/retention factors
    /// are exactly 1.0, so enabling the bookkeeping without any accumulated
    /// aging leaves every RBER bit-identical.
    #[must_use]
    pub fn rber(
        &self,
        geo: &Geometry,
        addr: BlockAddr,
        layer: PwlLayer,
        pe: u32,
        retention_hours: f64,
        read_disturbs: u64,
    ) -> f64 {
        let factors = RberFactors { wear: self.wear_factor(pe), block: self.block_factor(addr) };
        self.rber_with(geo, factors, layer, retention_hours, read_disturbs)
    }

    /// Finishes [`Self::rber`] from its static factors, multiplying in the
    /// same left-to-right order, so
    /// `rber_with(geo, RberFactors { wear: wear_factor(pe), block:
    /// block_factor(addr) }, ..)` equals `rber(geo, addr, .., pe, ..)` to
    /// the bit. A zero retention or disturb exponent skips its `exp`, which
    /// would return exactly 1.0.
    #[must_use]
    pub fn rber_with(
        &self,
        geo: &Geometry,
        factors: RberFactors,
        layer: PwlLayer,
        retention_hours: f64,
        read_disturbs: u64,
    ) -> f64 {
        self.rber_from(
            factors,
            self.layer_factor(geo, layer),
            retention_hours,
            self.disturb_factor(read_disturbs),
        )
    }

    /// [`Self::rber_with`] with the layer and disturb terms already
    /// evaluated (`layer_factor`, `disturb_factor`): the one place the RBER
    /// product is written.
    #[inline]
    pub(crate) fn rber_from(
        &self,
        factors: RberFactors,
        layer_factor: f64,
        retention_hours: f64,
        disturb_factor: f64,
    ) -> f64 {
        debug_assert!(
            retention_hours.is_finite() && retention_hours >= 0.0,
            "retention_hours must be finite and non-negative, got {retention_hours}"
        );
        let retention_hours = Self::sanitize_retention(retention_hours);
        factors.wear
            * growth(self.retention_growth_per_khour * retention_hours / 1000.0)
            * layer_factor
            * factors.block
            * disturb_factor
    }

    /// The layer term of [`Self::rber`]: edge layers are worse, on a
    /// parabola across the block's physical word-line layers.
    pub(crate) fn layer_factor(&self, geo: &Geometry, layer: PwlLayer) -> f64 {
        let layers = f64::from(geo.pwl_layers());
        let x = if layers > 1.0 { 2.0 * f64::from(layer.0) / (layers - 1.0) - 1.0 } else { 0.0 };
        1.0 + self.layer_edge_factor * x * x
    }

    /// The read-disturb term of [`Self::rber`] after `read_disturbs`
    /// disturbing reads; exactly 1.0 at zero.
    pub(crate) fn disturb_factor(&self, read_disturbs: u64) -> f64 {
        growth(self.disturb_growth_per_kread * read_disturbs as f64 / 1000.0)
    }

    /// Expected number of error bits when reading a page of `page_bytes`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn expected_error_bits(
        &self,
        geo: &Geometry,
        addr: BlockAddr,
        layer: PwlLayer,
        pe: u32,
        retention_hours: f64,
        read_disturbs: u64,
        page_bytes: u32,
    ) -> f64 {
        self.rber(geo, addr, layer, pe, retention_hours, read_disturbs)
            * f64::from(page_bytes)
            * 8.0
    }
}

/// The P/E- and block-dependent factors of [`BerModel::rber`], which stay
/// constant between erases and can therefore be memoized per block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RberFactors {
    /// [`BerModel::wear_factor`] at the block's current P/E count.
    pub wear: f64,
    /// [`BerModel::block_factor`] of the block.
    pub block: f64,
}

/// `exp(x)`, skipping the call at exactly zero where it would return 1.0.
#[inline]
fn growth(x: f64) -> f64 {
    if x == 0.0 {
        1.0
    } else {
        x.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{BlockId, ChipId, PlaneId};

    fn addr(b: u32) -> BlockAddr {
        BlockAddr::new(ChipId(0), PlaneId(0), BlockId(b))
    }

    #[test]
    fn rber_grows_with_pe() {
        let m = BerModel::new(1);
        let g = Geometry::small_test();
        let r0 = m.rber(&g, addr(0), PwlLayer(4), 0, 0.0, 0);
        let r3k = m.rber(&g, addr(0), PwlLayer(4), 3000, 0.0, 0);
        assert!(r3k > r0 * 5.0, "{r0} -> {r3k}");
    }

    #[test]
    fn rber_grows_with_retention() {
        let m = BerModel::new(1);
        let g = Geometry::small_test();
        let r0 = m.rber(&g, addr(0), PwlLayer(4), 1000, 0.0, 0);
        let r1 = m.rber(&g, addr(0), PwlLayer(4), 1000, 2000.0, 0);
        assert!(r1 > r0);
    }

    #[test]
    fn rber_grows_with_read_disturb() {
        let m = BerModel::new(1);
        let g = Geometry::small_test();
        let quiet = m.rber(&g, addr(0), PwlLayer(4), 1000, 0.0, 0);
        let hammered = m.rber(&g, addr(0), PwlLayer(4), 1000, 0.0, 5000);
        assert!(hammered > quiet * 5.0, "{quiet} -> {hammered}");
    }

    #[test]
    fn zero_disturbs_leave_rber_bit_identical() {
        // exp(0) == 1.0 exactly, so the disturb factor is a bitwise no-op
        // at zero count — the contract that lets disturb tracking default
        // on without perturbing any golden output.
        let m = BerModel::new(1);
        let g = Geometry::small_test();
        let a = m.rber(&g, addr(3), PwlLayer(2), 700, 12.5, 0);
        let b = a * 1.0f64;
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(
            m.expected_error_bits(&g, addr(3), PwlLayer(2), 700, 12.5, 0, 16384).to_bits(),
            (a * 16384.0 * 8.0).to_bits()
        );
    }

    #[test]
    fn garbage_retention_clamps_to_fresh_data() {
        // Satellite hardening: NaN / negative / infinite retention must
        // degrade to "no aging", never to NaN or infinite error bits. The
        // clamp itself is testable; debug builds additionally flag the
        // caller via debug_assert, so exercise the sanitizer directly.
        for garbage in [f64::NAN, -3.0, f64::NEG_INFINITY, f64::INFINITY] {
            assert_eq!(BerModel::sanitize_retention(garbage), 0.0, "{garbage}");
        }
        assert_eq!(BerModel::sanitize_retention(0.0), 0.0);
        assert_eq!(BerModel::sanitize_retention(17.25), 17.25);
    }

    #[test]
    fn edge_layers_are_worse() {
        let m = BerModel::new(1);
        let g = Geometry::small_test();
        let edge = m.rber(&g, addr(0), PwlLayer(0), 0, 0.0, 0);
        let mid = m.rber(&g, addr(0), PwlLayer(4), 0, 0.0, 0);
        assert!(edge > mid);
    }

    #[test]
    fn blocks_differ_but_deterministically() {
        let m = BerModel::new(1);
        let g = Geometry::small_test();
        let a = m.rber(&g, addr(0), PwlLayer(2), 0, 0.0, 0);
        let b = m.rber(&g, addr(1), PwlLayer(2), 0, 0.0, 0);
        assert_ne!(a, b);
        assert_eq!(a, m.rber(&g, addr(0), PwlLayer(2), 0, 0.0, 0));
    }

    #[test]
    fn expected_error_bits_scales_with_page_size() {
        let m = BerModel::new(1);
        let g = Geometry::small_test();
        let e16 = m.expected_error_bits(&g, addr(0), PwlLayer(2), 0, 0.0, 0, 16384);
        let e4 = m.expected_error_bits(&g, addr(0), PwlLayer(2), 0, 0.0, 0, 4096);
        assert!((e16 / e4 - 4.0).abs() < 1e-9);
    }
}
