//! Superblocks and their extra-latency metrics (§III-A, Figure 4).

use crate::error::PvError;
use crate::profile::{BlockPool, BlockProfile};
use crate::Result;
use flash_model::BlockAddr;
use std::fmt;

/// Demand class of a superblock (§V-C/D): host data goes to fast
/// superblocks, garbage-collection traffic to slow ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpeedClass {
    /// Assembled from the fastest available blocks.
    Fast,
    /// Assembled from the slowest available blocks.
    Slow,
}

impl fmt::Display for SpeedClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SpeedClass::Fast => "FAST",
            SpeedClass::Slow => "SLOW",
        })
    }
}

/// One assembled superblock: one member block per pool.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Superblock {
    /// Member blocks, in pool order.
    pub members: Vec<BlockAddr>,
    /// Demand class, when assembled on demand (QSTR-MED); `None` for batch
    /// assemblies.
    pub class: Option<SpeedClass>,
}

impl Superblock {
    /// A superblock from members in pool order.
    #[must_use]
    pub fn new(members: Vec<BlockAddr>) -> Self {
        Superblock { members, class: None }
    }

    /// A superblock tagged with its demand class.
    #[must_use]
    pub fn with_class(members: Vec<BlockAddr>, class: SpeedClass) -> Self {
        Superblock { members, class: Some(class) }
    }
}

impl fmt::Display for Superblock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SB[")?;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "]")?;
        if let Some(c) = self.class {
            write!(f, " ({c})")?;
        }
        Ok(())
    }
}

/// The paper's extra-latency metrics for one superblock.
///
/// * `program_us` — Σ over super word-lines of (max − min) member `tPROG`;
/// * `erase_us` — (max − min) member `tBERS`.
///
/// ```
/// use pvcheck::ExtraLatency;
///
/// # fn main() -> pvcheck::Result<()> {
/// let members: [&[f64]; 2] = [&[100.0, 200.0], &[110.0, 190.0]];
/// let e = ExtraLatency::of_vectors(&members, &[3000.0, 3020.0])?;
/// assert_eq!(e.program_us, 10.0 + 10.0);
/// assert_eq!(e.erase_us, 20.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExtraLatency {
    /// Total extra program latency across all super word-lines, µs.
    pub program_us: f64,
    /// Extra erase latency, µs.
    pub erase_us: f64,
}

impl ExtraLatency {
    /// Computes the metrics for a superblock against a profile pool.
    ///
    /// # Errors
    ///
    /// Returns an error if a member has no profile, fewer than two members
    /// are present, or members disagree on word-line counts.
    pub fn of_superblock(pool: &BlockPool, sb: &Superblock) -> Result<ExtraLatency> {
        let mut profiles = Vec::with_capacity(sb.members.len());
        for &m in &sb.members {
            profiles.push(pool.profile(m).ok_or(PvError::MissingProfile { addr: m })?);
        }
        check_members(&profiles, profiles.len())?;
        Ok(ExtraLatency {
            program_us: extra_program_us(&profiles),
            erase_us: range(profiles.iter().map(|p| p.tbers_us())),
        })
    }

    /// Computes the metrics from raw member latency vectors.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than two members are present or the vectors
    /// have different lengths.
    pub fn of_vectors(tprog: &[&[f64]], tbers: &[f64]) -> Result<ExtraLatency> {
        check_members(tprog, tbers.len())?;
        Ok(ExtraLatency {
            program_us: extra_program_us(tprog),
            erase_us: range(tbers.iter().copied()),
        })
    }
}

/// A superblock member as the extra-latency metrics read it: its program
/// latency per word-line.
pub(crate) trait Member {
    /// Program latency of each word-line, µs.
    fn tprog(&self) -> &[f64];
}

impl Member for &[f64] {
    fn tprog(&self) -> &[f64] {
        self
    }
}

impl Member for &BlockProfile {
    fn tprog(&self) -> &[f64] {
        self.tprog_us()
    }
}

/// At least two members with erase latencies, and every member as many
/// word-lines as the first.
fn check_members<M: Member>(members: &[M], erase_members: usize) -> Result<()> {
    if members.len() < 2 || erase_members < 2 {
        return Err(PvError::TooFewMembers { got: members.len().min(erase_members) });
    }
    let wl_count = members[0].tprog().len();
    for m in members {
        if m.tprog().len() != wl_count {
            return Err(PvError::MismatchedWlCount { expected: wl_count, got: m.tprog().len() });
        }
    }
    Ok(())
}

/// Word-lines per step of [`extra_program_us`]: each member pass updates
/// fixed-size arrays of this many minima and maxima, so it vectorizes.
const LANES: usize = 8;

/// Extra program latency of a combination — Σ over word-lines of the
/// (max − min) member latency — the hot loop shared with the brute-force
/// optimal assembly. Each word-line's extremes are taken over the members
/// in order and the ranges summed in word-line order, `LANES` word-lines
/// at a time, so the result is bit-identical to one word-line at a time.
pub(crate) fn extra_program_us<M: Member>(members: &[M]) -> f64 {
    let wl_count = members[0].tprog().len();
    let whole = wl_count - wl_count % LANES;
    let mut sum = 0.0;
    for first in (0..whole).step_by(LANES) {
        for range in wl_ranges::<M, LANES>(members, first) {
            sum += range;
        }
    }
    for wl in whole..wl_count {
        let [range] = wl_ranges::<M, 1>(members, wl);
        sum += range;
    }
    sum
}

/// (max − min) member latency of word-lines `first..first + N`. A NaN
/// never becomes an extreme, as in [`range`].
#[inline]
fn wl_ranges<M: Member, const N: usize>(members: &[M], first: usize) -> [f64; N] {
    let mut min = [f64::INFINITY; N];
    let mut max = [f64::NEG_INFINITY; N];
    for m in members {
        let lanes: &[f64; N] = m.tprog()[first..first + N].try_into().expect("N word-lines");
        for ((&t, lo), hi) in lanes.iter().zip(&mut min).zip(&mut max) {
            *lo = if t < *lo { t } else { *lo };
            *hi = if t > *hi { t } else { *hi };
        }
    }
    std::array::from_fn(|k| max[k] - min[k])
}

fn range(values: impl Iterator<Item = f64>) -> f64 {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for v in values {
        if v < min {
            min = v;
        }
        if v > max {
            max = v;
        }
    }
    max - min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BlockProfile;
    use flash_model::{BlockId, ChipId, PlaneId};

    fn addr(c: u16, b: u32) -> BlockAddr {
        BlockAddr::new(ChipId(c), PlaneId(0), BlockId(b))
    }

    #[test]
    fn extra_of_identical_members_is_zero() {
        let t: &[&[f64]] = &[&[10.0, 20.0], &[10.0, 20.0]];
        let e = ExtraLatency::of_vectors(t, &[5.0, 5.0]).unwrap();
        assert_eq!(e.program_us, 0.0);
        assert_eq!(e.erase_us, 0.0);
    }

    #[test]
    fn extra_program_sums_per_wl_ranges() {
        let t: &[&[f64]] = &[&[10.0, 20.0], &[12.0, 26.0], &[9.0, 23.0]];
        // WL0: 12-9=3, WL1: 26-20=6.
        let e = ExtraLatency::of_vectors(t, &[100.0, 103.0, 101.0]).unwrap();
        assert_eq!(e.program_us, 9.0);
        assert_eq!(e.erase_us, 3.0);
    }

    #[test]
    fn too_few_members_is_an_error() {
        let t: &[&[f64]] = &[&[1.0]];
        assert_eq!(
            ExtraLatency::of_vectors(t, &[1.0]).unwrap_err(),
            PvError::TooFewMembers { got: 1 }
        );
    }

    #[test]
    fn mismatched_wl_counts_is_an_error() {
        let t: &[&[f64]] = &[&[1.0, 2.0], &[1.0]];
        assert!(matches!(
            ExtraLatency::of_vectors(t, &[1.0, 2.0]).unwrap_err(),
            PvError::MismatchedWlCount { .. }
        ));
    }

    #[test]
    fn of_superblock_uses_pool_profiles() {
        let mut pool = BlockPool::new(2, 4);
        pool.push(0, BlockProfile::new(addr(0, 0), 0, vec![10.0, 20.0, 10.0, 10.0], 3000.0))
            .unwrap();
        pool.push(1, BlockProfile::new(addr(1, 0), 0, vec![14.0, 21.0, 10.0, 12.0], 3010.0))
            .unwrap();
        let sb = Superblock::new(vec![addr(0, 0), addr(1, 0)]);
        let e = ExtraLatency::of_superblock(&pool, &sb).unwrap();
        assert_eq!(e.program_us, 4.0 + 1.0 + 0.0 + 2.0);
        assert_eq!(e.erase_us, 10.0);
    }

    #[test]
    fn of_superblock_reports_missing_member() {
        let pool = BlockPool::new(1, 4);
        let sb = Superblock::new(vec![addr(0, 0), addr(1, 0)]);
        assert!(matches!(
            ExtraLatency::of_superblock(&pool, &sb).unwrap_err(),
            PvError::MissingProfile { .. }
        ));
    }

    #[test]
    fn display_shows_members_and_class() {
        let sb = Superblock::with_class(vec![addr(0, 1), addr(1, 2)], SpeedClass::Fast);
        let s = sb.to_string();
        assert!(s.contains("CE0/P0/BLK1") && s.contains("FAST"), "{s}");
    }

    #[test]
    fn extra_is_nonnegative_for_any_inputs() {
        let t: &[&[f64]] = &[&[5.0, 1.0], &[1.0, 5.0]];
        let e = ExtraLatency::of_vectors(t, &[7.0, 3.0]).unwrap();
        assert!(e.program_us >= 0.0 && e.erase_us >= 0.0);
    }
}
