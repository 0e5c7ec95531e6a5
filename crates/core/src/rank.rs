//! Ranking strategies over a block's word-line program latencies (§IV-A).
//!
//! All rankings operate on the layer-major latency vector of a block
//! (`lwl = layer * strings + string`) and break ties by index, matching the
//! paper's "sequentially assigns" rule. Each produces a rank vector aligned
//! with the word-line order so two blocks can be compared position by
//! position (Equation 1).

use crate::eigen::EigenSequence;

/// `x`'s position in the IEEE 754 total order as an unsigned integer:
/// `total_key(a).cmp(&total_key(b)) == a.total_cmp(&b)` for every pair of
/// values, NaNs and signed zeros included, and [`from_total_key`] inverts
/// it bit for bit. Negative values flip every bit (a larger magnitude
/// sorts lower); the rest gain the sign bit (they sort above every
/// negative value).
///
/// Ranking sorts these keys as integers; the FTL's schedulers and
/// histograms key their trees and sorts by them too, from other crates,
/// hence `#[inline]`.
#[inline]
#[must_use]
pub fn total_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`total_key`].
#[inline]
#[must_use]
pub fn from_total_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

/// An unsigned cell of a rank row. Rank tables store each row in the
/// narrowest cell that holds the strategy's rank range, so the rows the
/// window search compares stay small.
pub(crate) trait RankCell: Copy + Default + Eq + Send + Sync {
    /// The largest rank the cell holds.
    const MAX_RANK: usize;

    /// The cell holding `rank`, which must be at most [`Self::MAX_RANK`].
    fn from_rank(rank: usize) -> Self;
}

macro_rules! rank_cell {
    ($($t:ty),*) => {$(
        impl RankCell for $t {
            const MAX_RANK: usize = <$t>::MAX as usize;

            #[inline]
            fn from_rank(rank: usize) -> Self {
                debug_assert!(rank <= Self::MAX_RANK, "rank {rank} does not fit");
                rank as $t
            }
        }
    )*};
}

rank_cell!(u8, u16, u32);

/// Ranks every logical word-line of the block by program latency
/// (0 = fastest). This is the paper's *LWL-rank* (ranks span `0..lwls`).
#[must_use]
pub fn lwl_ranks(tprog_us: &[f64]) -> Vec<u32> {
    let mut out = vec![0; tprog_us.len()];
    lwl_ranks_into(tprog_us, &mut out);
    out
}

/// [`lwl_ranks`] into a row of any [`RankCell`].
pub(crate) fn lwl_ranks_into<R: RankCell>(tprog_us: &[f64], out: &mut [R]) {
    rank_group(tprog_us, 0..tprog_us.len(), &mut Vec::with_capacity(tprog_us.len()), out);
}

/// Ranks each string's physical word-lines independently (*PWL-rank*): the
/// entry at `lwl(layer, string)` is the rank of `layer` among that string's
/// layers (ranks span `0..layers`).
///
/// # Panics
///
/// Panics if `tprog_us.len()` is not a multiple of `strings`.
#[must_use]
pub fn pwl_ranks(tprog_us: &[f64], strings: u16) -> Vec<u32> {
    let mut out = vec![0; tprog_us.len()];
    pwl_ranks_into(tprog_us, strings, &mut out);
    out
}

/// [`pwl_ranks`] into a row of any [`RankCell`].
pub(crate) fn pwl_ranks_into<R: RankCell>(tprog_us: &[f64], strings: u16, out: &mut [R]) {
    let s = usize::from(strings);
    assert!(s > 0 && tprog_us.len().is_multiple_of(s), "latency vector not layer-major");
    let mut keys = Vec::with_capacity(tprog_us.len() / s);
    for string in 0..s {
        rank_group(tprog_us, (string..tprog_us.len()).step_by(s), &mut keys, out);
    }
}

/// Ranks the strings within each physical word-line layer (*STR-rank*): the
/// entry at `lwl(layer, string)` is the rank of `string` on that layer
/// (ranks span `0..strings`).
///
/// # Panics
///
/// Panics if `tprog_us.len()` is not a multiple of `strings`.
#[must_use]
pub fn str_ranks(tprog_us: &[f64], strings: u16) -> Vec<u32> {
    let mut out = vec![0; tprog_us.len()];
    str_ranks_into(tprog_us, strings, &mut out);
    out
}

/// [`str_ranks`] into a row of any [`RankCell`]. A layer holds a handful of
/// strings, so each rank is counted, not sorted.
pub(crate) fn str_ranks_into<R: RankCell>(tprog_us: &[f64], strings: u16, out: &mut [R]) {
    let s = usize::from(strings);
    assert!(s > 0 && tprog_us.len().is_multiple_of(s), "latency vector not layer-major");
    for (layer, ranks) in tprog_us.chunks_exact(s).zip(out.chunks_exact_mut(s)) {
        for (rank, cell) in string_ranks(layer).zip(ranks) {
            *cell = R::from_rank(rank);
        }
    }
}

/// The *STR-median* 1-bit quantization (§IV-A-8, §V-B): on each physical
/// word-line layer the fastest half of the strings get bit 0, the rest get
/// bit 1; ties are broken by string index ("sequentially assigns bits zero
/// to the first two word-lines").
///
/// ```
/// use pvcheck::rank::str_median_eigen;
///
/// // One layer, four strings: strings 0 and 2 are fastest.
/// let eigen = str_median_eigen(&[10.0, 30.0, 20.0, 40.0], 4);
/// assert_eq!(eigen.to_string(), "0101");
/// ```
///
/// # Panics
///
/// Panics if `tprog_us.len()` is not a multiple of `strings`.
#[must_use]
pub fn str_median_eigen(tprog_us: &[f64], strings: u16) -> EigenSequence {
    let mut eigen = EigenSequence::zeros(tprog_us.len());
    str_median_bits(tprog_us, strings, eigen.words_mut());
    eigen
}

/// Writes the [`str_median_eigen`] bits of a block into `words` (bit `i`
/// of the sequence at `words[i / 64] >> (i % 64)`), which must start zeroed.
///
/// # Panics
///
/// Panics if `tprog_us.len()` is not a multiple of `strings`, or if
/// `words` holds fewer than `tprog_us.len()` bits.
pub(crate) fn str_median_bits(tprog_us: &[f64], strings: u16, words: &mut [u64]) {
    let s = usize::from(strings);
    assert!(s > 0 && tprog_us.len().is_multiple_of(s), "latency vector not layer-major");
    for (layer, row) in tprog_us.chunks_exact(s).enumerate() {
        mark_slow_strings(row, words, layer * s);
    }
}

/// The STR-median rule for one physical word-line layer: every string
/// outside the fastest `max(strings / 2, 1)` — ties broken by string index
/// — sets its bit, bit `first + string` of `words`. Allocation-free: a
/// string is slow when its [`string_ranks`] rank is at least that many.
pub(crate) fn mark_slow_strings(layer: &[f64], words: &mut [u64], first: usize) {
    let fast = (layer.len() / 2).max(1);
    for (i, rank) in string_ranks(layer).enumerate() {
        if rank >= fast {
            let bit = first + i;
            words[bit / 64] |= 1 << (bit % 64);
        }
    }
}

/// Each string's rank within one layer (0 = fastest, ties by string
/// index), counted without a sort: the number of strings that order
/// before it.
fn string_ranks(layer: &[f64]) -> impl Iterator<Item = usize> + '_ {
    layer.iter().enumerate().map(move |(i, t)| {
        // Lower-indexed strings order first on a tie.
        layer[..i].iter().filter(|u| u.total_cmp(t).is_le()).count()
            + layer[i + 1..].iter().filter(|u| u.total_cmp(t).is_lt()).count()
    })
}

/// Ranks one group of word-lines — `wls`, in increasing order — fastest
/// first with ties by word-line, and writes each one's rank within the
/// group to `out[wl]`. Each member sorts as one integer key, its latency's
/// [`total_key`] above its word-line, so the keys are distinct and the
/// unstable sort has one result.
fn rank_group<R: RankCell>(
    tprog_us: &[f64],
    wls: impl Iterator<Item = usize>,
    keys: &mut Vec<u128>,
    out: &mut [R],
) {
    keys.clear();
    keys.extend(wls.map(|wl| u128::from(total_key(tprog_us[wl])) << 64 | wl as u128));
    keys.sort_unstable();
    for (rank, &key) in keys.iter().enumerate() {
        out[key as u64 as usize] = R::from_rank(rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // 2 layers x 4 strings, layer-major.
    const T: [f64; 8] = [10.0, 30.0, 20.0, 40.0, 5.0, 5.0, 50.0, 5.0];

    #[test]
    fn lwl_ranks_order_everything() {
        let r = lwl_ranks(&T);
        // Sorted order: 5(idx4),5(idx5),5(idx7),10,20,30,40,50.
        assert_eq!(r, vec![3, 5, 4, 6, 0, 1, 7, 2]);
    }

    #[test]
    fn lwl_ranks_are_a_permutation() {
        let r = lwl_ranks(&T);
        let mut sorted = r.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn str_ranks_rank_within_each_layer() {
        let r = str_ranks(&T, 4);
        // Layer 0: 10,30,20,40 -> ranks 0,2,1,3.
        assert_eq!(&r[0..4], &[0, 2, 1, 3]);
        // Layer 1: 5,5,50,5 -> ties by index: 0,1,3,2.
        assert_eq!(&r[4..8], &[0, 1, 3, 2]);
    }

    #[test]
    fn pwl_ranks_rank_within_each_string() {
        let r = pwl_ranks(&T, 4);
        // String 0: layers (10, 5) -> layer1 faster: ranks layer0=1, layer1=0.
        assert_eq!(r[0], 1);
        assert_eq!(r[4], 0);
        // String 2: layers (20, 50) -> layer0=0, layer1=1.
        assert_eq!(r[2], 0);
        assert_eq!(r[6], 1);
    }

    #[test]
    fn str_median_marks_fastest_half_zero() {
        let e = str_median_eigen(&T, 4);
        // Layer 0: fast = 10,20 (strings 0,2) -> bits 0,1,0,1.
        // Layer 1: ties 5,5,50,5 -> first two fast (strings 0,1) -> 0,0,1,1.
        assert_eq!(e.to_string(), "0101 0011");
    }

    #[test]
    fn str_median_handles_two_strings() {
        let t = [1.0, 2.0, 4.0, 3.0]; // 2 layers x 2 strings
        let e = str_median_eigen(&t, 2);
        assert_eq!(e.to_string(), "0110");
    }

    #[test]
    fn identical_latencies_tie_break_by_index() {
        let t = [7.0; 8];
        let r = str_ranks(&t, 4);
        assert_eq!(&r[0..4], &[0, 1, 2, 3]);
        let e = str_median_eigen(&t, 4);
        assert_eq!(e.to_string(), "0011 0011");
    }

    #[test]
    #[should_panic(expected = "layer-major")]
    fn str_ranks_reject_ragged_input() {
        let _ = str_ranks(&[1.0, 2.0, 3.0], 4);
    }

    /// The paper's Figure 9 worked example (BLK-733): four strings per
    /// layer, eigen bits per layer must match the figure exactly, including
    /// tie-breaking ("sequentially assigns bits zero to the first two").
    #[test]
    fn figure9_worked_example_matches_paper() {
        // PWL 0: 1917.0, 1898.6, 1898.6, 1898.6 -> figure says 1 0 0 1.
        assert_eq!(str_median_eigen(&[1917.0, 1898.6, 1898.6, 1898.6], 4).to_string(), "1001");
        // PWL 1: all 1898.6 -> figure says 0 0 1 1.
        assert_eq!(str_median_eigen(&[1898.6; 4], 4).to_string(), "0011");
        // PWL 94: 1579.1, 1646.6, 1579.1, 1579.1 -> figure says 0 1 0 1.
        assert_eq!(str_median_eigen(&[1579.1, 1646.6, 1579.1, 1579.1], 4).to_string(), "0101");
        // PWL 95: 1898.6, 1910.8, 1880.1, 1910.8 -> figure says 0 1 0 1.
        assert_eq!(str_median_eigen(&[1898.6, 1910.8, 1880.1, 1910.8], 4).to_string(), "0101");
    }

    #[test]
    fn nan_latencies_rank_without_panicking() {
        // 32 word-lines with ties and one NaN: the comparator is a total
        // order, so the sort cannot panic and the ranks stay a permutation.
        let mut t: Vec<f64> = (0..32).map(|i| 1700.0 + f64::from(i % 3) * 18.4).collect();
        t[5] = f64::NAN;
        let mut r = lwl_ranks(&t);
        assert_eq!(r[5], 31, "NaN sorts after every finite latency");
        r.sort_unstable();
        assert_eq!(r, (0..32).collect::<Vec<u32>>());
        let _ = pwl_ranks(&t, 4);
        let _ = str_ranks(&t, 4);
        let _ = str_median_eigen(&t, 4);
    }

    #[test]
    fn narrow_rows_hold_the_same_ranks() {
        // 3 layers x 4 strings of tie-heavy latencies: every strategy's
        // ranks fit a u8 row, and LWL's also a u16 row.
        let t: Vec<f64> = (0..12).map(|i| 1880.1 + 18.4 * f64::from((i * 7) % 3)).collect();
        let widen = |row: &[u8]| row.iter().map(|&r| u32::from(r)).collect::<Vec<u32>>();
        let mut narrow = [0u8; 12];
        lwl_ranks_into(&t, &mut narrow);
        assert_eq!(widen(&narrow), lwl_ranks(&t));
        let mut wide = [0u16; 12];
        lwl_ranks_into(&t, &mut wide);
        assert_eq!(wide.map(u32::from).to_vec(), lwl_ranks(&t));
        pwl_ranks_into(&t, 4, &mut narrow);
        assert_eq!(widen(&narrow), pwl_ranks(&t, 4));
        str_ranks_into(&t, 4, &mut narrow);
        assert_eq!(widen(&narrow), str_ranks(&t, 4));
    }

    #[test]
    fn rank_vectors_align_with_input_length() {
        assert_eq!(lwl_ranks(&T).len(), 8);
        assert_eq!(pwl_ranks(&T, 4).len(), 8);
        assert_eq!(str_ranks(&T, 4).len(), 8);
        assert_eq!(str_median_eigen(&T, 4).len(), 8);
    }
}
