//! Equation (1): rank distance between blocks.

/// Number of word-line positions where two rank vectors disagree — the
/// paper's `SIM(i, j, wl)` summed over word-lines.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[must_use]
pub fn rank_distance(a: &[u32], b: &[u32]) -> u32 {
    assert_eq!(a.len(), b.len(), "rank vectors must have equal length");
    row_distance(a, b)
}

/// [`rank_distance`] over rank rows of any cell width: the rank tables
/// store narrow rows, and comparing them reads a half or a quarter of the
/// bytes. Rows of unequal length compare over the shorter one.
pub(crate) fn row_distance<T: Eq>(a: &[T], b: &[T]) -> u32 {
    a.iter().zip(b).map(|(x, y)| u32::from(x != y)).sum()
}

/// Equation (1) over a whole combination: the sum of [`rank_distance`] over
/// every unordered pair of member rank vectors.
#[must_use]
pub fn combination_rank_distance(members: &[&[u32]]) -> u64 {
    let mut total = 0u64;
    for i in 0..members.len() {
        for j in (i + 1)..members.len() {
            total += u64::from(rank_distance(members[i], members[j]));
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn narrow_row_distance_equals_rank_distance(
            pairs in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 0..300),
            range in prop_oneof![Just(4u32), Just(96), Just(384), Just(70_000)],
        ) {
            // Equal positions are common, as between similar blocks.
            let (a, b): (Vec<u32>, Vec<u32>) = pairs
                .iter()
                .map(|&(x, y, same)| (x % range, if same { x % range } else { y % range }))
                .unzip();
            let d = rank_distance(&a, &b);
            prop_assert_eq!(row_distance(&a, &b), d);
            if let (Ok(a), Ok(b)) = (narrow::<u16>(&a), narrow::<u16>(&b)) {
                prop_assert_eq!(row_distance(&a, &b), d);
            }
            if let (Ok(a), Ok(b)) = (narrow::<u8>(&a), narrow::<u8>(&b)) {
                prop_assert_eq!(row_distance(&a, &b), d);
            }
        }
    }

    fn narrow<T: TryFrom<u32>>(row: &[u32]) -> Result<Vec<T>, T::Error> {
        row.iter().map(|&r| T::try_from(r)).collect()
    }

    #[test]
    fn identical_vectors_have_zero_distance() {
        assert_eq!(rank_distance(&[1, 2, 3], &[1, 2, 3]), 0);
    }

    #[test]
    fn counts_each_differing_position_once() {
        assert_eq!(rank_distance(&[1, 2, 3, 4], &[1, 9, 3, 9]), 2);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = [3, 1, 4, 1, 5];
        let b = [2, 7, 1, 8, 2];
        assert_eq!(rank_distance(&a, &b), rank_distance(&b, &a));
    }

    #[test]
    fn triangle_inequality_holds() {
        // Hamming-style distances satisfy the triangle inequality.
        let a = [0, 1, 2, 3];
        let b = [0, 9, 2, 9];
        let c = [9, 9, 9, 9];
        assert!(rank_distance(&a, &c) <= rank_distance(&a, &b) + rank_distance(&b, &c));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = rank_distance(&[1], &[1, 2]);
    }

    #[test]
    fn combination_distance_sums_pairs() {
        let a: &[u32] = &[0, 0];
        let b: &[u32] = &[0, 1];
        let c: &[u32] = &[1, 1];
        // ab=1, ac=2, bc=1.
        assert_eq!(combination_rank_distance(&[a, b, c]), 4);
    }

    #[test]
    fn combination_of_one_is_zero() {
        assert_eq!(combination_rank_distance(&[&[1u32, 2][..]]), 0);
        assert_eq!(combination_rank_distance(&[]), 0);
    }
}
