//! Shared machinery for windowed assemblies (§IV-A-4..8).
//!
//! All windowed schemes work the same way: keep each pool sorted fast→slow
//! by block program-latency sum, look at the first `window` blocks of every
//! pool, pick the best combination (one block per pool) under a
//! scheme-specific objective, remove the winners, repeat.

use crate::profile::BlockPool;
use crate::superblock::Superblock;
use flash_model::BlockAddr;

/// Per-pool profile indices sorted fast→slow by program-latency sum
/// (ties by insertion order).
pub(crate) fn sorted_remaining(pool: &BlockPool) -> Vec<Vec<usize>> {
    (0..pool.pool_count())
        .map(|p| {
            let blocks = pool.pool(p);
            let mut order: Vec<usize> = (0..blocks.len()).collect();
            order.sort_by(|&a, &b| {
                blocks[a].pgm_sum_us().total_cmp(&blocks[b].pgm_sum_us()).then(a.cmp(&b))
            });
            order
        })
        .collect()
}

/// Calls `f` with every mixed-radix combination `picks` where
/// `picks[i] < sizes[i]`, `picks[0]` varying fastest: the plain product
/// loop the pruned searches are tested against.
#[cfg(test)]
pub(crate) fn for_each_combo(sizes: &[usize], mut f: impl FnMut(&[usize])) {
    if sizes.contains(&0) {
        return;
    }
    let mut picks = vec![0usize; sizes.len()];
    loop {
        f(&picks);
        let mut i = 0;
        loop {
            if i == sizes.len() {
                return;
            }
            picks[i] += 1;
            if picks[i] < sizes[i] {
                break;
            }
            picks[i] = 0;
            i += 1;
        }
    }
}

/// Runs the round loop: `pick_best(windows)` receives, per pool, the window
/// of remaining profile indices (fastest first, at most `window` long) and
/// returns the chosen *position within each window*.
pub(crate) fn assemble_rounds(
    pool: &BlockPool,
    window: usize,
    mut pick_best: impl FnMut(&[&[usize]]) -> Vec<usize>,
) -> Vec<Superblock> {
    assert!(window > 0, "window must be positive");
    let pools = pool.pool_count();
    let mut remaining = sorted_remaining(pool);
    let rounds = pool.min_pool_len();
    let mut sbs = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let windows: Vec<&[usize]> = remaining.iter().map(|r| &r[..r.len().min(window)]).collect();
        let picks = pick_best(&windows);
        debug_assert_eq!(picks.len(), pools);
        let members: Vec<BlockAddr> =
            (0..pools).map(|p| pool.pool(p)[remaining[p][picks[p]]].addr()).collect();
        for (p, &pick) in picks.iter().enumerate() {
            remaining[p].remove(pick);
        }
        sbs.push(Superblock::new(members));
    }
    sbs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::test_support::*;

    #[test]
    fn combos_enumerate_full_product() {
        let mut n = 0;
        for_each_combo(&[3, 2, 4], |_| n += 1);
        assert_eq!(n, 24);
    }

    #[test]
    fn combos_with_zero_size_do_nothing() {
        let mut n = 0;
        for_each_combo(&[3, 0], |_| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn combos_cover_every_tuple_once() {
        let mut seen = std::collections::HashSet::new();
        for_each_combo(&[2, 2, 2], |p| {
            assert!(seen.insert(p.to_vec()));
        });
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn sorted_remaining_is_fast_first() {
        let pool = synthetic_pool(3, 8, 8);
        for (p, order) in sorted_remaining(&pool).iter().enumerate() {
            let sums: Vec<f64> = order.iter().map(|&i| pool.pool(p)[i].pgm_sum_us()).collect();
            assert!(sums.windows(2).all(|w| w[0] <= w[1]), "{sums:?}");
        }
    }

    #[test]
    fn greedy_head_pick_is_a_valid_assembly() {
        let pool = synthetic_pool(4, 6, 8);
        let sbs = assemble_rounds(&pool, 3, |windows| vec![0; windows.len()]);
        assert_valid_assembly(&pool, &sbs);
    }
}
