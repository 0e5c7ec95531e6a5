//! Rank-similarity assemblies (§IV-A-5..8): LWL-rank, PWL-rank, STR-rank
//! and STR-median.
//!
//! Each pool stays sorted by block program-latency sum; within a window the
//! combination minimizing the Equation-1 pairwise rank distance wins. The
//! four variants differ only in how a block is reduced to a comparison
//! vector.
//!
//! A block's vector is computed once, into one flat table of every pool's
//! rows, built on every core: ranks in the narrowest unsigned cell that
//! holds the strategy's rank range (`u8` for STR-rank and for PWL-rank up
//! to 256 layers, `u16` for LWL-rank up to 65,536 word-lines, `u32`
//! beyond), or packed words of STR-median bits. The pairwise distances
//! between window candidates are kept across rounds. Each round drops the
//! picked block's row and column from every pool pair's matrix and
//! computes only the distances of the block that slid into each window —
//! `2w − 1` per pool pair instead of `w²`. The combination search is the
//! suffix-first enumeration [`crate::assembly::OptimalAssembly`] uses,
//! pruned by a lower bound on what the undecided pools still add, so the
//! first minimal combination in mixed-radix order (pool 0 varying fastest)
//! still wins.

use crate::assembly::windowed::assemble_rounds;
use crate::assembly::Assembler;
#[cfg(test)]
use crate::distance::rank_distance;
use crate::distance::row_distance;
use crate::eigen;
use crate::fan_out;
use crate::profile::{BlockPool, BlockProfile};
use crate::rank::{self, RankCell};
use crate::superblock::Superblock;

/// How a block's word-line latencies are reduced for comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankStrategy {
    /// Rank all logical word-lines together (ranks `0..lwls`).
    Lwl,
    /// Rank each string's physical word-lines (ranks `0..layers`).
    Pwl,
    /// Rank the strings within each layer (ranks `0..strings`).
    Str,
    /// One bit per word-line: fastest half of strings per layer → 0.
    StrMedian,
}

impl RankStrategy {
    fn paper_name(self) -> &'static str {
        match self {
            RankStrategy::Lwl => "LWL-RANK",
            RankStrategy::Pwl => "PWL-RANK",
            RankStrategy::Str => "STR-RANK",
            RankStrategy::StrMedian => "STR-MED",
        }
    }
}

/// Windowed assembly minimizing summed pairwise rank distance.
#[derive(Debug, Clone, Copy)]
pub struct RankAssembly {
    strategy: RankStrategy,
    window: usize,
}

impl RankAssembly {
    /// A rank assembly with the given strategy and window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(strategy: RankStrategy, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        RankAssembly { strategy, window }
    }

    /// The comparison strategy.
    #[must_use]
    pub fn strategy(&self) -> RankStrategy {
        self.strategy
    }

    /// The window size.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Runs the windowed rounds over `table`, comparing two rows with the
    /// Equation-1 `distance`.
    fn assemble_with<T>(
        &self,
        pool: &BlockPool,
        table: &Table<T>,
        distance: impl Fn(&[T], &[T]) -> u32,
    ) -> Vec<Superblock> {
        // No window holds more blocks than its pool.
        let longest = (0..pool.pool_count()).map(|p| pool.pool(p).len()).max().unwrap_or(0);
        let mut distances = WindowDistances::new(pool.pool_count(), self.window.min(longest));
        assemble_rounds(pool, self.window, |windows| {
            distances.admit(windows, |p, i, q, j| distance(table.row(p, i), table.row(q, j)));
            let best = distances.best();
            distances.drop_picked(&best);
            best
        })
    }

    /// The rank strategies over rows of `R` cells, which must hold every
    /// rank of the strategy.
    fn assemble_ranked<R: RankCell>(&self, pool: &BlockPool, workers: usize) -> Vec<Superblock> {
        let ranker: fn(&[f64], u16, &mut [R]) = match self.strategy {
            RankStrategy::Lwl => |tprog_us, _, row| rank::lwl_ranks_into(tprog_us, row),
            RankStrategy::Pwl => rank::pwl_ranks_into,
            RankStrategy::Str => rank::str_ranks_into,
            RankStrategy::StrMedian => unreachable!("STR-median rows are bits, not ranks"),
        };
        let strings = pool.strings();
        let table = Table::build(pool, pool.wl_count(), workers, |block, row| {
            ranker(block.tprog_us(), strings, row);
        });
        self.assemble_with(pool, &table, row_distance)
    }

    /// [`Assembler::assemble`] with the tables built on `workers` threads;
    /// the result does not depend on `workers`.
    fn assemble_on(&self, pool: &BlockPool, workers: usize) -> Vec<Superblock> {
        let wls = pool.wl_count();
        let strings = usize::from(pool.strings()).max(1);
        let max_rank = match self.strategy {
            RankStrategy::Lwl => wls,
            RankStrategy::Pwl => wls / strings,
            RankStrategy::Str => strings,
            RankStrategy::StrMedian => {
                // Each block's eigen bits packed into `ceil(lwls / 64)` words.
                let table = Table::build(pool, wls.div_ceil(64), workers, |block, row| {
                    rank::str_median_bits(block.tprog_us(), pool.strings(), row);
                });
                return self.assemble_with(pool, &table, eigen::bit_distance);
            }
        }
        .saturating_sub(1);
        if max_rank <= u8::MAX_RANK {
            self.assemble_ranked::<u8>(pool, workers)
        } else if max_rank <= u16::MAX_RANK {
            self.assemble_ranked::<u16>(pool, workers)
        } else {
            self.assemble_ranked::<u32>(pool, workers)
        }
    }
}

impl Assembler for RankAssembly {
    fn name(&self) -> String {
        format!("{}({})", self.strategy.paper_name(), self.window)
    }

    fn assemble(&mut self, pool: &BlockPool) -> Vec<Superblock> {
        self.assemble_on(pool, fan_out::available_workers())
    }
}

/// Every pool's comparison vectors in one flat buffer: one row of `stride`
/// entries per block, pool by pool, each pool's blocks in pool order.
#[derive(Debug, PartialEq)]
struct Table<T> {
    stride: usize,
    /// Row of each pool's first block.
    first: Vec<usize>,
    data: Vec<T>,
}

impl<T: Copy + Default + Send> Table<T> {
    /// Fills each block's row in place with `fill(profile, row)`, on
    /// `workers` threads.
    fn build(
        pool: &BlockPool,
        stride: usize,
        workers: usize,
        fill: impl Fn(&BlockProfile, &mut [T]) + Sync,
    ) -> Self {
        let profiles: Vec<&BlockProfile> = pool.iter().collect();
        let first = (0..pool.pool_count())
            .scan(0, |rows, p| {
                let first = *rows;
                *rows += pool.pool(p).len();
                Some(first)
            })
            .collect();
        let mut data = vec![T::default(); profiles.len() * stride];
        fan_out::fill_rows(&mut data, stride, workers, |i, row| fill(profiles[i], row));
        Table { stride, first, data }
    }
}

impl<T> Table<T> {
    /// The row of block `block` of pool `pool`.
    fn row(&self, pool: usize, block: usize) -> &[T] {
        let at = (self.first[pool] + block) * self.stride;
        &self.data[at..at + self.stride]
    }
}

/// Pairwise distances between the candidates of every pool pair's windows,
/// kept across rounds.
struct WindowDistances {
    pools: usize,
    window: usize,
    /// Per pool, the profile indices whose distances are held, in window
    /// order.
    held: Vec<Vec<usize>>,
    /// `mats[p * pools + q]` for `p < q`: entry `b * window + a` is the
    /// distance between `held[p][a]` and `held[q][b]`, so the distances
    /// of pool `p`'s candidates to one candidate of pool `q` are
    /// contiguous.
    mats: Vec<Vec<u32>>,
}

/// One round's combination search.
struct Search {
    /// The combination being scored: a window position per pool.
    picks: Vec<usize>,
    /// `scores[level * window + a]`: the partial sum with candidate `a` at
    /// `level` and the current picks above it.
    scores: Vec<u64>,
    /// `floor[level]`: the least the pools below `level` can still add
    /// once `level` and the pools above it are picked — the sum, over
    /// every pool pair with a member below `level`, of the pair's smallest
    /// held distance.
    floor: Vec<u64>,
    best: Vec<usize>,
    best_score: u64,
}

impl WindowDistances {
    fn new(pools: usize, window: usize) -> Self {
        WindowDistances {
            pools,
            window,
            held: vec![Vec::new(); pools],
            mats: (0..pools * pools)
                .map(|k| if k / pools < k % pools { vec![0; window * window] } else { Vec::new() })
                .collect(),
        }
    }

    /// Brings the held windows up to this round's `windows`: a window's
    /// held blocks are its prefix, and every block past them has just
    /// entered, so only entrants' distances are computed.
    /// `distance(p, i, q, j)` compares profile `i` of pool `p` with
    /// profile `j` of pool `q`.
    fn admit(
        &mut self,
        windows: &[&[usize]],
        distance: impl Fn(usize, usize, usize, usize) -> u32,
    ) {
        let w = self.window;
        for p in 0..self.pools {
            for q in (p + 1)..self.pools {
                let (held_p, held_q) = (self.held[p].len(), self.held[q].len());
                let mat = &mut self.mats[p * self.pools + q];
                for (b, &j) in windows[q].iter().enumerate() {
                    // A held candidate of `q` needs only `p`'s entrants.
                    let from = if b < held_q { held_p } else { 0 };
                    for (a, &i) in windows[p].iter().enumerate().skip(from) {
                        mat[b * w + a] = distance(p, i, q, j);
                    }
                }
            }
        }
        for (held, window) in self.held.iter_mut().zip(windows) {
            debug_assert!(window.starts_with(held), "held blocks must stay the window's prefix");
            held.clear();
            held.extend_from_slice(window);
        }
    }

    /// Drops each pool's picked position from every matrix; later
    /// positions move up one.
    fn drop_picked(&mut self, picks: &[usize]) {
        let w = self.window;
        for p in 0..self.pools {
            for q in (p + 1)..self.pools {
                let (held_p, held_q) = (self.held[p].len(), self.held[q].len());
                let mat = &mut self.mats[p * self.pools + q];
                mat.copy_within((picks[q] + 1) * w..held_q * w, picks[q] * w);
                for to_q in mat.chunks_exact_mut(w).take(held_q - 1) {
                    to_q.copy_within(picks[p] + 1..held_p, picks[p]);
                }
            }
        }
        for (held, &pick) in self.held.iter_mut().zip(picks) {
            held.remove(pick);
        }
    }

    /// The window positions of the first combination, in mixed-radix order
    /// with pool 0 varying fastest, whose summed pairwise distance is
    /// smallest.
    fn best(&self) -> Vec<usize> {
        let mut search = Search {
            picks: vec![0; self.pools],
            scores: vec![0; self.pools * self.window],
            floor: self.floors(),
            best: vec![0; self.pools],
            best_score: u64::MAX,
        };
        if let Some(top) = self.pools.checked_sub(1) {
            self.search(top, 0, &mut search);
        }
        search.best
    }

    /// [`Search::floor`] of this round's held distances.
    fn floors(&self) -> Vec<u64> {
        let w = self.window;
        let mut floor = vec![0; self.pools];
        for p in 1..self.pools {
            // Pool `p - 1` joins the undecided pools below `p`, with every
            // pair it forms with a higher pool.
            let held = self.held[p - 1].len();
            let joined: u64 = (p..self.pools)
                .map(|q| {
                    let mat = &self.mats[(p - 1) * self.pools + q];
                    let to_q = mat.chunks_exact(w).take(self.held[q].len());
                    to_q.flat_map(|row| &row[..held]).min().map_or(0, |&d| u64::from(d))
                })
                .sum();
            floor[p] = floor[p - 1] + joined;
        }
        floor
    }

    /// Tries every candidate of pool `level` under the picks of the pools
    /// above it, adding its distances to them to `partial`. No completion
    /// of a candidate scores below its partial sum plus the level's
    /// [`Search::floor`], so a candidate whose bound reaches the incumbent
    /// is cut, and only a strictly smaller total replaces the incumbent:
    /// the same combination wins as in the plain product loop.
    fn search(&self, level: usize, partial: u64, s: &mut Search) {
        let w = self.window;
        let row = level * w..level * w + self.held[level].len();
        s.scores[row.clone()].fill(partial);
        for q in (level + 1)..self.pools {
            let to_q = &self.mats[level * self.pools + q][s.picks[q] * w..];
            for (score, &d) in s.scores[row.clone()].iter_mut().zip(to_q) {
                *score += u64::from(d);
            }
        }
        let floor = s.floor[level];
        for (a, at) in row.enumerate() {
            let score = s.scores[at];
            if score + floor >= s.best_score {
                continue;
            }
            s.picks[level] = a;
            if level == 0 {
                s.best_score = score;
                s.best.copy_from_slice(&s.picks);
            } else {
                self.search(level - 1, score, s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::test_support::*;
    use crate::assembly::RandomAssembly;
    use crate::profile::BlockProfile;
    use crate::superblock::ExtraLatency;
    use flash_model::{BlockAddr, BlockId, ChipId, PlaneId};

    fn avg_extra_pgm(pool: &BlockPool, sbs: &[Superblock]) -> f64 {
        sbs.iter().map(|sb| ExtraLatency::of_superblock(pool, sb).unwrap().program_us).sum::<f64>()
            / sbs.len() as f64
    }

    #[test]
    fn all_strategies_produce_valid_assemblies() {
        let pool = synthetic_pool(4, 8, 16);
        for strategy in
            [RankStrategy::Lwl, RankStrategy::Pwl, RankStrategy::Str, RankStrategy::StrMedian]
        {
            let sbs = RankAssembly::new(strategy, 4).assemble(&pool);
            assert_valid_assembly(&pool, &sbs);
        }
    }

    #[test]
    fn str_rank_beats_random() {
        let pool = synthetic_pool(4, 16, 16);
        let ranked = avg_extra_pgm(&pool, &RankAssembly::new(RankStrategy::Str, 8).assemble(&pool));
        let random = avg_extra_pgm(&pool, &RandomAssembly::new(2).assemble(&pool));
        assert!(ranked < random, "STR-RANK {ranked} vs random {random}");
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(RankAssembly::new(RankStrategy::Lwl, 8).name(), "LWL-RANK(8)");
        assert_eq!(RankAssembly::new(RankStrategy::StrMedian, 4).name(), "STR-MED(4)");
    }

    #[test]
    fn window_one_is_program_sort() {
        use crate::assembly::{LatencySortAssembly, SortKey};
        let pool = synthetic_pool(4, 8, 8);
        let ranked = RankAssembly::new(RankStrategy::Str, 1).assemble(&pool);
        let sorted = LatencySortAssembly::new(SortKey::Program).assemble(&pool);
        assert_eq!(ranked, sorted);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = RankAssembly::new(RankStrategy::Str, 0);
    }

    const STRATEGIES: [RankStrategy; 4] =
        [RankStrategy::Lwl, RankStrategy::Pwl, RankStrategy::Str, RankStrategy::StrMedian];

    /// The from-scratch search the incremental one replaced: every round
    /// builds the window-distance matrices anew from the public rank and
    /// eigen functions, then scores every combination in the plain product
    /// loop, keeping the first strictly better one.
    fn assemble_brute_force(
        pool: &BlockPool,
        strategy: RankStrategy,
        window: usize,
    ) -> Vec<Superblock> {
        use crate::assembly::windowed::for_each_combo;
        let strings = pool.strings();
        let pools = pool.pool_count();
        let ranks: Vec<Vec<Vec<u32>>> = (0..pools)
            .map(|p| {
                pool.pool(p)
                    .iter()
                    .map(|b| match strategy {
                        RankStrategy::Lwl => rank::lwl_ranks(b.tprog_us()),
                        RankStrategy::Pwl => rank::pwl_ranks(b.tprog_us(), strings),
                        _ => rank::str_ranks(b.tprog_us(), strings),
                    })
                    .collect()
            })
            .collect();
        let eigens: Vec<Vec<crate::EigenSequence>> = (0..pools)
            .map(|p| {
                pool.pool(p).iter().map(|b| rank::str_median_eigen(b.tprog_us(), strings)).collect()
            })
            .collect();
        let distance = |p: usize, i: usize, q: usize, j: usize| -> u64 {
            match strategy {
                RankStrategy::StrMedian => u64::from(eigens[p][i].distance(&eigens[q][j])),
                _ => u64::from(rank_distance(&ranks[p][i], &ranks[q][j])),
            }
        };
        assemble_rounds(pool, window, |windows| {
            let sizes: Vec<usize> = windows.iter().map(|w| w.len()).collect();
            let mut mats: Vec<Vec<Vec<u64>>> = vec![Vec::new(); pools * pools];
            for p in 0..pools {
                for q in (p + 1)..pools {
                    mats[p * pools + q] = windows[p]
                        .iter()
                        .map(|&i| windows[q].iter().map(|&j| distance(p, i, q, j)).collect())
                        .collect();
                }
            }
            let mut best_score = u64::MAX;
            let mut best = vec![0usize; pools];
            for_each_combo(&sizes, |picks| {
                let mut s = 0u64;
                for p in 0..pools {
                    for q in (p + 1)..pools {
                        s += mats[p * pools + q][picks[p]][picks[q]];
                    }
                }
                if s < best_score {
                    best_score = s;
                    best.copy_from_slice(picks);
                }
            });
            best
        })
    }

    /// `lens[p]` blocks in pool `p`, every latency one of three levels, so
    /// ranks, window distances, combination scores and program sums tie
    /// often.
    fn tie_heavy_pool(seed: u64, lens: &[usize], layers: usize, strings: u16) -> BlockPool {
        let draw = flash_model::Sampler::new(seed);
        let mut pool = BlockPool::new(lens.len(), strings);
        for (p, &len) in lens.iter().enumerate() {
            for b in 0..len {
                let addr = BlockAddr::new(ChipId(p as u16), PlaneId(0), BlockId(b as u32));
                let tprog: Vec<f64> = (0..layers * usize::from(strings))
                    .map(|w| {
                        let level = draw.choice(3, &[p as u64, b as u64, w as u64]);
                        1880.1 + 18.4 * level as f64
                    })
                    .collect();
                pool.push(p, BlockProfile::new(addr, 0, tprog, 3500.0)).unwrap();
            }
        }
        pool
    }

    #[test]
    fn matches_from_scratch_brute_force() {
        // Exact equality, tie-breaks included, over 1..=5 pools of unequal
        // lengths and every window 1..=8.
        for seed in 0..15u64 {
            let pools = 1 + (seed % 5) as usize;
            let draw = flash_model::Sampler::new(seed);
            let lens: Vec<usize> = (0..pools).map(|p| 1 + draw.choice(11, &[p as u64])).collect();
            let strings = [1u16, 2, 4][(seed % 3) as usize];
            let layers = 1 + (seed % 4) as usize;
            let pool = tie_heavy_pool(seed, &lens, layers, strings);
            for strategy in STRATEGIES {
                for window in 1..=8 {
                    let fast = RankAssembly::new(strategy, window).assemble(&pool);
                    let slow = assemble_brute_force(&pool, strategy, window);
                    assert_eq!(
                        fast, slow,
                        "seed={seed} lens={lens:?} strings={strings} {strategy:?}({window})"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn tables_on_one_worker_and_on_many_are_identical(
            seed in 0u64..1_000,
            lens in proptest::collection::vec(1usize..100, 1..5),
            workers in 2usize..9,
        ) {
            // Pools longer than one claimed chunk, so several workers
            // share each pool.
            let pool = tie_heavy_pool(seed, &lens, 3, 4);
            let wls = pool.wl_count();
            let lwl = |b: &BlockProfile, row: &mut [u16]| rank::lwl_ranks_into(b.tprog_us(), row);
            let pwl =
                |b: &BlockProfile, row: &mut [u8]| rank::pwl_ranks_into(b.tprog_us(), 4, row);
            let str =
                |b: &BlockProfile, row: &mut [u8]| rank::str_ranks_into(b.tprog_us(), 4, row);
            let med =
                |b: &BlockProfile, row: &mut [u64]| rank::str_median_bits(b.tprog_us(), 4, row);
            let lwl_one = Table::build(&pool, wls, 1, lwl);
            proptest::prop_assert_eq!(lwl_one, Table::build(&pool, wls, workers, lwl));
            let pwl_one = Table::build(&pool, wls, 1, pwl);
            proptest::prop_assert_eq!(pwl_one, Table::build(&pool, wls, workers, pwl));
            let str_one = Table::build(&pool, wls, 1, str);
            proptest::prop_assert_eq!(str_one, Table::build(&pool, wls, workers, str));
            let med_one = Table::build(&pool, 1, 1, med);
            proptest::prop_assert_eq!(med_one, Table::build(&pool, 1, workers, med));
            for strategy in STRATEGIES {
                let assembly = RankAssembly::new(strategy, 4);
                let one = assembly.assemble_on(&pool, 1);
                proptest::prop_assert_eq!(one, assembly.assemble_on(&pool, workers));
            }
        }

        #[test]
        fn bounded_search_picks_the_product_loops_first_minimum(
            lens in proptest::collection::vec(1usize..7, 1..6),
            window in 1usize..7,
            cells in proptest::collection::vec(0u32..4, 900),
        ) {
            // Distances from a few levels, so scores and floors tie often.
            use crate::assembly::windowed::for_each_combo;
            let pools = lens.len();
            let windows: Vec<Vec<usize>> =
                lens.iter().map(|&len| (0..len.min(window)).collect()).collect();
            let views: Vec<&[usize]> = windows.iter().map(Vec::as_slice).collect();
            let distance =
                |p: usize, i: usize, q: usize, j: usize| cells[((p * 5 + q) * 6 + i) * 6 + j];
            let mut distances = WindowDistances::new(pools, window);
            distances.admit(&views, distance);
            let sizes: Vec<usize> = views.iter().map(|w| w.len()).collect();
            let (mut best, mut best_score) = (vec![0; pools], u64::MAX);
            for_each_combo(&sizes, |picks| {
                let mut score = 0;
                for p in 0..pools {
                    for q in (p + 1)..pools {
                        score += u64::from(distance(p, picks[p], q, picks[q]));
                    }
                }
                if score < best_score {
                    best_score = score;
                    best.copy_from_slice(picks);
                }
            });
            proptest::prop_assert_eq!(distances.best(), best);
        }
    }

    #[test]
    fn nan_latencies_assemble_without_panicking() {
        let mut pool = BlockPool::new(2, 4);
        for p in 0..2 {
            for b in 0..40u32 {
                let addr = BlockAddr::new(ChipId(p as u16), PlaneId(0), BlockId(b));
                let mut tprog: Vec<f64> =
                    (0..32).map(|wl| 1700.0 + f64::from((b * 7 + wl * 3) % 5) * 18.4).collect();
                if b % 9 == 4 {
                    tprog[5] = f64::NAN;
                }
                pool.push(p, BlockProfile::new(addr, 0, tprog, 3500.0)).unwrap();
            }
        }
        for strategy in STRATEGIES {
            assert_valid_assembly(&pool, &RankAssembly::new(strategy, 4).assemble(&pool));
        }
    }
}
