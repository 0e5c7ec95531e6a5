//! Latency-sorted assemblies (§IV-A-2 and §IV-A-3).

use crate::assembly::{zip_orderings, Assembler};
use crate::profile::BlockPool;
use crate::superblock::Superblock;

/// Which latency figure to sort blocks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortKey {
    /// Block erase latency (the paper's ERS-LTN direction).
    Erase,
    /// Block program-latency sum (the paper's PGM-LTN direction).
    Program,
}

/// Sorts each pool fast→slow by a latency key and zips: the i-th fastest
/// blocks of every chip form superblock i.
#[derive(Debug, Clone, Copy)]
pub struct LatencySortAssembly {
    key: SortKey,
}

impl LatencySortAssembly {
    /// An assembly sorting by the given key.
    #[must_use]
    pub fn new(key: SortKey) -> Self {
        LatencySortAssembly { key }
    }
}

impl Assembler for LatencySortAssembly {
    fn name(&self) -> String {
        match self.key {
            SortKey::Erase => "ERS-LTN".to_string(),
            SortKey::Program => "PGM-LTN".to_string(),
        }
    }

    fn assemble(&mut self, pool: &BlockPool) -> Vec<Superblock> {
        let orderings = (0..pool.pool_count())
            .map(|p| {
                let blocks = pool.pool(p);
                let mut order: Vec<usize> = (0..blocks.len()).collect();
                order.sort_by(|&a, &b| {
                    let (ka, kb) = match self.key {
                        SortKey::Erase => (blocks[a].tbers_us(), blocks[b].tbers_us()),
                        SortKey::Program => (blocks[a].pgm_sum_us(), blocks[b].pgm_sum_us()),
                    };
                    ka.total_cmp(&kb).then(a.cmp(&b))
                });
                order
            })
            .collect();
        zip_orderings(pool, orderings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::test_support::*;

    #[test]
    fn produces_valid_assembly() {
        let pool = synthetic_pool(4, 10, 8);
        for key in [SortKey::Erase, SortKey::Program] {
            let sbs = LatencySortAssembly::new(key).assemble(&pool);
            assert_valid_assembly(&pool, &sbs);
        }
    }

    #[test]
    fn program_sort_orders_superblocks_fast_to_slow() {
        let pool = synthetic_pool(4, 10, 8);
        let sbs = LatencySortAssembly::new(SortKey::Program).assemble(&pool);
        // The first superblock's members are each pool's fastest block.
        for &m in &sbs[0].members {
            let p = pool.pool_of(m).unwrap();
            let min = pool.pool(p).iter().map(|b| b.pgm_sum_us()).fold(f64::INFINITY, f64::min);
            assert_eq!(pool.profile(m).unwrap().pgm_sum_us(), min);
        }
    }

    #[test]
    fn erase_sort_orders_by_tbers() {
        let pool = synthetic_pool(4, 10, 8);
        let sbs = LatencySortAssembly::new(SortKey::Erase).assemble(&pool);
        for &m in &sbs[0].members {
            let p = pool.pool_of(m).unwrap();
            let min = pool.pool(p).iter().map(|b| b.tbers_us()).fold(f64::INFINITY, f64::min);
            assert_eq!(pool.profile(m).unwrap().tbers_us(), min);
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(LatencySortAssembly::new(SortKey::Erase).name(), "ERS-LTN");
        assert_eq!(LatencySortAssembly::new(SortKey::Program).name(), "PGM-LTN");
    }
}
