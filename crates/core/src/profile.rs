//! Characterization data: per-block latency profiles and pools of them.

use crate::eigen::EigenSequence;
use crate::error::PvError;
use crate::rank;
use crate::Result;
use flash_model::BlockAddr;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};

/// Full characterization of one block at one P/E point: the per-word-line
/// program latencies and the block erase latency.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockProfile {
    addr: BlockAddr,
    pe: u32,
    tprog_us: Vec<f64>,
    tbers_us: f64,
    pgm_sum_us: f64,
}

impl BlockProfile {
    /// Builds a profile; the program-latency sum (the paper's *BLK PGM LTN*)
    /// is computed once here.
    ///
    /// # Panics
    ///
    /// Panics if `tprog_us` is empty.
    #[must_use]
    pub fn new(addr: BlockAddr, pe: u32, tprog_us: Vec<f64>, tbers_us: f64) -> Self {
        assert!(!tprog_us.is_empty(), "a block profile needs at least one word-line");
        let pgm_sum_us = tprog_us.iter().sum();
        BlockProfile { addr, pe, tprog_us, tbers_us, pgm_sum_us }
    }

    /// Physical address of the block.
    #[must_use]
    pub fn addr(&self) -> BlockAddr {
        self.addr
    }

    /// P/E cycle at which the profile was collected.
    #[must_use]
    pub fn pe(&self) -> u32 {
        self.pe
    }

    /// Program latency of each logical word-line, layer-major, µs.
    #[must_use]
    pub fn tprog_us(&self) -> &[f64] {
        &self.tprog_us
    }

    /// Block erase latency, µs.
    #[must_use]
    pub fn tbers_us(&self) -> f64 {
        self.tbers_us
    }

    /// Sum of all word-line program latencies (*BLK PGM LTN*), µs.
    #[must_use]
    pub fn pgm_sum_us(&self) -> f64 {
        self.pgm_sum_us
    }

    /// Number of logical word-lines in the profile.
    #[must_use]
    pub fn wl_count(&self) -> usize {
        self.tprog_us.len()
    }

    /// The compact summary QSTR-MED keeps per block: program-latency sum
    /// plus the STR-median eigen sequence.
    #[must_use]
    pub fn summary(&self, strings: u16) -> BlockSummary {
        BlockSummary {
            addr: self.addr,
            pgm_sum_us: self.pgm_sum_us,
            eigen: rank::str_median_eigen(&self.tprog_us, strings),
        }
    }
}

/// The per-block metadata QSTR-MED maintains at runtime (§V-B): one scalar
/// and one bit per word-line — 52 bytes for the paper's 384-WL blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSummary {
    /// Physical address of the block.
    pub addr: BlockAddr,
    /// Sum of word-line program latencies, µs.
    pub pgm_sum_us: f64,
    /// STR-median eigen sequence (bit per logical word-line).
    pub eigen: EigenSequence,
}

/// Profiles of many blocks organized into pools: assembling a superblock
/// means picking exactly one block from each pool.
///
/// In the paper's platform a pool is one plane's worth of blocks on one
/// chip; any partition works as long as members of one superblock must come
/// from distinct pools.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockPool {
    strings: u16,
    pools: Vec<Vec<BlockProfile>>,
    index: HashMap<BlockAddr, (usize, usize), AddrHashing>,
}

/// Builds [`AddrHasher`]s for [`BlockPool`]'s index. Evaluation looks a
/// profile up for every member of every superblock; an address packs into
/// one word, so one finalizer round hashes it where SipHash runs several.
/// The word is XORed with a random key per index, so addresses read from
/// a crafted profile file cannot aim at one bucket.
#[derive(Debug, Clone)]
struct AddrHashing {
    key: u64,
}

impl Default for AddrHashing {
    fn default() -> Self {
        AddrHashing { key: RandomState::new().build_hasher().finish() }
    }
}

impl BuildHasher for AddrHashing {
    type Hasher = AddrHasher;

    fn build_hasher(&self) -> AddrHasher {
        AddrHasher(self.key)
    }
}

/// Packs the fields it is fed into one word, XORed onto the key it starts
/// from, and mixes that word with the splitmix64 finalizer, a bijection.
#[derive(Debug)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u16(&mut self, x: u16) {
        self.0 = self.0.rotate_left(16) ^ u64::from(x);
    }

    fn write_u32(&mut self, x: u32) {
        self.0 = self.0.rotate_left(32) ^ u64::from(x);
    }

    fn finish(&self) -> u64 {
        let z = self.0;
        let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl BlockPool {
    /// Creates an empty pool set.
    ///
    /// `strings` is needed to derive string-oriented rankings from profiles.
    #[must_use]
    pub fn new(pool_count: usize, strings: u16) -> Self {
        BlockPool { strings, pools: vec![Vec::new(); pool_count], index: HashMap::default() }
    }

    /// Number of strings per block.
    #[must_use]
    pub fn strings(&self) -> u16 {
        self.strings
    }

    /// Number of pools.
    #[must_use]
    pub fn pool_count(&self) -> usize {
        self.pools.len()
    }

    /// Blocks of one pool.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is out of range.
    #[must_use]
    pub fn pool(&self, pool: usize) -> &[BlockProfile] {
        &self.pools[pool]
    }

    /// Size of the smallest pool — the number of whole superblocks that can
    /// be assembled.
    #[must_use]
    pub fn min_pool_len(&self) -> usize {
        self.pools.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Adds a profile to a pool.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::PoolOutOfRange`] if the pool index does not exist
    /// and [`PvError::MismatchedWlCount`] if the profile's word-line count
    /// differs from blocks already present.
    pub fn push(&mut self, pool: usize, profile: BlockProfile) -> Result<()> {
        if pool >= self.pools.len() {
            return Err(PvError::PoolOutOfRange { pool, pools: self.pools.len() });
        }
        if let Some(first) = self.pools.iter().flatten().next() {
            if first.wl_count() != profile.wl_count() {
                return Err(PvError::MismatchedWlCount {
                    expected: first.wl_count(),
                    got: profile.wl_count(),
                });
            }
        }
        self.index.insert(profile.addr(), (pool, self.pools[pool].len()));
        self.pools[pool].push(profile);
        Ok(())
    }

    /// Profile of a block by address.
    #[must_use]
    pub fn profile(&self, addr: BlockAddr) -> Option<&BlockProfile> {
        self.index.get(&addr).map(|&(p, i)| &self.pools[p][i])
    }

    /// Pool a block belongs to.
    #[must_use]
    pub fn pool_of(&self, addr: BlockAddr) -> Option<usize> {
        self.index.get(&addr).map(|&(p, _)| p)
    }

    /// Word-lines per block, or 0 if the pool set is empty.
    #[must_use]
    pub fn wl_count(&self) -> usize {
        self.pools.iter().flatten().next().map_or(0, BlockProfile::wl_count)
    }

    /// Iterator over every profile.
    pub fn iter(&self) -> impl Iterator<Item = &BlockProfile> {
        self.pools.iter().flatten()
    }

    /// Total number of profiles across pools.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pools.iter().map(Vec::len).sum()
    }

    /// Whether no profiles have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_model::{BlockId, ChipId, PlaneId};

    fn addr(c: u16, b: u32) -> BlockAddr {
        BlockAddr::new(ChipId(c), PlaneId(0), BlockId(b))
    }

    fn profile(c: u16, b: u32, base: f64) -> BlockProfile {
        BlockProfile::new(addr(c, b), 0, vec![base, base + 1.0, base + 2.0, base + 3.0], 3000.0)
    }

    #[test]
    fn pgm_sum_is_cached_sum() {
        let p = profile(0, 0, 100.0);
        assert_eq!(p.pgm_sum_us(), 406.0);
        assert_eq!(p.wl_count(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one word-line")]
    fn empty_profile_rejected() {
        let _ = BlockProfile::new(addr(0, 0), 0, vec![], 1.0);
    }

    #[test]
    fn pool_push_and_lookup() {
        let mut pool = BlockPool::new(2, 4);
        pool.push(0, profile(0, 5, 10.0)).unwrap();
        pool.push(1, profile(1, 7, 20.0)).unwrap();
        assert_eq!(pool.pool_count(), 2);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.min_pool_len(), 1);
        assert_eq!(pool.profile(addr(1, 7)).unwrap().pgm_sum_us(), 86.0);
        assert_eq!(pool.pool_of(addr(0, 5)), Some(0));
        assert_eq!(pool.profile(addr(3, 3)), None);
    }

    #[test]
    fn pool_rejects_bad_index() {
        let mut pool = BlockPool::new(1, 4);
        let err = pool.push(3, profile(0, 0, 1.0)).unwrap_err();
        assert_eq!(err, PvError::PoolOutOfRange { pool: 3, pools: 1 });
    }

    #[test]
    fn pool_rejects_mismatched_wl_counts() {
        let mut pool = BlockPool::new(1, 4);
        pool.push(0, profile(0, 0, 1.0)).unwrap();
        let bad = BlockProfile::new(addr(0, 1), 0, vec![1.0], 1.0);
        let err = pool.push(0, bad).unwrap_err();
        assert_eq!(err, PvError::MismatchedWlCount { expected: 4, got: 1 });
    }

    #[test]
    fn min_pool_len_tracks_smallest() {
        let mut pool = BlockPool::new(2, 4);
        pool.push(0, profile(0, 0, 1.0)).unwrap();
        pool.push(0, profile(0, 1, 2.0)).unwrap();
        pool.push(1, profile(1, 0, 3.0)).unwrap();
        assert_eq!(pool.min_pool_len(), 1);
    }

    #[test]
    fn summary_carries_sum_and_eigen() {
        let p = profile(0, 0, 100.0);
        let s = p.summary(4);
        assert_eq!(s.pgm_sum_us, p.pgm_sum_us());
        assert_eq!(s.eigen.len(), 4);
        assert_eq!(s.addr, p.addr());
    }
}
