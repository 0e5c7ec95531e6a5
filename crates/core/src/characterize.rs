//! Characterization drivers: collect [`BlockProfile`]s from flash.
//!
//! Two paths are provided:
//!
//! * [`Characterizer::characterize_array`] actually erases and programs
//!   every block through the stateful [`FlashArray`] — the faithful
//!   counterpart of the paper's testbed methodology (§VI-A);
//! * [`Characterizer::snapshot`] queries the latency model directly at a
//!   chosen P/E cycle — byte-identical results, orders of magnitude faster,
//!   used by the P/E sweep experiments (the paper's chamber-accelerated
//!   cycling).

use crate::fan_out;
use crate::profile::{BlockPool, BlockProfile};
use crate::Result;
use flash_model::{FlashArray, FlashConfig, Geometry, LatencyModel};

/// Collects per-block latency profiles for a whole array.
///
/// ```
/// use flash_model::{FlashArray, FlashConfig};
/// use pvcheck::Characterizer;
///
/// let config = FlashConfig::small_test();
/// let array = FlashArray::new(config.clone(), 3);
/// let pool = Characterizer::new(&config).snapshot(array.latency_model(), 0);
/// assert_eq!(pool.pool_count(), 4);
/// assert_eq!(pool.wl_count() as u32, config.geometry.lwls_per_block());
/// ```
#[derive(Debug, Clone)]
pub struct Characterizer {
    geometry: Geometry,
}

impl Characterizer {
    /// A characterizer for the given configuration.
    #[must_use]
    pub fn new(config: &FlashConfig) -> Self {
        Characterizer { geometry: config.geometry.clone() }
    }

    /// Number of pools this characterizer produces: one per chip/plane
    /// group ([`Geometry::chip_plane_index`] is a block's pool).
    #[must_use]
    pub fn pool_count(&self) -> usize {
        self.geometry.chip_plane_groups()
    }

    /// Erases and fully programs every block, recording `tBERS` and each
    /// word-line's `tPROG`.
    ///
    /// Every block endures exactly one P/E cycle. The page payload is a
    /// characterization pattern (zeros), as on the real testbed.
    ///
    /// Blocks that die mid-characterization (media failure on faulty
    /// arrays) are skipped; use
    /// [`Characterizer::characterize_array_tolerant`] to learn which.
    ///
    /// # Errors
    ///
    /// Propagates any non-media flash operation error.
    pub fn characterize_array(&self, array: &mut FlashArray) -> Result<BlockPool> {
        self.characterize_array_tolerant(array).map(|(pool, _)| pool)
    }

    /// [`Characterizer::characterize_array`], also reporting the blocks
    /// that failed a program or erase during the pass (a real testbed marks
    /// these bad and excludes them from the pools; an FTL should retire
    /// them). On healthy media the dead list is empty and the pool is
    /// identical to before.
    ///
    /// # Errors
    ///
    /// Propagates any non-media flash operation error (media failures are
    /// recorded, not raised).
    pub fn characterize_array_tolerant(
        &self,
        array: &mut FlashArray,
    ) -> Result<(BlockPool, Vec<flash_model::BlockAddr>)> {
        let geo = array.geometry().clone();
        let mut pool = BlockPool::new(self.pool_count(), geo.strings());
        let mut dead = Vec::new();
        let payload = vec![0u64; geo.pages_per_lwl() as usize];
        'blocks: for addr in geo.blocks() {
            let pe = array.pe_cycles(addr)?;
            let tbers = match array.erase_block(addr) {
                Ok(t) => t,
                Err(e) if e.is_media_failure() => {
                    dead.push(addr);
                    continue 'blocks;
                }
                Err(e) => return Err(e.into()),
            };
            let mut tprog = Vec::with_capacity(geo.lwls_per_block() as usize);
            for lwl in geo.lwls() {
                match array.program_wl(addr.wl(lwl), &payload) {
                    Ok(t) => tprog.push(t),
                    Err(e) if e.is_media_failure() => {
                        dead.push(addr);
                        continue 'blocks;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            pool.push(geo.chip_plane_index(addr), BlockProfile::new(addr, pe, tprog, tbers))?;
        }
        Ok((pool, dead))
    }

    /// Queries the latency model directly at P/E cycle `pe` for every block.
    ///
    /// Identical numbers to cycling a fresh array to `pe` and then calling
    /// [`Characterizer::characterize_array`] (erase is sampled at `pe`, the
    /// programs land at `pe + 1` — the cycle the erase opened).
    ///
    /// Each block is synthesized at once with
    /// [`LatencyModel::block_program_latencies_us`]: process variation is a
    /// static per-block trait, so the block's speed and pattern terms are
    /// drawn once and each layer's base and fast strings once per layer,
    /// leaving only the noise draw per word-line.
    ///
    /// The per-block work fans out over all available cores: the latency
    /// model is a pure function of `(seed, address, pe)`, so workers claim
    /// chunks of blocks as they finish the last, each profile lands at its
    /// block's place in geometry order, and the pools are filled in that
    /// order — the result is byte-identical to
    /// [`Characterizer::snapshot_serial`] (asserted by
    /// `snapshot_parallel_matches_serial`).
    #[must_use]
    pub fn snapshot(&self, model: &LatencyModel, pe: u32) -> BlockPool {
        self.snapshot_with_threads(model, pe, fan_out::available_workers())
    }

    /// [`Characterizer::snapshot`] on one thread (the reference path; also
    /// the fallback for single-core hosts).
    #[must_use]
    pub fn snapshot_serial(&self, model: &LatencyModel, pe: u32) -> BlockPool {
        self.snapshot_with_threads(model, pe, 1)
    }

    /// [`Characterizer::snapshot`] with an explicit worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn snapshot_with_threads(
        &self,
        model: &LatencyModel,
        pe: u32,
        threads: usize,
    ) -> BlockPool {
        assert!(threads > 0, "need at least one characterization thread");
        let geo = model.geometry();
        let addrs: Vec<flash_model::BlockAddr> = geo.blocks().collect();
        let mut profiles = vec![None; addrs.len()];
        fan_out::fill_rows(&mut profiles, 1, threads, |i, slot| {
            let addr = addrs[i];
            let tbers = model.erase_latency_us(addr, pe);
            let mut tprog = Vec::with_capacity(geo.lwls_per_block() as usize);
            tprog.extend(model.block_program_latencies_us(addr, pe + 1));
            slot[0] = Some(BlockProfile::new(addr, pe, tprog, tbers));
        });
        // `profiles` is in geometry order, so the pushes happen in exactly
        // the serial sequence.
        let mut pool = BlockPool::new(self.pool_count(), geo.strings());
        for profile in profiles.into_iter().flatten() {
            pool.push(geo.chip_plane_index(profile.addr()), profile)
                .expect("pool indices derive from the same geometry");
        }
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterize_covers_every_block() {
        let config = FlashConfig::small_test();
        let mut array = FlashArray::new(config.clone(), 5);
        let pool = Characterizer::new(&config).characterize_array(&mut array).unwrap();
        assert_eq!(pool.pool_count(), 4);
        assert_eq!(pool.len() as u64, config.geometry.total_blocks());
        assert_eq!(pool.wl_count() as u32, config.geometry.lwls_per_block());
        assert_eq!(pool.min_pool_len() as u32, config.geometry.blocks_per_plane());
    }

    #[test]
    fn snapshot_matches_array_characterization() {
        let config = FlashConfig::small_test();
        let mut array = FlashArray::new(config.clone(), 5);
        let chr = Characterizer::new(&config);
        let from_array = chr.characterize_array(&mut array).unwrap();
        let from_model = chr.snapshot(array.latency_model(), 0);
        for p in from_array.iter() {
            let q = from_model.profile(p.addr()).unwrap();
            assert_eq!(p.tprog_us(), q.tprog_us(), "block {}", p.addr());
            assert_eq!(p.tbers_us(), q.tbers_us());
        }
    }

    #[test]
    fn snapshot_at_higher_pe_differs() {
        let config = FlashConfig::small_test();
        let array = FlashArray::new(config.clone(), 5);
        let chr = Characterizer::new(&config);
        let p0 = chr.snapshot(array.latency_model(), 0);
        let p1k = chr.snapshot(array.latency_model(), 1000);
        let a = p0.iter().next().unwrap().addr();
        assert_ne!(p0.profile(a).unwrap().tprog_us(), p1k.profile(a).unwrap().tprog_us());
    }

    #[test]
    fn snapshot_parallel_matches_serial() {
        let config = FlashConfig::builder()
            .chips(2)
            .planes_per_chip(2)
            .blocks_per_plane(13)
            .pwl_layers(6)
            .strings(4)
            .build();
        let array = FlashArray::new(config.clone(), 7);
        let chr = Characterizer::new(&config);
        for pe in [0, 1500] {
            let serial = chr.snapshot_serial(array.latency_model(), pe);
            for threads in [2, 3, 8, 64] {
                let parallel = chr.snapshot_with_threads(array.latency_model(), pe, threads);
                assert_eq!(serial, parallel, "threads={threads} pe={pe}");
            }
            assert_eq!(serial, chr.snapshot(array.latency_model(), pe));
        }
    }

    #[test]
    fn tolerant_characterization_skips_dying_blocks() {
        use flash_model::FaultConfig;
        let config = FlashConfig::small_test();
        // Aggressive rates so the single pass certainly loses blocks.
        let fault =
            FaultConfig { program_fail_prob: 0.01, erase_fail_prob: 0.1, ..FaultConfig::default() };
        let mut array = FlashArray::with_faults(config.clone(), 17, fault);
        let chr = Characterizer::new(&config);
        let (pool, dead) = chr.characterize_array_tolerant(&mut array).unwrap();
        assert!(!dead.is_empty(), "10% erase failures must kill some block");
        assert_eq!(pool.len() as u64 + dead.len() as u64, config.geometry.total_blocks());
        for &addr in &dead {
            assert!(pool.profile(addr).is_none(), "dead block {addr} must not be pooled");
        }
    }

    #[test]
    fn tolerant_pass_on_healthy_media_reports_nothing_dead() {
        let config = FlashConfig::small_test();
        let mut array = FlashArray::new(config.clone(), 5);
        let chr = Characterizer::new(&config);
        let (pool, dead) = chr.characterize_array_tolerant(&mut array).unwrap();
        assert!(dead.is_empty());
        assert_eq!(pool.len() as u64, config.geometry.total_blocks());
    }

    #[test]
    fn profiles_record_pe_cycle() {
        let config = FlashConfig::small_test();
        let chr = Characterizer::new(&config);
        let array = FlashArray::new(config, 5);
        let pool = chr.snapshot(array.latency_model(), 500);
        assert!(pool.iter().all(|p| p.pe() == 500));
    }

    #[test]
    fn multi_plane_geometry_gets_one_pool_per_plane() {
        let config = FlashConfig::builder()
            .chips(2)
            .planes_per_chip(2)
            .blocks_per_plane(4)
            .pwl_layers(4)
            .strings(4)
            .build();
        let chr = Characterizer::new(&config);
        assert_eq!(chr.pool_count(), 4);
        let array = FlashArray::new(config, 1);
        let pool = chr.snapshot(array.latency_model(), 0);
        assert_eq!(pool.pool_count(), 4);
        assert_eq!(pool.min_pool_len(), 4);
    }
}
