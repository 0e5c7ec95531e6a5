//! Free-block pools and superblock organization strategies.

use crate::active::Purpose;
use crate::config::{OrganizationScheme, QosClass};
use flash_model::{BlockAddr, Geometry};
use pvcheck::assembly::QstrMed;
use pvcheck::{BlockSummary, SpeedClass};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet};

/// The pool-ranking half of the QoS placement hook: which end of the
/// process-variation-sorted free lists a write's open superblock is
/// assembled from ([`BlockManager::allocate`] takes the result).
///
/// Function-based placement (§V-D generalized per tenant):
/// `LatencyCritical` and `Standard` host writes take fast-ranked
/// superblocks, `Background` host writes and GC relocations take the slow
/// end — GC stays pinned to the slowest pool exactly as in the paper.
pub(crate) fn speed_class_for(purpose: Purpose) -> SpeedClass {
    match purpose {
        Purpose::Gc | Purpose::Host(QosClass::Background) => SpeedClass::Slow,
        Purpose::Host(QosClass::LatencyCritical | QosClass::Standard) => SpeedClass::Fast,
    }
}

/// Owns the free blocks of every chip pool and assembles superblocks from
/// them according to the configured [`OrganizationScheme`].
///
/// Blocks whose process-variation summary is known (from pre-
/// characterization or a completed program cycle) live inside the QSTR-MED
/// state when that scheme is active; blocks never yet observed live in
/// plain per-pool lists and are grouped blindly until they earn a summary.
#[derive(Debug)]
pub struct BlockManager {
    scheme: OrganizationScheme,
    /// The geometry whose chip/plane groups are the pools.
    geo: Geometry,
    /// Free blocks without a usable summary (or all free blocks for the
    /// non-QSTR schemes), kept sorted by block index.
    unknown: Vec<Vec<BlockAddr>>,
    /// QSTR-MED sorted lists + eigen store (used when the scheme is QstrMed).
    qstr: QstrMed,
    /// Last known summary of every block ever observed.
    summaries: HashMap<BlockAddr, BlockSummary>,
    /// Bad-block table: blocks permanently removed from service after a
    /// program/erase media failure. They are never handed out again and
    /// [`BlockManager::free`] silently drops them.
    retired: HashSet<BlockAddr>,
    rng: StdRng,
}

impl BlockManager {
    /// A manager with every block of the geometry free and unobserved.
    #[must_use]
    pub fn new(geo: &Geometry, scheme: OrganizationScheme, seed: u64) -> Self {
        let candidates = match scheme {
            OrganizationScheme::QstrMed { candidates } => candidates,
            _ => 4,
        };
        let mut unknown = vec![Vec::new(); geo.chip_plane_groups()];
        for addr in geo.blocks() {
            unknown[geo.chip_plane_index(addr)].push(addr);
        }
        for pool in &mut unknown {
            pool.sort_by_key(|a| a.block);
        }
        BlockManager {
            scheme,
            geo: geo.clone(),
            unknown,
            qstr: QstrMed::with_candidates(candidates),
            summaries: HashMap::new(),
            retired: HashSet::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Pool index of a block.
    #[must_use]
    pub fn pool_of(&self, addr: BlockAddr) -> usize {
        self.geo.chip_plane_index(addr)
    }

    fn uses_qstr(&self) -> bool {
        matches!(self.scheme, OrganizationScheme::QstrMed { .. })
    }

    /// Records what was learned about a block (its summary survives across
    /// free/claim cycles).
    pub fn learn(&mut self, summary: BlockSummary) {
        self.summaries.insert(summary.addr, summary);
    }

    /// Whether a block's traits are known.
    #[must_use]
    pub fn knows(&self, addr: BlockAddr) -> bool {
        self.summaries.contains_key(&addr)
    }

    /// Free blocks in pool `p` (both known and unknown).
    #[must_use]
    pub fn free_in_pool(&self, p: usize) -> usize {
        let known = if self.uses_qstr() { self.qstr.pool_len(p) } else { 0 };
        self.unknown[p].len() + known
    }

    /// How many whole superblocks can still be assembled from free blocks.
    ///
    /// This is a conservative count: pure-known and pure-unknown assemblies
    /// only (a mixed assembly is also possible but rare).
    #[must_use]
    pub fn assemblable(&self) -> usize {
        (0..self.geo.chip_plane_groups()).map(|p| self.free_in_pool(p)).min().unwrap_or(0)
    }

    /// Permanently removes a block from service (bad-block table). The
    /// block is scrubbed from the free pools and every later
    /// [`BlockManager::free`] of it is ignored.
    pub fn retire(&mut self, addr: BlockAddr) {
        if !self.retired.insert(addr) {
            return;
        }
        // Blocks normally fail while claimed, but scrub the free lists
        // defensively in case a pooled block is retired directly.
        let pool = self.pool_of(addr);
        self.unknown[pool].retain(|&a| a != addr);
        self.summaries.remove(&addr);
    }

    /// Whether a block sits in the bad-block table.
    #[must_use]
    pub fn is_retired(&self, addr: BlockAddr) -> bool {
        self.retired.contains(&addr)
    }

    /// Blocks retired so far.
    #[must_use]
    pub fn retired_count(&self) -> usize {
        self.retired.len()
    }

    /// Claims a *specific* block out of the free pools (recovery rebuilding
    /// superblock membership from scanned OOB metadata). Returns whether
    /// the block was found free. Must run before any summaries are promoted
    /// into the QSTR-MED lists — on a freshly built manager every free
    /// block still sits in the unknown pools.
    pub fn claim(&mut self, addr: BlockAddr) -> bool {
        let pool = self.pool_of(addr);
        if let Some(i) = self.unknown[pool].iter().position(|&a| a == addr) {
            self.unknown[pool].remove(i);
            return true;
        }
        false
    }

    /// Claims one free block from pool `p` to replace a failed superblock
    /// member (re-assembly from the pool). Prefers unobserved blocks;
    /// under QSTR-MED falls back to the fastest characterized one.
    pub fn take_from_pool(&mut self, p: usize) -> Option<BlockAddr> {
        if !self.unknown[p].is_empty() {
            return Some(self.unknown[p].remove(0));
        }
        if self.uses_qstr() {
            return self.qstr.take_fastest(p);
        }
        None
    }

    /// Returns a block to the free state under the summary it last earned
    /// (learned when its superblock sealed), if any. Retired blocks are
    /// dropped, never re-pooled.
    pub fn free(&mut self, addr: BlockAddr) {
        if self.retired.contains(&addr) {
            return;
        }
        let pool = self.pool_of(addr);
        if self.uses_qstr() {
            if let Some(s) = self.summaries.get(&addr) {
                self.qstr.insert(pool, s.clone());
                return;
            }
        }
        let pos = self.unknown[pool].partition_point(|a| a.block <= addr.block);
        self.unknown[pool].insert(pos, addr);
    }

    /// Assembles one superblock of the requested class, claiming its
    /// members. Returns `None` when some pool has no free block.
    pub fn allocate(&mut self, class: SpeedClass) -> Option<Vec<BlockAddr>> {
        match self.scheme {
            OrganizationScheme::Random => {
                if self.unknown.iter().any(Vec::is_empty) {
                    return None;
                }
                let mut members = Vec::with_capacity(self.geo.chip_plane_groups());
                for pool in &mut self.unknown {
                    let idx = self.rng.random_range(0..pool.len());
                    members.push(pool.remove(idx));
                }
                Some(members)
            }
            OrganizationScheme::Sequential => {
                if self.unknown.iter().any(Vec::is_empty) {
                    return None;
                }
                Some(self.unknown.iter_mut().map(|pool| pool.remove(0)).collect())
            }
            OrganizationScheme::QstrMed { .. } => {
                if let Some(sb) = self.qstr.assemble_on_demand(class) {
                    return Some(sb.members);
                }
                // Warm-up: not enough characterized blocks everywhere; fall
                // back to blind grouping, mixing in known blocks where a
                // pool has no unobserved ones left.
                if (0..self.geo.chip_plane_groups()).all(|p| self.free_in_pool(p) > 0) {
                    let mut members = Vec::with_capacity(self.geo.chip_plane_groups());
                    for p in 0..self.geo.chip_plane_groups() {
                        let addr = if self.unknown[p].is_empty() {
                            self.qstr.take_fastest(p).expect("pool has a known free block")
                        } else {
                            self.unknown[p].remove(0)
                        };
                        members.push(addr);
                    }
                    return Some(members);
                }
                None
            }
        }
    }

    /// Moves free "unknown" blocks whose summaries have since been learned
    /// into the QSTR-MED sorted lists (no-op for the other schemes).
    pub fn promote_known(&mut self) {
        if !self.uses_qstr() {
            return;
        }
        for p in 0..self.geo.chip_plane_groups() {
            let pool = std::mem::take(&mut self.unknown[p]);
            for addr in pool {
                if let Some(s) = self.summaries.get(&addr) {
                    self.qstr.insert(p, s.clone());
                } else {
                    self.unknown[p].push(addr);
                }
            }
        }
    }

    /// Total QSTR-MED eigen distance checks so far (computing overhead).
    #[must_use]
    pub fn distance_checks(&self) -> u64 {
        self.qstr.distance_checks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_model::FlashConfig;
    use pvcheck::Characterizer;

    fn geo() -> Geometry {
        Geometry::new(4, 1, 8, 4, 4, flash_model::CellType::Tlc)
    }

    #[test]
    fn qos_placement_maps_classes_onto_the_ranking_ends() {
        // Latency-critical and standard host writes take the fast end;
        // background host writes share the slow end with GC.
        assert_eq!(speed_class_for(Purpose::Host(QosClass::LatencyCritical)), SpeedClass::Fast);
        assert_eq!(speed_class_for(Purpose::Host(QosClass::Standard)), SpeedClass::Fast);
        assert_eq!(speed_class_for(Purpose::Host(QosClass::Background)), SpeedClass::Slow);
        assert_eq!(speed_class_for(Purpose::Gc), SpeedClass::Slow);
    }

    #[test]
    fn starts_with_everything_free() {
        let m = BlockManager::new(&geo(), OrganizationScheme::Random, 0);
        assert_eq!(m.assemblable(), 8);
    }

    #[test]
    fn random_allocation_claims_one_per_pool() {
        let mut m = BlockManager::new(&geo(), OrganizationScheme::Random, 0);
        let members = m.allocate(SpeedClass::Fast).unwrap();
        assert_eq!(members.len(), 4);
        let chips: std::collections::HashSet<u16> = members.iter().map(|a| a.chip.0).collect();
        assert_eq!(chips.len(), 4);
        assert_eq!(m.assemblable(), 7);
    }

    #[test]
    fn sequential_allocation_takes_lowest_indices() {
        let mut m = BlockManager::new(&geo(), OrganizationScheme::Sequential, 0);
        let members = m.allocate(SpeedClass::Fast).unwrap();
        assert!(members.iter().all(|a| a.block.0 == 0));
        let members = m.allocate(SpeedClass::Fast).unwrap();
        assert!(members.iter().all(|a| a.block.0 == 1));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut m = BlockManager::new(&geo(), OrganizationScheme::Sequential, 0);
        for _ in 0..8 {
            assert!(m.allocate(SpeedClass::Fast).is_some());
        }
        assert!(m.allocate(SpeedClass::Fast).is_none());
        assert_eq!(m.assemblable(), 0);
    }

    #[test]
    fn free_makes_blocks_allocatable_again() {
        let mut m = BlockManager::new(&geo(), OrganizationScheme::Sequential, 0);
        let members = m.allocate(SpeedClass::Fast).unwrap();
        for a in members {
            m.free(a);
        }
        assert_eq!(m.assemblable(), 8);
    }

    #[test]
    fn retired_blocks_never_return_to_service() {
        let mut m = BlockManager::new(&geo(), OrganizationScheme::Sequential, 0);
        let members = m.allocate(SpeedClass::Fast).unwrap();
        let dead = members[0];
        m.retire(dead);
        assert!(m.is_retired(dead));
        assert_eq!(m.retired_count(), 1);
        for a in members {
            m.free(a); // the retired one is silently dropped
        }
        while let Some(sb) = m.allocate(SpeedClass::Fast) {
            assert!(!sb.contains(&dead), "retired block was handed out again");
        }
        m.retire(dead); // idempotent
        assert_eq!(m.retired_count(), 1);
    }

    #[test]
    fn claim_removes_a_specific_block() {
        let mut m = BlockManager::new(&geo(), OrganizationScheme::Sequential, 0);
        let target = BlockAddr::new(
            flash_model::ChipId(2),
            flash_model::PlaneId(0),
            flash_model::BlockId(5),
        );
        let before = m.free_in_pool(m.pool_of(target));
        assert!(m.claim(target));
        assert_eq!(m.free_in_pool(m.pool_of(target)), before - 1);
        assert!(!m.claim(target), "already claimed");
        m.free(target);
        assert!(m.claim(target), "free makes it claimable again");
    }

    #[test]
    fn take_from_pool_supplies_replacements_until_dry() {
        let mut m = BlockManager::new(&geo(), OrganizationScheme::Sequential, 0);
        let r = m.take_from_pool(0).unwrap();
        assert_eq!(m.pool_of(r), 0);
        while m.take_from_pool(0).is_some() {}
        assert_eq!(m.free_in_pool(0), 0);
        assert!(m.allocate(SpeedClass::Fast).is_none(), "pool 0 is dry");
    }

    #[test]
    fn retire_scrubs_free_pools_defensively() {
        let mut m = BlockManager::new(&geo(), OrganizationScheme::Sequential, 0);
        let victim = m.take_from_pool(0).unwrap();
        m.free(victim);
        let before = m.free_in_pool(0);
        m.retire(victim);
        assert_eq!(m.free_in_pool(0), before - 1);
    }

    #[test]
    fn qstr_scheme_warms_up_blindly_then_uses_summaries() {
        let config =
            FlashConfig::builder().chips(4).blocks_per_plane(8).pwl_layers(4).strings(4).build();
        let mut m =
            BlockManager::new(&config.geometry, OrganizationScheme::QstrMed { candidates: 4 }, 0);
        // Cold: falls back to blind grouping.
        let first = m.allocate(SpeedClass::Fast).unwrap();
        assert_eq!(first.len(), 4);
        assert_eq!(m.distance_checks(), 0, "no summaries yet");

        // Teach it every remaining block via a characterization snapshot.
        let chr = Characterizer::new(&config);
        let array = flash_model::FlashArray::new(config.clone(), 3);
        let pool = chr.snapshot(array.latency_model(), 0);
        for p in pool.iter() {
            m.learn(p.summary(4));
        }
        // Return the first four and re-allocate: now goes through QSTR-MED.
        for a in first {
            m.free(a);
        }
        let second = m.allocate(SpeedClass::Fast).unwrap();
        assert_eq!(second.len(), 4);
        assert!(m.distance_checks() > 0, "eigen matching should have run");
    }

    #[test]
    fn learned_summary_survives_free_claim_cycle() {
        let config =
            FlashConfig::builder().chips(2).blocks_per_plane(4).pwl_layers(4).strings(4).build();
        let mut m =
            BlockManager::new(&config.geometry, OrganizationScheme::QstrMed { candidates: 2 }, 0);
        let chr = Characterizer::new(&config);
        let array = flash_model::FlashArray::new(config.clone(), 3);
        let pool = chr.snapshot(array.latency_model(), 0);
        let profile = pool.iter().next().unwrap();
        m.learn(profile.summary(4));
        assert!(m.knows(profile.addr()));
    }
}
