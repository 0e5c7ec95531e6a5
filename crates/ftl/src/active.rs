//! The write path: the [`Writer`]'s open (actively written) superblocks —
//! staging buffer, super word-line write pointer and runtime gathering —
//! and the block manager they are assembled from, plus the placement hook
//! that maps a write's purpose (tenant QoS class or GC) to its slot.

use crate::config::{FtlConfig, QosClass};
use crate::error::FtlError;
use crate::gc::{Collector, SealedSuperblock};
use crate::integrity::Integrity;
use crate::manager::{speed_class_for, BlockManager};
use crate::mapping::Mapping;
use crate::media::Media;
use crate::parity;
use crate::recovery::Spor;
use crate::stats::SsdStats;
use crate::Result;
use flash_model::{
    BlockAddr, BlockSummaryRecord, FlashArray, Geometry, MpOutcome, PageAddr, PageOob, PageType,
    SealRecord, WlAddr,
};
use pvcheck::gather::BlockGatherer;
use pvcheck::{BlockSummary, Characterizer, EigenSequence, SpeedClass};

/// Payload tag marking a padding page that stores no logical data.
pub(crate) const FILLER: u64 = u64::MAX;

/// Who generated a write — the placement key. Host writes carry their
/// tenant's QoS class; GC relocations form their own purpose so they stay
/// pinned to the slowest pool (§V-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Purpose {
    /// A host write of the given latency class.
    Host(QosClass),
    /// A garbage-collection (or refresh) relocation.
    Gc,
}

/// Every purpose, in flush/checkpoint iteration order. The order is
/// append-only: `[standard-host, gc]` lead so a device that never uses the
/// QoS slots iterates exactly the pre-QoS `[host_active, gc_active]` pair
/// and stays bit-identical to it.
pub(crate) const PURPOSES: [Purpose; 4] = [
    Purpose::Host(QosClass::Standard),
    Purpose::Gc,
    Purpose::Host(QosClass::LatencyCritical),
    Purpose::Host(QosClass::Background),
];

/// The write path: the open superblocks, one slot per placement target in
/// [`PURPOSES`] order, and the block manager they are assembled from.
///
/// This is the per-tenant half of the placement hook: [`Writer::slot`]
/// picks which open superblock a write streams into (so tenants of
/// different classes never interleave pages in one super word-line), while
/// [`crate::manager::speed_class_for`] picks which end of the
/// process-variation ranking that superblock is assembled from.
#[derive(Debug)]
pub(crate) struct Writer {
    slots: [Option<ActiveSuperblock>; PURPOSES.len()],
    manager: BlockManager,
    /// Whether every super word-line reserves a parity slot.
    parity: bool,
    /// Construction seed, kept so recovery can rebuild the block manager
    /// with the identical derived RNG stream.
    seed: u64,
    /// Reusable buffer of a block's live pages for relocation: the
    /// valid-page iterator borrows the mapping, which the writes mutate.
    pub(crate) scratch: Vec<(u64, PageAddr)>,
}

/// What a write borrows from the device besides the [`Writer`]: the flash,
/// the mapping, SPOR, the write times, the sealed list, the counters and
/// the device clock, µs, which nothing on the write path moves.
pub(crate) struct Parts<'a> {
    pub(crate) media: &'a mut Media,
    pub(crate) mapping: &'a mut Mapping,
    pub(crate) spor: &'a mut Spor,
    pub(crate) integrity: &'a mut Integrity,
    pub(crate) collector: &'a mut Collector,
    pub(crate) stats: &'a mut SsdStats,
    pub(crate) clock: f64,
}

impl Writer {
    /// The write path over `array` as it stands, with no superblock open: a
    /// fresh block manager on `seed`'s derived stream with the bad blocks
    /// in `retired` out and every member of `sealed` claimed, then every
    /// summary the device knows learned — the pre-characterization pass
    /// when configured, then each persisted seal record — so QSTR-MED
    /// resumes without re-characterizing anything.
    pub(crate) fn new(
        config: &FtlConfig,
        array: &FlashArray,
        seed: u64,
        retired: &[BlockAddr],
        sealed: &[SealedSuperblock],
    ) -> Writer {
        let geo = array.geometry();
        let mut manager = BlockManager::new(geo, config.scheme, seed ^ 0x5eed);
        for &addr in retired {
            manager.retire(addr);
        }
        for &m in sealed.iter().flat_map(SealedSuperblock::members) {
            manager.claim(m);
        }
        if config.precharacterize {
            let pool = Characterizer::new(&config.flash).snapshot(array.latency_model(), 0);
            for profile in pool.iter() {
                manager.learn(profile.summary(geo.strings()));
            }
        }
        for s in array.seal_records().iter().flat_map(|record| &record.summaries) {
            manager.learn(BlockSummary {
                addr: s.addr,
                pgm_sum_us: s.pgm_sum_us,
                eigen: EigenSequence::from_bits(s.eigen_bits.iter().copied()),
            });
        }
        manager.promote_known();
        let parity = config.parity.enabled();
        Writer { slots: Default::default(), manager, parity, seed, scratch: Vec::new() }
    }

    /// The construction seed, which recovery rebuilds on.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The block manager superblocks are assembled from.
    pub(crate) fn manager(&self) -> &BlockManager {
        &self.manager
    }

    /// Returns a collected block to its free pool.
    pub(crate) fn free(&mut self, block: BlockAddr) {
        self.manager.free(block);
    }

    /// The open-superblock slots, in [`PURPOSES`] order.
    pub(crate) fn slots(&self) -> &[Option<ActiveSuperblock>] {
        &self.slots
    }

    /// The slot a write of `purpose` streams into.
    fn slot(&mut self, purpose: Purpose) -> &mut Option<ActiveSuperblock> {
        let index = match purpose {
            Purpose::Host(QosClass::Standard) => 0,
            Purpose::Gc => 1,
            Purpose::Host(QosClass::LatencyCritical) => 2,
            Purpose::Host(QosClass::Background) => 3,
        };
        &mut self.slots[index]
    }

    /// Replaces staged copies of `lpn` with filler in every slot (trim).
    pub(crate) fn discard_staged(&mut self, lpn: u64) {
        for a in self.slots.iter_mut().flatten() {
            a.discard_staged(lpn);
        }
    }

    /// Stages one page and programs/seals as needed; returns time spent.
    pub(crate) fn stage(&mut self, dev: &mut Parts, lpn: u64, purpose: Purpose) -> Result<f64> {
        let mut time = self.ensure_active(dev, purpose)?;
        let slot = self.slot(purpose);
        if slot.as_mut().expect("ensure_active filled the slot").stage(lpn) {
            let active = slot.take().expect("the slot was just staged into");
            self.program(dev, active, purpose, &mut time)?;
        }
        Ok(time)
    }

    /// Pads and programs any staged pages of `purpose`'s open superblock so
    /// everything buffered becomes durable; returns time spent.
    pub(crate) fn flush(&mut self, dev: &mut Parts, purpose: Purpose) -> Result<f64> {
        let Some(mut active) = self.slot(purpose).take_if(|a| a.has_staged_pages()) else {
            return Ok(0.0);
        };
        active.pad();
        let mut time = 0.0;
        if self.program(dev, active, purpose, &mut time)? {
            // The recovery writes may leave fresh pages staged; flush them
            // too so the durability contract of a flush holds.
            time += self.flush(dev, purpose)?;
        }
        Ok(time)
    }

    /// Programs `active`'s staged super word-line — the step a stage and a
    /// flush share — and accounts for it once: the new mappings, their
    /// write times, the program counters, then the seal or the restored
    /// slot, which the remap writes of a failed member stage into. Adds
    /// each time to `time` in order; returns whether any member failed.
    fn program(
        &mut self,
        dev: &mut Parts,
        mut active: ActiveSuperblock,
        purpose: Purpose,
        time: &mut f64,
    ) -> Result<bool> {
        let result = active.program_superwl(dev.media, dev.spor)?;
        for &(lpn, ppa) in &result.assignments {
            debug_assert_ne!(lpn, FILLER);
            dev.mapping.map(lpn, ppa);
        }
        dev.integrity.programmed(&result.assignments, dev.clock);
        dev.stats.superwl_programs += 1;
        dev.spor.count_superwl();
        dev.stats.extra_program_us += result.outcome.extra_us;
        *time += result.outcome.total_us;
        self.retire_or_restore(dev, active, purpose);
        if result.failures.is_empty() {
            return Ok(false);
        }
        *time += self.handle_program_failures(dev, result.failures, purpose)?;
        Ok(true)
    }

    /// Ensures an open superblock exists for `purpose`; returns time spent
    /// (allocation erase).
    ///
    /// A member whose erase fails is retired and replaced from its pool
    /// (the superblock is re-assembled); when the pool has nothing left the
    /// superblock starts degraded with fewer members.
    fn ensure_active(&mut self, dev: &mut Parts, purpose: Purpose) -> Result<f64> {
        if self.slot(purpose).is_some() {
            return Ok(0.0);
        }
        let class = speed_class_for(purpose);
        let members = self.manager.allocate(class).ok_or(FtlError::OutOfSpace)?;
        let mut ok_members = Vec::with_capacity(members.len());
        let mut member_us = Vec::with_capacity(members.len());
        let mut degraded = false;
        for m in members {
            let mut candidate = Some(m);
            while let Some(addr) = candidate {
                if dev.spor.op_fires() {
                    // Power died before this erase: the claimed blocks were
                    // never journaled as a superblock, so recovery simply
                    // finds them free again.
                    return Err(FtlError::PowerLoss);
                }
                match dev.media.erase(addr) {
                    Ok(t) => {
                        ok_members.push(addr);
                        member_us.push(t);
                        break;
                    }
                    Err(e) if e.is_media_failure() => {
                        self.retire_block(dev, addr);
                        candidate = self.manager.take_from_pool(self.manager.pool_of(addr));
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            degraded |= candidate.is_none();
        }
        if ok_members.is_empty() {
            return Err(FtlError::OutOfSpace);
        }
        if degraded {
            dev.stats.degraded_superblocks += 1;
        }
        let outcome = MpOutcome::from_members(member_us);
        dev.stats.superblock_erases += 1;
        dev.stats.extra_erase_us += outcome.extra_us;
        match class {
            SpeedClass::Fast => dev.stats.superblocks_assembled.0 += 1,
            SpeedClass::Slow => dev.stats.superblocks_assembled.1 += 1,
        }
        let sb_id = dev.spor.open_superblock(&ok_members);
        let geo = dev.media.array().geometry();
        let active = ActiveSuperblock::new(ok_members, sb_id, geo, self.parity);
        *self.slot(purpose) = Some(active);
        Ok(outcome.total_us)
    }

    /// Moves a block to the bad-block table.
    fn retire_block(&mut self, dev: &mut Parts, addr: BlockAddr) {
        self.manager.retire(addr);
        dev.spor.retire(addr);
        dev.stats.retired_blocks += 1;
    }

    /// Recovers from program-status failures: retires each failed block,
    /// rewrites the payload the failed program carried, and relocates any
    /// live pages stranded on the block's earlier word-lines (still readable
    /// in phase `Failed`). Returns time spent.
    fn handle_program_failures(
        &mut self,
        dev: &mut Parts,
        failures: Vec<FailedMember>,
        purpose: Purpose,
    ) -> Result<f64> {
        let mut time = 0.0;
        let mut scratch = std::mem::take(&mut self.scratch);
        for f in failures {
            self.retire_block(dev, f.addr);
            dev.stats.degraded_superblocks += 1;
            for lpn in f.payload {
                if lpn != FILLER {
                    time += self.stage(dev, lpn, purpose)?;
                    dev.stats.remapped_writes += 1;
                }
            }
            // Stranded live data: copy out before the block is abandoned.
            // Mapping::map self-cleans the old location when the new copy
            // programs, so no explicit invalidation is needed.
            scratch.clear();
            scratch.extend(dev.mapping.valid_in_block(f.addr));
            for &(lpn, ppa) in &scratch {
                let (tag, t_read) = dev.media.array().read_page(ppa)?;
                debug_assert_eq!(tag, lpn);
                dev.media.read(ppa.wl.block, t_read);
                time += t_read;
                time += self.stage(dev, lpn, purpose)?;
                dev.stats.remapped_writes += 1;
            }
        }
        scratch.clear();
        self.scratch = scratch;
        Ok(time)
    }

    /// Seals `active` when full, persisting its gathered summaries, or
    /// puts it back in `purpose`'s slot.
    fn retire_or_restore(&mut self, dev: &mut Parts, active: ActiveSuperblock, purpose: Purpose) {
        if active.members.is_empty() {
            // Every member failed: there is nothing to seal or write into.
            // The staged payload travelled out via the failure report, so
            // dropping the shell loses nothing; the next write re-assembles.
            return;
        }
        if active.is_full() {
            let members = active.members.clone();
            let sb_id = active.sb_id();
            let summaries = active.finish();
            // Persist the gathered QSTR-MED stats to the capacitor-backed
            // region: after a crash they restore the learned summaries
            // without re-characterizing any block.
            dev.media.persist_seal(SealRecord {
                sb_id,
                members: members.clone(),
                summaries: summaries
                    .iter()
                    .map(|s| BlockSummaryRecord {
                        addr: s.addr,
                        pgm_sum_us: s.pgm_sum_us,
                        eigen_bits: (0..s.eigen.len()).map(|i| s.eigen.get(i)).collect(),
                    })
                    .collect(),
            });
            for summary in summaries {
                self.manager.learn(summary);
            }
            dev.collector.seal(sb_id, members, Some(speed_class_for(purpose)));
        } else {
            *self.slot(purpose) = Some(active);
        }
    }
}

/// A superblock member whose word-line program reported status fail.
#[derive(Debug)]
pub(crate) struct FailedMember {
    /// The failed block (now in phase `Failed`; earlier word-lines remain
    /// readable for relocation).
    pub addr: BlockAddr,
    /// The page payloads the failed program was carrying, in page order
    /// (may include [`FILLER`]).
    pub payload: Vec<u64>,
}

/// Result of programming one super word-line, fault-aware: the surviving
/// members' assignments and command outcome, plus any members lost to
/// program-status failures (already dropped from the superblock).
#[derive(Debug)]
pub(crate) struct SuperwlProgram {
    /// `(lpn, physical page)` for every non-filler page that programmed.
    pub assignments: Vec<(u64, PageAddr)>,
    /// Command outcome over the surviving members.
    pub outcome: MpOutcome,
    /// Members that failed this program (empty on healthy media).
    pub failures: Vec<FailedMember>,
}

/// One open superblock being filled super-word-line by super-word-line.
#[derive(Debug)]
pub(crate) struct ActiveSuperblock {
    pub members: Vec<BlockAddr>,
    /// Superblock identity stamped into every page's OOB metadata.
    sb_id: u64,
    next_lwl: u32,
    lwls_per_block: u32,
    pages_per_lwl: u32,
    /// Whether every super word-line reserves its [`parity::slot`] for XOR
    /// parity over its siblings (RAIN).
    parity: bool,
    staging: Vec<u64>,
    gatherers: Vec<BlockGatherer>,
}

impl ActiveSuperblock {
    pub(crate) fn new(members: Vec<BlockAddr>, sb_id: u64, geo: &Geometry, parity: bool) -> Self {
        let (strings, layers) = (geo.strings(), geo.pwl_layers());
        let gatherers = members.iter().map(|&a| BlockGatherer::new(a, strings, layers)).collect();
        ActiveSuperblock {
            members,
            sb_id,
            next_lwl: 0,
            lwls_per_block: geo.lwls_per_block(),
            pages_per_lwl: geo.pages_per_lwl(),
            parity,
            staging: Vec::new(),
            gatherers,
        }
    }

    /// Superblock identity (matches the OOB `sb_id` of its pages).
    pub(crate) fn sb_id(&self) -> u64 {
        self.sb_id
    }

    /// Pages one super word-line holds.
    pub(crate) fn superwl_pages(&self) -> usize {
        self.members.len() * self.pages_per_lwl as usize
    }

    /// Host-data pages one super word-line holds: all of them, minus the
    /// reserved parity slot when parity is on.
    pub(crate) fn data_pages(&self) -> usize {
        self.superwl_pages() - usize::from(self.parity)
    }

    /// Whether every word-line has been programmed.
    pub(crate) fn is_full(&self) -> bool {
        self.next_lwl == self.lwls_per_block
    }

    /// Whether a staged (not yet programmed) copy of `lpn` exists.
    pub(crate) fn has_staged(&self, lpn: u64) -> bool {
        self.staging.contains(&lpn)
    }

    /// Stages one logical page; returns `true` when a full super word-line
    /// is buffered and must be programmed.
    pub(crate) fn stage(&mut self, lpn: u64) -> bool {
        debug_assert!(!self.is_full(), "staging into a full superblock");
        self.staging.push(lpn);
        self.staging.len() >= self.data_pages()
    }

    /// Replaces any staged copies of `lpn` with filler (trim of a buffered page).
    pub(crate) fn discard_staged(&mut self, lpn: u64) {
        for slot in self.staging.iter_mut().filter(|slot| **slot == lpn) {
            *slot = FILLER;
        }
    }

    /// Whether any pages await programming.
    pub(crate) fn has_staged_pages(&self) -> bool {
        !self.staging.is_empty()
    }

    /// Pads the staging buffer with filler pages up to one super word-line
    /// (less the parity slot, which [`Self::program_superwl`] fills).
    pub(crate) fn pad(&mut self) {
        let target = self.data_pages();
        while self.staging.len() < target {
            self.staging.push(FILLER);
        }
    }

    /// Programs the next super word-line from the staging buffer.
    ///
    /// Issues one word-line program per member (real multi-plane commands
    /// fail per-plane, so a member's program-status failure does not abort
    /// the others). Members that fail are dropped from the superblock —
    /// it keeps operating degraded — and returned in
    /// [`SuperwlProgram::failures`] so the caller can retire the block and
    /// remap the lost pages. On healthy media the latencies, outcome and
    /// assignments are bit-identical to a single multi-plane command.
    ///
    /// The staging buffer must hold exactly one super word-line (use
    /// [`Self::pad`]).
    ///
    /// Every page carries OOB metadata (LPN, a sequence number drawn here
    /// in assignment order, the superblock identity) programmed atomically
    /// with the payload, and `spor`'s crash countdown ticks once per member
    /// program. `media` charges each member's program to its chip as it
    /// completes. A firing crash marks the current member's word-line
    /// *torn* — completed members of this super word-line stay readable
    /// (and charged), the torn one exposes nothing — and returns
    /// [`FtlError::PowerLoss`] before any assignment is applied.
    ///
    /// # Errors
    ///
    /// Propagates non-media flash errors (which indicate FTL invariant
    /// bugs) and reports injected power loss as [`FtlError::PowerLoss`].
    pub(crate) fn program_superwl(
        &mut self,
        media: &mut Media,
        spor: &mut Spor,
    ) -> Result<SuperwlProgram> {
        debug_assert_eq!(self.staging.len(), self.data_pages());
        debug_assert!(!self.is_full());
        if self.parity {
            let xor = parity::tag(&self.staging);
            self.staging.push(xor);
        }
        debug_assert_eq!(self.staging.len(), self.superwl_pages());
        let ppl = self.pages_per_lwl as usize;
        let members = self.members.len();
        let parity_slot = self.parity.then(|| parity::slot(members, ppl));
        let lwl = flash_model::LwlId(self.next_lwl);
        let wls: Vec<WlAddr> = self.members.iter().map(|&m| m.wl(lwl)).collect();
        // Page-major striping: staged page `i` lands on member `i % members`
        // as page `i / members`, so consecutive host pages form a *superpage*
        // (one page per chip) and read back in parallel.
        let payloads: Vec<Vec<u64>> = (0..members)
            .map(|m| (0..ppl).map(|k| self.staging[k * members + m]).collect())
            .collect();
        let mut member_us = Vec::with_capacity(members);
        let mut survived = Vec::with_capacity(members);
        let mut failures = Vec::new();
        for (m, payload) in payloads.iter().enumerate() {
            if spor.op_fires() {
                // Power dies mid-program of this member: its word-line is
                // torn. Earlier members already completed — their pages
                // (with the newest sequence numbers) are readable, and
                // recovery must discard them because the host write that
                // spans this super word-line was never acknowledged.
                media.tear(wls[m])?;
                return Err(FtlError::PowerLoss);
            }
            let oob: Vec<PageOob> = payload
                .iter()
                .enumerate()
                .map(|(k, &lpn)| {
                    // The parity slot is identified by position, never by
                    // value: its XOR payload can collide with any tag.
                    let (lpn, seq) = match lpn {
                        _ if parity_slot == Some((m, k)) => (PageOob::PARITY_LPN, 0),
                        FILLER => (lpn, 0),
                        _ => (lpn, spor.next_seq()),
                    };
                    PageOob { lpn, seq, sb_id: self.sb_id, member_slot: m as u16 }
                })
                .collect();
            match media.program(wls[m], payload, &oob) {
                Ok(t) => {
                    member_us.push(t);
                    survived.push(m);
                }
                Err(e) if e.is_media_failure() => {
                    let mut payload = payload.clone();
                    if let Some((_, k)) = parity_slot.filter(|&(pm, _)| pm == m) {
                        // Never let the XOR tag be restaged as a logical page
                        // by the failure-relocation path.
                        payload[k] = FILLER;
                    }
                    failures.push(FailedMember { addr: self.members[m], payload });
                }
                Err(e) => return Err(e.into()),
            }
        }
        // Feed the surviving members' gatherers with observed latencies.
        for (&m, &lat) in survived.iter().zip(&member_us) {
            self.gatherers[m].record(self.next_lwl, lat).expect("gather follows program order");
        }
        // Compute page assignments for the pages that actually programmed.
        let cell = media.array().geometry().cell();
        let mut assignments = Vec::new();
        for &m in &survived {
            for k in 0..ppl {
                // Filler and the parity page are never mapped.
                let lpn = self.staging[k * members + m];
                if lpn != FILLER && parity_slot != Some((m, k)) {
                    let pt = PageType::from_index(cell, k as u32).expect("k < pages_per_lwl");
                    assignments.push((lpn, wls[m].page(pt)));
                }
            }
        }
        // Drop failed members: the superblock continues degraded.
        for f in &failures {
            if let Some(i) = self.members.iter().position(|&m| m == f.addr) {
                self.members.remove(i);
                self.gatherers.remove(i);
            }
        }
        self.staging.clear();
        self.next_lwl += 1;
        Ok(SuperwlProgram { assignments, outcome: MpOutcome::from_members(member_us), failures })
    }

    /// Consumes the superblock when full, yielding each member's gathered
    /// summary.
    pub(crate) fn finish(self) -> Vec<BlockSummary> {
        debug_assert!(self.is_full());
        self.gatherers
            .into_iter()
            .map(|g| g.finish().expect("full superblock implies complete gatherers"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::SporConfig;
    use flash_model::{BlockId, ChipId, FlashConfig, PlaneId};

    fn spor() -> Spor {
        Spor::new(&SporConfig::default())
    }

    fn setup() -> (Media, ActiveSuperblock) {
        let config =
            FlashConfig::builder().chips(4).blocks_per_plane(4).pwl_layers(2).strings(4).build();
        let mut media = Media::new(FlashArray::new(config, 1));
        let members: Vec<BlockAddr> =
            (0..4).map(|c| BlockAddr::new(ChipId(c), PlaneId(0), BlockId(0))).collect();
        for &m in &members {
            media.erase(m).unwrap();
        }
        let active = ActiveSuperblock::new(members, 0, media.array().geometry(), false);
        (media, active)
    }

    fn setup_parity() -> (Media, ActiveSuperblock) {
        let config =
            FlashConfig::builder().chips(4).blocks_per_plane(4).pwl_layers(2).strings(4).build();
        let mut media = Media::new(FlashArray::new(config, 1));
        let members: Vec<BlockAddr> =
            (0..4).map(|c| BlockAddr::new(ChipId(c), PlaneId(0), BlockId(0))).collect();
        for &m in &members {
            media.erase(m).unwrap();
        }
        let active = ActiveSuperblock::new(members, 0, media.array().geometry(), true);
        (media, active)
    }

    #[test]
    fn stage_reports_full_superwl() {
        let (_, mut a) = setup();
        assert_eq!(a.superwl_pages(), 12);
        for i in 0..11 {
            assert!(!a.stage(i));
        }
        assert!(a.stage(11));
    }

    #[test]
    fn program_assigns_every_non_filler_page() {
        let (mut media, mut a) = setup();
        for i in 0..11 {
            a.stage(i);
        }
        a.stage(FILLER);
        a.pad();
        let result = a.program_superwl(&mut media, &mut spor()).unwrap();
        assert_eq!(result.assignments.len(), 11);
        assert_eq!(result.outcome.member_us.len(), 4);
        assert!(result.outcome.extra_us >= 0.0);
        assert!(result.failures.is_empty(), "healthy media never fails");
        // Check one assignment is readable with the right tag.
        let (lpn, ppa) = result.assignments[5];
        let (tag, _) = media.array().read_page(ppa).unwrap();
        assert_eq!(tag, lpn);
    }

    #[test]
    fn failed_member_is_dropped_and_reported() {
        use flash_model::FaultConfig;
        let config =
            FlashConfig::builder().chips(4).blocks_per_plane(4).pwl_layers(2).strings(4).build();
        // A 5% per-word-line rate (no erase faults) so a short seed scan
        // reliably produces a mid-superblock program failure.
        let fault = FaultConfig { program_fail_prob: 0.05, ..FaultConfig::default() };
        'seeds: for seed in 0..64 {
            let mut media =
                Media::new(FlashArray::with_faults(config.clone(), seed, fault.clone()));
            let members: Vec<BlockAddr> =
                (0..4).map(|c| BlockAddr::new(ChipId(c), PlaneId(0), BlockId(0))).collect();
            for &m in &members {
                if media.erase(m).is_err() {
                    continue 'seeds;
                }
            }
            let mut a = ActiveSuperblock::new(members.clone(), 0, media.array().geometry(), false);
            let mut spor = spor();
            for wl in 0..8u64 {
                for p in 0..a.superwl_pages() as u64 {
                    a.stage(wl * 100 + p);
                }
                let result = a.program_superwl(&mut media, &mut spor).unwrap();
                if result.failures.is_empty() {
                    continue;
                }
                // A member died: it is gone from the superblock, its payload
                // is reported, and the survivors carried their pages.
                let dead = result.failures[0].addr;
                assert!(members.contains(&dead));
                assert!(!a.members.contains(&dead));
                assert_eq!(a.members.len() + result.failures.len(), 4);
                assert_eq!(result.failures[0].payload.len(), 3);
                assert_eq!(result.outcome.member_us.len(), a.members.len());
                return;
            }
        }
        panic!("no seed under 64 produced a mid-superblock program failure at 5%");
    }

    #[test]
    fn full_superblock_finishes_with_summaries() {
        let (mut media, mut a) = setup();
        let mut spor = spor();
        let wls = 8; // 2 layers x 4 strings
        for wl in 0..wls as u64 {
            for p in 0..12 {
                a.stage(wl * 12 + p);
            }
            a.program_superwl(&mut media, &mut spor).unwrap();
        }
        assert!(a.is_full());
        let summaries = a.finish();
        assert_eq!(summaries.len(), 4);
        for s in &summaries {
            assert_eq!(s.eigen.len(), 8);
            assert!(s.pgm_sum_us > 0.0);
        }
    }

    #[test]
    fn spor_programs_carry_oob_identity() {
        let config =
            FlashConfig::builder().chips(4).blocks_per_plane(4).pwl_layers(2).strings(4).build();
        let mut media = Media::new(FlashArray::new(config, 1));
        let members: Vec<BlockAddr> =
            (0..4).map(|c| BlockAddr::new(ChipId(c), PlaneId(0), BlockId(0))).collect();
        for &m in &members {
            media.erase(m).unwrap();
        }
        let mut a = ActiveSuperblock::new(members, 7, media.array().geometry(), false);
        let mut spor = spor();
        for i in 0..11 {
            a.stage(i);
        }
        a.stage(FILLER);
        let result = a.program_superwl(&mut media, &mut spor).unwrap();
        let mut seen_seqs = Vec::new();
        for &(lpn, ppa) in &result.assignments {
            let oob = media.array().read_oob(ppa).unwrap();
            assert_eq!(oob.lpn, lpn);
            assert_eq!(oob.sb_id, 7);
            assert!(oob.seq >= 1);
            assert_eq!(usize::from(oob.member_slot), usize::from(ppa.wl.block.chip.0));
            seen_seqs.push(oob.seq);
        }
        // Assignment order and sequence order agree: latest-wins recovery
        // resolves duplicates exactly like the RAM mapping does.
        let mut sorted = seen_seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seen_seqs, sorted);
        // The filler page's OOB reports filler.
        let filler_page = a.members[3].wl(flash_model::LwlId(0)).page(PageType::Msb);
        let oob = media.array().read_oob(filler_page).unwrap();
        assert!(oob.is_filler());
        assert_eq!(oob.seq, 0);
    }

    #[test]
    fn crash_mid_superwl_tears_the_interrupted_member() {
        use crate::recovery::CrashPoint;
        let (mut media, mut a) = setup();
        // A 1-op fuse always fires on the first member program.
        let mut spor = Spor::new(&SporConfig {
            checkpoint_interval: 0,
            crash: Some(CrashPoint { seed: 0, max_ops: 1 }),
        });
        for i in 0..12 {
            a.stage(i);
        }
        let err = a.program_superwl(&mut media, &mut spor).unwrap_err();
        assert!(matches!(err, FtlError::PowerLoss));
        assert!(spor.crashed());
        // Member 0 was interrupted: its word-line is torn and unreadable,
        // and the block takes no further programs until erased.
        let torn = media.array().torn_lwl(a.members[0]).unwrap();
        assert_eq!(torn, Some(flash_model::LwlId(0)));
        let page = a.members[0].wl(flash_model::LwlId(0)).page(PageType::Lsb);
        assert!(media.array().read_page(page).is_err());
        // Later members were never reached.
        for &m in &a.members[1..] {
            assert_eq!(media.array().torn_lwl(m).unwrap(), None);
            assert!(media
                .array()
                .read_page(m.wl(flash_model::LwlId(0)).page(PageType::Lsb))
                .is_err());
        }
    }

    #[test]
    fn parity_stripe_xors_to_zero_and_parity_page_is_unmapped() {
        let (mut media, mut a) = setup_parity();
        let mut spor = spor();
        assert_eq!(a.superwl_pages(), 12);
        assert_eq!(a.data_pages(), 11);
        for i in 0..10 {
            assert!(!a.stage(100 + i), "trigger only at data_pages");
        }
        assert!(a.stage(110));
        let result = a.program_superwl(&mut media, &mut spor).unwrap();
        // All 11 data pages map; the parity page does not.
        assert_eq!(result.assignments.len(), 11);
        let parity_page = a.members[3].wl(flash_model::LwlId(0)).page(PageType::Msb);
        assert!(!result.assignments.iter().any(|&(_, p)| p == parity_page));
        let oob = media.array().read_oob(parity_page).unwrap();
        assert!(oob.is_parity());
        assert!(!oob.is_mapped());
        assert_eq!(oob.seq, 0, "parity never consumes a sequence number");
        // XOR over the whole stripe is zero: any one page equals the XOR
        // of its survivors.
        let mut acc = 0u64;
        for m in &a.members {
            for pt in [PageType::Lsb, PageType::Csb, PageType::Msb] {
                let (tag, _) =
                    media.array().read_page(m.wl(flash_model::LwlId(0)).page(pt)).unwrap();
                acc ^= tag;
            }
        }
        assert_eq!(acc, 0);
        let (parity_tag, _) = media.array().read_page(parity_page).unwrap();
        let expected: u64 = (100..111u64).fold(0, |x, l| x ^ l);
        assert_eq!(parity_tag, expected);
    }

    #[test]
    fn parity_pad_leaves_room_for_the_parity_slot() {
        let (mut media, mut a) = setup_parity();
        a.stage(5);
        a.pad();
        let result = a.program_superwl(&mut media, &mut spor()).unwrap();
        assert_eq!(result.assignments.len(), 1);
        // 1 data + 10 filler XOR to 5^(10 fillers): fillers cancel pairwise,
        // so the stored parity is FILLER-count-parity dependent — just check
        // the stripe XORs to zero.
        let mut acc = 0u64;
        for m in &a.members {
            for pt in [PageType::Lsb, PageType::Csb, PageType::Msb] {
                let (tag, _) =
                    media.array().read_page(m.wl(flash_model::LwlId(0)).page(pt)).unwrap();
                acc ^= tag;
            }
        }
        assert_eq!(acc, 0);
    }

    #[test]
    fn has_staged_sees_buffered_pages() {
        let (_, mut a) = setup();
        a.stage(42);
        assert!(a.has_staged(42));
        assert!(!a.has_staged(43));
        assert!(a.has_staged_pages());
    }

    #[test]
    fn pad_fills_to_superwl_boundary() {
        let (_, mut a) = setup();
        a.stage(1);
        a.pad();
        assert_eq!(a.superwl_pages(), 12);
        assert!(a.has_staged(FILLER));
    }
}
