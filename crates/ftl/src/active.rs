//! Open (actively written) superblocks: staging buffer, super word-line
//! write pointer and runtime gathering — plus the placement hook that maps
//! a write's purpose (tenant QoS class or GC) to its open-superblock slot.

use crate::config::QosClass;
use crate::error::FtlError;
use crate::recovery::Spor;
use crate::Result;
use flash_model::{BlockAddr, FlashArray, MpOutcome, PageAddr, PageOob, PageType, WlAddr};
use pvcheck::gather::BlockGatherer;
use pvcheck::BlockSummary;

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

/// The open-superblock slots, one per placement target, in [`PURPOSES`]
/// order.
///
/// This is the per-tenant half of the placement hook: [`ActiveSlots::slot`]
/// picks which open superblock a write streams into (so tenants of
/// different classes never interleave pages in one super word-line), while
/// [`crate::manager::speed_class_for`] picks which end of the
/// process-variation ranking that superblock is assembled from.
#[derive(Debug, Default)]
pub(crate) struct ActiveSlots([Option<ActiveSuperblock>; PURPOSES.len()]);

impl ActiveSlots {
    /// The slot a write of `purpose` streams into.
    pub(crate) fn slot(&mut self, purpose: Purpose) -> &mut Option<ActiveSuperblock> {
        let index = match purpose {
            Purpose::Host(QosClass::Standard) => 0,
            Purpose::Gc => 1,
            Purpose::Host(QosClass::LatencyCritical) => 2,
            Purpose::Host(QosClass::Background) => 3,
        };
        &mut self.0[index]
    }

    /// Open superblocks in the fixed [`PURPOSES`] order (checkpoints
    /// iterate this).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ActiveSuperblock> {
        self.0.iter().flatten()
    }

    /// Replaces staged copies of `lpn` with filler in every slot (trim).
    pub(crate) fn discard_staged(&mut self, lpn: u64) {
        for a in self.0.iter_mut().flatten() {
            a.discard_staged(lpn);
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
    /// Surviving members' blocks, aligned with `outcome.member_us` — tells
    /// the per-chip timing model which chip each latency belongs to.
    pub member_blocks: Vec<BlockAddr>,
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
    /// Whether the last page of every super word-line is reserved for XOR
    /// parity over its siblings (RAIN).
    parity: bool,
    staging: Vec<u64>,
    gatherers: Vec<BlockGatherer>,
}

impl ActiveSuperblock {
    pub(crate) fn new(
        members: Vec<BlockAddr>,
        sb_id: u64,
        strings: u16,
        layers: u16,
        pages_per_lwl: u32,
        parity: bool,
    ) -> Self {
        let gatherers = members.iter().map(|&a| BlockGatherer::new(a, strings, layers)).collect();
        ActiveSuperblock {
            members,
            sb_id,
            next_lwl: 0,
            lwls_per_block: u32::from(strings) * u32::from(layers),
            pages_per_lwl,
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

    /// Replaces any staged copies of `lpn` with filler (trim of a buffered
    /// page); returns whether anything was discarded.
    pub(crate) fn discard_staged(&mut self, lpn: u64) -> bool {
        let mut hit = false;
        for slot in &mut self.staging {
            if *slot == lpn {
                *slot = FILLER;
                hit = true;
            }
        }
        hit
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
    /// program. A firing crash marks the current member's word-line *torn*
    /// — completed members of this super word-line stay readable, the torn
    /// one exposes nothing — and returns [`FtlError::PowerLoss`] before any
    /// assignment is applied.
    ///
    /// # Errors
    ///
    /// Propagates non-media flash errors (which indicate FTL invariant
    /// bugs) and reports injected power loss as [`FtlError::PowerLoss`].
    pub(crate) fn program_superwl(
        &mut self,
        array: &mut FlashArray,
        spor: &mut Spor,
    ) -> Result<SuperwlProgram> {
        debug_assert_eq!(self.staging.len(), self.data_pages());
        debug_assert!(!self.is_full());
        if self.parity {
            // The parity slot is the last staged position: last member, last
            // page type. Its payload is the XOR of every data/filler tag in
            // the stripe, so the XOR over the *whole* stripe is zero and any
            // one lost page equals the XOR of its survivors.
            let xor = self.staging.iter().fold(0u64, |acc, &tag| acc ^ tag);
            self.staging.push(xor);
        }
        debug_assert_eq!(self.staging.len(), self.superwl_pages());
        let ppl = self.pages_per_lwl as usize;
        let members = self.members.len();
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
                array.mark_torn(wls[m])?;
                return Err(FtlError::PowerLoss);
            }
            let oob: Vec<PageOob> = payload
                .iter()
                .enumerate()
                .map(|(k, &lpn)| {
                    // The parity slot is identified by position, never by
                    // value: its XOR payload can collide with any tag.
                    if self.parity && m == members - 1 && k == ppl - 1 {
                        PageOob {
                            lpn: PageOob::PARITY_LPN,
                            seq: 0,
                            sb_id: self.sb_id,
                            member_slot: m as u16,
                        }
                    } else {
                        PageOob {
                            lpn,
                            seq: if lpn == FILLER { 0 } else { spor.next_seq() },
                            sb_id: self.sb_id,
                            member_slot: m as u16,
                        }
                    }
                })
                .collect();
            match array.program_wl_with_oob(wls[m], payload, &oob) {
                Ok(t) => {
                    member_us.push(t);
                    survived.push(m);
                }
                Err(e) if e.is_media_failure() => {
                    let mut payload = payload.clone();
                    if self.parity && m == members - 1 {
                        // Never let the XOR tag be restaged as a logical page
                        // by the failure-relocation path.
                        *payload.last_mut().expect("ppl >= 1") = FILLER;
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
        let cell = array.geometry().cell();
        let mut assignments = Vec::new();
        for &m in &survived {
            for k in 0..ppl {
                if self.parity && m == members - 1 && k == ppl - 1 {
                    continue; // parity page: never mapped
                }
                let lpn = self.staging[k * members + m];
                if lpn != FILLER {
                    let pt = PageType::from_index(cell, k as u32).expect("k < pages_per_lwl");
                    assignments.push((lpn, wls[m].page(pt)));
                }
            }
        }
        let member_blocks: Vec<BlockAddr> = survived.iter().map(|&m| self.members[m]).collect();
        // Drop failed members: the superblock continues degraded.
        for f in &failures {
            if let Some(i) = self.members.iter().position(|&m| m == f.addr) {
                self.members.remove(i);
                self.gatherers.remove(i);
            }
        }
        self.staging.clear();
        self.next_lwl += 1;
        Ok(SuperwlProgram {
            assignments,
            outcome: MpOutcome::from_members(member_us),
            member_blocks,
            failures,
        })
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

    fn setup() -> (FlashArray, ActiveSuperblock) {
        let config =
            FlashConfig::builder().chips(4).blocks_per_plane(4).pwl_layers(2).strings(4).build();
        let mut array = FlashArray::new(config, 1);
        let members: Vec<BlockAddr> =
            (0..4).map(|c| BlockAddr::new(ChipId(c), PlaneId(0), BlockId(0))).collect();
        for &m in &members {
            array.erase_block(m).unwrap();
        }
        let active = ActiveSuperblock::new(members, 0, 4, 2, 3, false);
        (array, active)
    }

    fn setup_parity() -> (FlashArray, ActiveSuperblock) {
        let config =
            FlashConfig::builder().chips(4).blocks_per_plane(4).pwl_layers(2).strings(4).build();
        let mut array = FlashArray::new(config, 1);
        let members: Vec<BlockAddr> =
            (0..4).map(|c| BlockAddr::new(ChipId(c), PlaneId(0), BlockId(0))).collect();
        for &m in &members {
            array.erase_block(m).unwrap();
        }
        let active = ActiveSuperblock::new(members, 0, 4, 2, 3, true);
        (array, active)
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
        let (mut array, mut a) = setup();
        for i in 0..11 {
            a.stage(i);
        }
        a.stage(FILLER);
        a.pad();
        let result = a.program_superwl(&mut array, &mut spor()).unwrap();
        assert_eq!(result.assignments.len(), 11);
        assert_eq!(result.outcome.member_us.len(), 4);
        assert!(result.outcome.extra_us >= 0.0);
        assert!(result.failures.is_empty(), "healthy media never fails");
        // Check one assignment is readable with the right tag.
        let (lpn, ppa) = result.assignments[5];
        let (tag, _) = array.read_page(ppa).unwrap();
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
            let mut array = FlashArray::with_faults(config.clone(), seed, fault.clone());
            let members: Vec<BlockAddr> =
                (0..4).map(|c| BlockAddr::new(ChipId(c), PlaneId(0), BlockId(0))).collect();
            for &m in &members {
                if array.erase_block(m).is_err() {
                    continue 'seeds;
                }
            }
            let mut a = ActiveSuperblock::new(members.clone(), 0, 4, 2, 3, false);
            let mut spor = spor();
            for wl in 0..8u64 {
                for p in 0..a.superwl_pages() as u64 {
                    a.stage(wl * 100 + p);
                }
                let result = a.program_superwl(&mut array, &mut spor).unwrap();
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
        let (mut array, mut a) = setup();
        let mut spor = spor();
        let wls = 8; // 2 layers x 4 strings
        for wl in 0..wls as u64 {
            for p in 0..12 {
                a.stage(wl * 12 + p);
            }
            a.program_superwl(&mut array, &mut spor).unwrap();
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
        let mut array = FlashArray::new(config, 1);
        let members: Vec<BlockAddr> =
            (0..4).map(|c| BlockAddr::new(ChipId(c), PlaneId(0), BlockId(0))).collect();
        for &m in &members {
            array.erase_block(m).unwrap();
        }
        let mut a = ActiveSuperblock::new(members, 7, 4, 2, 3, false);
        let mut spor = spor();
        for i in 0..11 {
            a.stage(i);
        }
        a.stage(FILLER);
        let result = a.program_superwl(&mut array, &mut spor).unwrap();
        let mut seen_seqs = Vec::new();
        for &(lpn, ppa) in &result.assignments {
            let oob = array.read_oob(ppa).unwrap();
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
        let oob = array.read_oob(filler_page).unwrap();
        assert!(oob.is_filler());
        assert_eq!(oob.seq, 0);
    }

    #[test]
    fn crash_mid_superwl_tears_the_interrupted_member() {
        use crate::recovery::CrashPoint;
        let (mut array, mut a) = setup();
        // A 1-op fuse always fires on the first member program.
        let mut spor = Spor::new(&SporConfig {
            checkpoint_interval: 0,
            crash: Some(CrashPoint { seed: 0, max_ops: 1 }),
        });
        for i in 0..12 {
            a.stage(i);
        }
        let err = a.program_superwl(&mut array, &mut spor).unwrap_err();
        assert!(matches!(err, FtlError::PowerLoss));
        assert!(spor.crashed());
        // Member 0 was interrupted: its word-line is torn and unreadable,
        // and the block takes no further programs until erased.
        let torn = array.torn_lwl(a.members[0]).unwrap();
        assert_eq!(torn, Some(flash_model::LwlId(0)));
        let page = a.members[0].wl(flash_model::LwlId(0)).page(PageType::Lsb);
        assert!(array.read_page(page).is_err());
        // Later members were never reached.
        for &m in &a.members[1..] {
            assert_eq!(array.torn_lwl(m).unwrap(), None);
            assert!(array.read_page(m.wl(flash_model::LwlId(0)).page(PageType::Lsb)).is_err());
        }
    }

    #[test]
    fn parity_stripe_xors_to_zero_and_parity_page_is_unmapped() {
        let (mut array, mut a) = setup_parity();
        let mut spor = spor();
        assert_eq!(a.superwl_pages(), 12);
        assert_eq!(a.data_pages(), 11);
        for i in 0..10 {
            assert!(!a.stage(100 + i), "trigger only at data_pages");
        }
        assert!(a.stage(110));
        let result = a.program_superwl(&mut array, &mut spor).unwrap();
        // All 11 data pages map; the parity page does not.
        assert_eq!(result.assignments.len(), 11);
        let parity_page = a.members[3].wl(flash_model::LwlId(0)).page(PageType::Msb);
        assert!(!result.assignments.iter().any(|&(_, p)| p == parity_page));
        let oob = array.read_oob(parity_page).unwrap();
        assert!(oob.is_parity());
        assert!(!oob.is_mapped());
        assert_eq!(oob.seq, 0, "parity never consumes a sequence number");
        // XOR over the whole stripe is zero: any one page equals the XOR
        // of its survivors.
        let mut acc = 0u64;
        for m in &a.members {
            for pt in [PageType::Lsb, PageType::Csb, PageType::Msb] {
                let (tag, _) = array.read_page(m.wl(flash_model::LwlId(0)).page(pt)).unwrap();
                acc ^= tag;
            }
        }
        assert_eq!(acc, 0);
        let (parity_tag, _) = array.read_page(parity_page).unwrap();
        let expected: u64 = (100..111u64).fold(0, |x, l| x ^ l);
        assert_eq!(parity_tag, expected);
    }

    #[test]
    fn parity_pad_leaves_room_for_the_parity_slot() {
        let (mut array, mut a) = setup_parity();
        a.stage(5);
        a.pad();
        let result = a.program_superwl(&mut array, &mut spor()).unwrap();
        assert_eq!(result.assignments.len(), 1);
        // 1 data + 10 filler XOR to 5^(10 fillers): fillers cancel pairwise,
        // so the stored parity is FILLER-count-parity dependent — just check
        // the stripe XORs to zero.
        let mut acc = 0u64;
        for m in &a.members {
            for pt in [PageType::Lsb, PageType::Csb, PageType::Msb] {
                let (tag, _) = array.read_page(m.wl(flash_model::LwlId(0)).page(pt)).unwrap();
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
