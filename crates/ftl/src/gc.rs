//! Garbage collection's state: the sealed superblocks, greedy victim
//! choice and the preemptible job parked between slices. The device's
//! write path does the relocations the [`Collector`] asks for.

use crate::mapping::Mapping;
use flash_model::{BlockAddr, PageAddr};
use pvcheck::SpeedClass;
use std::collections::HashSet;

/// How much relocation work a foreground-triggered GC invocation may do
/// before yielding back to host commands.
///
/// `Unbounded` is the legacy run-to-completion collector: the triggering
/// write synchronously collects whole victims until the high watermark is
/// restored, and the entire multi-victim time lands in that one command's
/// latency. `Sliced` caps each invocation at `slice_us` of relocation work
/// and parks the in-progress victim as a resumable job in the collector;
/// later slices (foreground or idle-gap) continue where the last one
/// stopped, yielding between word-line programs.
///
/// Both budgets share the relocation and free code; they keep two victim
/// lifecycles on purpose. `Unbounded` swap-removes its victim from the
/// sealed list when it selects it; the job swap-removes its victim only
/// when it frees it, after the GC slot may have sealed new superblocks, so
/// greedy's lowest-index tie-break then sees another sealed-list order.
/// Running `Unbounded` as a job driven to completion was measured on the
/// collector at commit bee3941, and it moves reported results:
///
/// - `disabled_faults_reproduce_prefault_goldens_bit_for_bit` drifts (the
///   Random write mean goes from 190.51934 to 190.51922 µs), and so do
///   three engine fingerprint tests;
/// - in `repro --quick parity`, QSTR-MED at fault rate 0.02 with parity on
///   falls from 116 to 65 uncorrectable reads;
/// - the `repro --quick resilience` rebuild-straggler headline moves from
///   "14.48% lower" to "6.60% lower" than Sequential.
///
/// Re-pinning those for a refactor would move a result, so `Unbounded`
/// keeps its own lifecycle. Summing its per-page time the way the job does
/// (`read + program`, then added) also drifts `gc_stall_us` and
/// `idle_gc_us` in the last bit, so it adds the read and the program to
/// its running total one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GcBudget {
    /// Run every triggered collection to completion (legacy behavior,
    /// bit-identical to the pre-budget collector).
    #[default]
    Unbounded,
    /// Preemptible collection: at most `slice_us` microseconds of
    /// relocation per slice, at word-line granularity (a slice never
    /// splits a program, so it may overrun by one word-line step).
    Sliced {
        /// Budget per slice, µs. Must be finite and positive.
        slice_us: f64,
    },
}

/// Resumable state of a partially collected victim superblock.
///
/// The victim stays in the sealed list — and therefore in every
/// checkpoint — until the final flush + free, so a crash mid-collection
/// recovers it under its old identity with its remaining valid pages
/// intact. Cursors and the staged set live only in RAM; losing them merely
/// costs re-scanning the victim, never data.
#[derive(Debug)]
struct GcJob {
    /// The victim, snapshot at selection time (its `Freed` journal entry
    /// is written only at the end).
    victim: SealedSuperblock,
    /// Member currently being drained (index into the victim's members).
    member_cursor: usize,
    /// Valid pages collected from the current member, relocated one per
    /// step.
    pending: Vec<(u64, PageAddr)>,
    /// Next entry of `pending` to relocate.
    pending_cursor: usize,
    /// LPNs this job has staged into the GC slot. Invariant: an entry is
    /// either still staged (its copy flushes before the victim is freed)
    /// or its LPN no longer maps into the victim (programmed elsewhere, or
    /// trimmed) — so filtering re-collection by this set never strands a
    /// live page.
    staged: HashSet<u64>,
}

/// A fully written superblock awaiting garbage collection.
#[derive(Debug, Clone)]
pub(crate) struct SealedSuperblock {
    /// Superblock identity (matches the OOB `sb_id` of its pages).
    sb_id: u64,
    members: Vec<BlockAddr>,
    /// Monotone sequence number at sealing time (a proxy for age).
    sealed_at: u64,
    /// Speed class the superblock was assembled from, when known (`None`
    /// after recovery — the checkpoint does not persist it). PV-aware
    /// patrol ordering scans `Slow` superblocks first.
    class: Option<SpeedClass>,
}

impl SealedSuperblock {
    pub(crate) fn sb_id(&self) -> u64 {
        self.sb_id
    }

    /// Member blocks in slot order: the stripe of every super word-line.
    pub(crate) fn members(&self) -> &[BlockAddr] {
        &self.members
    }

    pub(crate) fn sealed_at(&self) -> u64 {
        self.sealed_at
    }

    pub(crate) fn class(&self) -> Option<SpeedClass> {
        self.class
    }

    /// The copy a checkpoint persists: everything but the speed class.
    pub(crate) fn persisted(&self) -> SealedSuperblock {
        SealedSuperblock { class: None, ..self.clone() }
    }

    /// Valid pages currently stored across the members. Alloc-free: each
    /// member is one counter read on the dense mapping store.
    fn valid_pages(&self, mapping: &Mapping) -> usize {
        self.members.iter().map(|&m| mapping.valid_in_block_count(m)).sum()
    }
}

/// What the parked collection needs from the device next.
#[derive(Debug)]
pub(crate) enum GcStep {
    /// Relocate this valid victim page (`lpn` at `ppa`) into the GC slot,
    /// then report it with [`Collector::relocated`].
    Relocate(u64, PageAddr),
    /// Every member has drained: make the staged copies durable, free the
    /// victim, then drop it with [`Collector::freed`].
    Free(SealedSuperblock),
}

/// Collection state: the sealed superblocks (the victim candidates), the
/// seal ordinal and the job parked between slices.
#[derive(Debug, Default)]
pub(crate) struct Collector {
    sealed: Vec<SealedSuperblock>,
    /// Next seal ordinal (the age clock of `sealed_at`).
    seal_seq: u64,
    /// Partially collected victim parked between slices (sliced collection
    /// and the emergency floor; [`Collector::take_victim`] never parks);
    /// `None` when no collection is mid-flight.
    job: Option<GcJob>,
    /// The job while the device relocates its page, parked again by
    /// [`Collector::relocated`]: a relocation that fails leaves nothing
    /// parked, so the next slice selects afresh and rescans the victim.
    relocating: Option<GcJob>,
}

impl Collector {
    /// A collector over a recovered sealed list, with no job parked.
    pub(crate) fn restored(sealed: Vec<SealedSuperblock>, seal_seq: u64) -> Collector {
        Collector { sealed, seal_seq, ..Collector::default() }
    }

    /// Appends a fully written superblock under the next seal ordinal.
    pub(crate) fn seal(&mut self, sb_id: u64, members: Vec<BlockAddr>, class: Option<SpeedClass>) {
        self.sealed.push(SealedSuperblock { sb_id, members, sealed_at: self.seal_seq, class });
        self.seal_seq += 1;
    }

    pub(crate) fn sealed(&self) -> &[SealedSuperblock] {
        &self.sealed
    }

    pub(crate) fn seal_seq(&self) -> u64 {
        self.seal_seq
    }

    pub(crate) fn has_job(&self) -> bool {
        self.job.is_some()
    }

    /// Selects the greedy victim and removes it from the sealed list now,
    /// the run-to-completion lifecycle (see [`GcBudget`]).
    pub(crate) fn take_victim(&mut self, mapping: &Mapping) -> Option<SealedSuperblock> {
        select_victim(&self.sealed, mapping).map(|i| self.sealed.swap_remove(i))
    }

    /// Advances the parked job — starting one on the greedy victim when
    /// none is parked — to its next step; `None` when nothing is sealed.
    /// A step never splits a program, so it is the preemption quantum.
    pub(crate) fn next_step(&mut self, mapping: &Mapping) -> Option<GcStep> {
        let mut job = match self.job.take() {
            Some(job) => job,
            // The victim stays in the sealed list until it is freed.
            None => GcJob {
                victim: self.sealed[select_victim(&self.sealed, mapping)?].clone(),
                member_cursor: 0,
                pending: Vec::new(),
                pending_cursor: 0,
                staged: HashSet::new(),
            },
        };
        loop {
            if let Some(&(lpn, ppa)) = job.pending.get(job.pending_cursor) {
                job.pending_cursor += 1;
                // The host may have overwritten or trimmed the page while
                // the job was parked; the mapping is the ground truth.
                if mapping.lookup(lpn) != Some(ppa) {
                    continue;
                }
                self.relocating = Some(job);
                return Some(GcStep::Relocate(lpn, ppa));
            }
            if let Some(&member) = job.victim.members.get(job.member_cursor) {
                job.member_cursor += 1;
                // Staged LPNs keep mapping into the victim until their GC
                // copy programs; filtering them out of the re-collection is
                // what keeps resumption from relocating a page twice.
                job.pending.clear();
                job.pending_cursor = 0;
                let staged = &job.staged;
                job.pending.extend(
                    mapping.valid_in_block(member).filter(|(lpn, _)| !staged.contains(lpn)),
                );
                continue;
            }
            return Some(GcStep::Free(job.victim));
        }
    }

    /// Parks the job again once the device has staged the relocated `lpn`.
    pub(crate) fn relocated(&mut self, lpn: u64) {
        let mut job = self.relocating.take().expect("a relocation step is in flight");
        job.staged.insert(lpn);
        self.job = Some(job);
    }

    /// Drops a freed job victim from the sealed list — only once it is
    /// freed, after the flush may have sealed new superblocks behind it.
    pub(crate) fn freed(&mut self, victim: &SealedSuperblock) {
        let idx = self.sealed.iter().position(|s| s.sb_id == victim.sb_id);
        self.sealed.swap_remove(idx.expect("victim stays sealed until freed"));
    }
}

/// Picks the greedy victim — fewest valid pages, the cheapest relocation
/// that reclaims the most space now — as an index into `sealed`; `None`
/// when nothing is sealed.
///
/// Takes the min over `(valid_pages, index)` and stops early at the first
/// fully-invalid superblock — nothing can beat zero valid pages, and the
/// first zero has the smallest index among zeros, so the early exit
/// returns exactly what the full scan would.
fn select_victim(sealed: &[SealedSuperblock], mapping: &Mapping) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (i, sb) in sealed.iter().enumerate() {
        let valid = sb.valid_pages(mapping);
        if valid == 0 {
            return Some(i);
        }
        if best.is_none_or(|(b, _)| valid < b) {
            best = Some((valid, i));
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_model::{BlockId, CellType, ChipId, Geometry, LwlId, PageType, PlaneId};

    fn geo() -> Geometry {
        Geometry::new(2, 1, 4, 24, 4, CellType::Tlc)
    }

    fn blk(c: u16, b: u32) -> BlockAddr {
        BlockAddr::new(ChipId(c), PlaneId(0), BlockId(b))
    }

    fn sealed(b: u32, sealed_at: u64) -> SealedSuperblock {
        SealedSuperblock {
            sb_id: u64::from(b),
            members: vec![blk(0, b), blk(1, b)],
            sealed_at,
            class: None,
        }
    }

    #[test]
    fn greedy_picks_the_emptiest_superblock() {
        let mut mapping = Mapping::new(100, &geo());
        mapping.map(1, blk(0, 0).wl(LwlId(0)).page(PageType::Lsb));
        mapping.map(2, blk(1, 0).wl(LwlId(0)).page(PageType::Lsb));
        mapping.map(3, blk(0, 1).wl(LwlId(0)).page(PageType::Lsb));
        let sbs = vec![sealed(0, 0), sealed(1, 1)];
        assert_eq!(select_victim(&sbs, &mapping), Some(1));
        assert_eq!(sbs[0].valid_pages(&mapping), 2);
    }

    #[test]
    fn greedy_ties_resolve_to_the_lowest_index() {
        let mut mapping = Mapping::new(100, &geo());
        // Both superblocks hold one valid page each: first wins the tie,
        // matching the old `min()` over `(count, index)` tuples.
        mapping.map(1, blk(0, 0).wl(LwlId(0)).page(PageType::Lsb));
        mapping.map(2, blk(0, 1).wl(LwlId(0)).page(PageType::Lsb));
        let sbs = vec![sealed(0, 0), sealed(1, 1)];
        assert_eq!(select_victim(&sbs, &mapping), Some(0));
    }

    #[test]
    fn greedy_early_exit_matches_full_scan_on_zero_valid() {
        let mut mapping = Mapping::new(100, &geo());
        // Superblock 0 holds data, 1 and 2 are empty: the first zero wins.
        mapping.map(1, blk(0, 0).wl(LwlId(0)).page(PageType::Lsb));
        let sbs = vec![sealed(0, 0), sealed(1, 1), sealed(2, 2)];
        assert_eq!(select_victim(&sbs, &mapping), Some(1));
    }

    #[test]
    fn no_sealed_superblocks_means_no_victim() {
        let mapping = Mapping::new(10, &geo());
        assert_eq!(select_victim(&[], &mapping), None);
    }
}
