//! Greedy garbage-collection victim selection and the preemptible
//! collection budget/job machinery.

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
/// and parks the in-progress victim as a resumable [`GcJob`] on the device;
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
/// The victim stays in the device's sealed list — and therefore in every
/// checkpoint — until the final flush + free, so a crash mid-collection
/// recovers it under its old identity with its remaining valid pages
/// intact. Cursors and the staged set live only in RAM; losing them merely
/// costs re-scanning the victim, never data.
#[derive(Debug)]
pub(crate) struct GcJob {
    /// Identity of the victim superblock (matches its `sb_id` in the
    /// sealed list; the `Freed` journal entry is written only at the end).
    pub sb_id: u64,
    /// The victim's member blocks, snapshot at selection time.
    pub members: Vec<BlockAddr>,
    /// Member currently being drained (index into `members`).
    pub member_cursor: usize,
    /// Valid pages collected from the current member, relocated one per
    /// step.
    pub pending: Vec<(u64, PageAddr)>,
    /// Next entry of `pending` to relocate.
    pub pending_cursor: usize,
    /// LPNs this job has staged into the GC slot. Invariant: an entry is
    /// either still staged (its copy flushes before the victim is freed)
    /// or its LPN no longer maps into the victim (programmed elsewhere, or
    /// trimmed) — so filtering re-collection by this set never strands a
    /// live page.
    pub staged: HashSet<u64>,
}

impl GcJob {
    pub(crate) fn new(sb_id: u64, members: Vec<BlockAddr>) -> Self {
        GcJob {
            sb_id,
            members,
            member_cursor: 0,
            pending: Vec::new(),
            pending_cursor: 0,
            staged: HashSet::new(),
        }
    }
}

/// Resumable state of an in-progress patrol pass, mirroring [`GcJob`]:
/// cursors live only in RAM, so a crash mid-pass merely restarts the pass —
/// no mapping state depends on them. Each step scans one super word-line
/// (the same quantum as a GC slice step), so patrol slices preempt at the
/// identical granularity. The pass's scan order lives in
/// [`PatrolBuffers::order`].
#[derive(Debug, Default)]
pub(crate) struct PatrolJob {
    /// Index into the scan order of the superblock being scanned.
    pub sb_cursor: usize,
    /// Next logical word-line of the current superblock to scan.
    pub lwl_cursor: u32,
}

/// Buffers patrol refills in place, so steady-state scanning allocates
/// nothing per super word-line or per pass.
#[derive(Debug, Default)]
pub(crate) struct PatrolBuffers {
    /// Superblock identities in scan order, snapshot at pass start.
    /// Superblocks collected mid-pass are simply skipped when their id no
    /// longer resolves in the sealed list.
    pub order: Vec<u64>,
    /// `(rank, sealed_at, sb_id)` sort keys behind a PV-aware `order`.
    pub keys: Vec<(u8, u64, u64)>,
    /// Member blocks of the superblock being scanned.
    pub members: Vec<BlockAddr>,
    /// Live LPNs of the current super word-line that the scan did not
    /// refresh (the ones a parity mismatch must relocate).
    pub unrefreshed_live: Vec<u64>,
}

/// A fully written superblock awaiting garbage collection.
#[derive(Debug, Clone)]
pub(crate) struct SealedSuperblock {
    /// Superblock identity (matches the OOB `sb_id` of its pages).
    pub sb_id: u64,
    pub members: Vec<BlockAddr>,
    /// Monotone sequence number at sealing time (a proxy for age).
    pub sealed_at: u64,
    /// Speed class the superblock was assembled from, when known (`None`
    /// after recovery — the checkpoint does not persist it). PV-aware
    /// patrol ordering scans `Slow` superblocks first.
    pub class: Option<SpeedClass>,
}

impl SealedSuperblock {
    /// Valid pages currently stored across the members. Alloc-free: each
    /// member is one counter read on the dense mapping store.
    pub(crate) fn valid_pages(&self, mapping: &Mapping) -> usize {
        self.members.iter().map(|&m| mapping.valid_in_block_count(m)).sum()
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
pub(crate) fn select_victim(sealed: &[SealedSuperblock], mapping: &Mapping) -> Option<usize> {
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
