//! Sudden-power-off recovery (SPOR): crash injection, the allocation
//! journal + periodic checkpoint, and the latest-wins merge that rebuilds
//! the mapping from an OOB scan.
//!
//! The model follows real controller practice:
//!
//! * every page program carries OOB metadata (LPN, monotonic write sequence
//!   number, superblock identity) written atomically with the payload;
//! * a capacitor-backed metadata region holds per-superblock *seal records*
//!   (member list + gathered QSTR-MED stats) and the checkpoint/journal;
//! * a checkpoint rewrites only the logical pages whose mapping changed
//!   since the previous one — O(changed LPNs), not O(logical pages);
//! * after a crash, only superblocks dirtied since the last checkpoint are
//!   scanned — the flash scan is O(dirty), not O(device), and the RAM
//!   rebuild adds one pass over the logical pages;
//! * duplicate LPNs resolve by highest sequence number (latest wins), and
//!   pages of a *torn* super word-line (interrupted mid-program) are
//!   discarded even on members whose individual program completed.

use crate::active::ActiveSuperblock;
use crate::gc::{Collector, SealedSuperblock};
use crate::mapping::Mapping;
use crate::Result;
use flash_model::{BlockAddr, FlashArray, LwlId};
use std::collections::{HashMap, HashSet};

/// SplitMix64: a tiny, high-quality 64-bit mixer. Used to derive the crash
/// op index from a seed so a crash point is a pure function of its seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic crash point: the device loses power immediately before
/// its N-th flash program/erase operation, where N is a pure function of
/// `(seed, max_ops)`. Identical seeds always crash at the identical op, so
/// crash experiments replay bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Seed the op index is derived from.
    pub seed: u64,
    /// Exclusive upper bound on the crash op index (clamped to at least 1).
    pub max_ops: u64,
}

impl CrashPoint {
    /// Builds a crash point whose op index lies in `1..=max_ops`.
    #[must_use]
    pub fn from_seed(seed: u64, max_ops: u64) -> CrashPoint {
        CrashPoint { seed, max_ops: max_ops.max(1) }
    }

    /// The 1-based flash-op index at which power is lost.
    #[must_use]
    pub fn op_index(&self) -> u64 {
        1 + splitmix64(self.seed) % self.max_ops.max(1)
    }
}

/// Sudden-power-off-recovery configuration. OOB metadata, seal records,
/// the journal and checkpoints are always maintained; the machinery costs
/// zero simulated time and zero RNG draws, so it leaves every latency
/// result bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SporConfig {
    /// Take a checkpoint every this many super word-line programs
    /// (`0` = only the one each recovery ends with, so recovery scans
    /// everything written since power-on or the previous recovery).
    pub checkpoint_interval: u64,
    /// Optional injected crash.
    pub crash: Option<CrashPoint>,
}

impl Default for SporConfig {
    fn default() -> Self {
        SporConfig { checkpoint_interval: 256, crash: None }
    }
}

/// One allocation-journal entry, appended to the capacitor-backed region as
/// superblock membership changes between checkpoints.
#[derive(Debug, Clone, PartialEq)]
enum JournalEntry {
    /// Superblock `sb_id` was opened with `members` in slot order (erases
    /// all succeeded).
    Opened { sb_id: u64, members: Vec<BlockAddr> },
    /// Sealed superblock `sb_id` was garbage-collected; its blocks returned
    /// to the free pools and must not be scanned under this identity.
    Freed { sb_id: u64 },
    /// Block `addr` was retired to the bad-block table.
    Retired { addr: BlockAddr },
    /// Logical page `lpn` was trimmed; `seq` tombstones any on-flash copy
    /// with a lower sequence.
    Trimmed { lpn: u64, seq: u64 },
}

/// [`Checkpoint::loc`] value of an LPN that maps to no page.
const NO_PAGE: u64 = u64::MAX;

/// A periodic snapshot of FTL RAM state. Recovery replays the journal and
/// scans only superblocks dirtied after this point.
///
/// The per-LPN state lives in dense columns indexed by LPN. They are empty
/// until the first checkpoint (read as "no entry" everywhere) and then
/// stay allocated: each later checkpoint rewrites only the LPNs whose
/// mapping changed since the previous one, so taking a checkpoint costs
/// O(LPNs changed), not O(logical pages). The columns always equal a full
/// rescan of the mapping, LPN for LPN.
#[derive(Debug, Clone, Default)]
struct Checkpoint {
    /// Per-LPN sequence number: the OOB write sequence of the page the LPN
    /// maps to, else its trim tombstone sequence, else 0 (never written
    /// and never trimmed: no entry).
    seq: Vec<u64>,
    /// Per-LPN location as a `Geometry::page_index`; [`NO_PAGE`] for
    /// tombstones and absent entries.
    loc: Vec<u64>,
    /// Sealed superblocks at checkpoint time, as persisted (no speed
    /// class).
    sealed: Vec<SealedSuperblock>,
    /// Open superblocks at checkpoint time: `(sb_id, members)`.
    actives: Vec<(u64, Vec<BlockAddr>)>,
    /// Next write sequence number.
    write_seq: u64,
    /// Next superblock identifier.
    sb_seq: u64,
    /// Next seal ordinal (GC age clock).
    seal_seq: u64,
    /// Bad-block table.
    retired: Vec<BlockAddr>,
    /// Per-LPN write time, device-clock µs at the program of the page in
    /// `loc` (only meaningful where `loc` names a page). Lets recovery
    /// rebuild data ages from the OOB scan: a winner whose sequence equals
    /// `seq[lpn]` takes this time; any other winner was written after this
    /// checkpoint and conservatively reports age since power-on, so patrol
    /// re-examines it early rather than never. Empty unless integrity
    /// tracking is on.
    birth: Vec<f64>,
}

/// Live SPOR state inside the device: countdown to the injected crash, the
/// journal since the last checkpoint, that checkpoint, and the sequences
/// the journal and OOB metadata draw from. The mapping's change record
/// (`Mapping::take_changed`) names the LPNs the next checkpoint must
/// refresh.
#[derive(Debug)]
pub(crate) struct Spor {
    /// Flash ops remaining until the injected crash fires (`None` = never).
    countdown: Option<u64>,
    /// Whether power has been lost; cleared by recovery.
    crashed: bool,
    /// Checkpoint every this many super word-line programs (`0` = never).
    interval: u64,
    /// Journal entries since the last checkpoint.
    journal: Vec<JournalEntry>,
    /// The last checkpoint taken.
    checkpoint: Checkpoint,
    /// Super word-line programs since the last checkpoint.
    superwls_since_ckpt: u64,
    /// Next write sequence number. Sequences are drawn in OOB-build order
    /// (the order page assignments are applied to the mapping), so the
    /// highest sequence number of an LPN always names the copy the RAM
    /// mapping ended up pointing at — even when one LPN occurs several
    /// times inside a single super word-line.
    write_seq: u64,
    /// Per-LPN trim tombstone sequences (latest trim wins). Never pruned:
    /// an old on-flash copy can outlive many checkpoints inside a
    /// long-lived superblock and must still lose to its tombstone.
    trim_seqs: HashMap<u64, u64>,
    /// Next superblock identity to hand out.
    sb_seq: u64,
    /// Reused buffer for the LPNs a checkpoint drains from the mapping's
    /// change record.
    changed_lpns: Vec<u64>,
}

impl Spor {
    pub(crate) fn new(config: &SporConfig) -> Spor {
        Spor {
            countdown: config.crash.map(|c| c.op_index()),
            crashed: false,
            interval: config.checkpoint_interval,
            journal: Vec::new(),
            checkpoint: Checkpoint::default(),
            superwls_since_ckpt: 0,
            write_seq: 1,
            trim_seqs: HashMap::new(),
            sb_seq: 0,
            changed_lpns: Vec::new(),
        }
    }

    pub(crate) fn crashed(&self) -> bool {
        self.crashed
    }

    /// Draws the next monotonic write/trim sequence number (1-based; 0 is
    /// reserved for filler OOB).
    pub(crate) fn next_seq(&mut self) -> u64 {
        let s = self.write_seq;
        self.write_seq += 1;
        s
    }

    /// Ticks the crash countdown before one flash program/erase op. Returns
    /// `true` when power is lost *now*: the op must not execute.
    pub(crate) fn op_fires(&mut self) -> bool {
        let Some(n) = self.countdown.as_mut() else { return false };
        *n -= 1;
        if *n > 0 {
            return false;
        }
        self.countdown = None;
        self.crashed = true;
        true
    }

    /// Hands out the next superblock identity and journals the superblock
    /// opened with `members`.
    pub(crate) fn open_superblock(&mut self, members: &[BlockAddr]) -> u64 {
        let sb_id = self.sb_seq;
        self.sb_seq += 1;
        self.journal.push(JournalEntry::Opened { sb_id, members: members.to_vec() });
        sb_id
    }

    pub(crate) fn retire(&mut self, addr: BlockAddr) {
        self.journal.push(JournalEntry::Retired { addr });
    }

    pub(crate) fn free(&mut self, sb_id: u64) {
        self.journal.push(JournalEntry::Freed { sb_id });
    }

    /// Tombstones a trimmed LPN: any on-flash copy with a lower sequence
    /// number is dead to recovery, even if its superblock is never scanned
    /// again before the next checkpoint.
    pub(crate) fn trim(&mut self, lpn: u64) {
        let seq = self.next_seq();
        self.trim_seqs.insert(lpn, seq);
        self.journal.push(JournalEntry::Trimmed { lpn, seq });
    }

    pub(crate) fn count_superwl(&mut self) {
        self.superwls_since_ckpt += 1;
    }

    /// Whether the configured interval of super word-line programs has
    /// elapsed on a powered device.
    pub(crate) fn checkpoint_due(&self) -> bool {
        !self.crashed && self.interval != 0 && self.superwls_since_ckpt >= self.interval
    }

    /// Snapshots the FTL RAM state into the capacitor-backed checkpoint and
    /// clears the journal. Costs zero simulated time and zero RNG draws, so
    /// checkpointing never perturbs latency results.
    ///
    /// Per-LPN columns are refreshed only for the LPNs the mapping recorded
    /// as changed since the previous checkpoint. Every other LPN's entry is
    /// still current: a mapped page is never reprogrammed while mapped (so
    /// its OOB sequence holds), its write time changes only when it is
    /// remapped, and a tombstone moves only through a trim, which unmaps.
    pub(crate) fn take_checkpoint(
        &mut self,
        array: &FlashArray,
        mapping: &mut Mapping,
        births: Option<&[f64]>,
        collector: &Collector,
        slots: &[Option<ActiveSuperblock>],
    ) -> Result<()> {
        let ckpt = &mut self.checkpoint;
        if ckpt.seq.is_empty() {
            let n = usize::try_from(mapping.capacity()).expect("capacity fits usize");
            ckpt.seq = vec![0; n];
            ckpt.loc = vec![NO_PAGE; n];
            if births.is_some() {
                ckpt.birth = vec![0.0; n];
            }
        }
        mapping.take_changed(&mut self.changed_lpns);
        let geo = array.geometry();
        for &lpn in &self.changed_lpns {
            let i = usize::try_from(lpn).expect("lpn fits usize");
            (ckpt.seq[i], ckpt.loc[i]) = match mapping.lookup(lpn) {
                Some(ppa) => (array.read_oob(ppa)?.seq, geo.page_index(ppa) as u64),
                None => (self.trim_seqs.get(&lpn).copied().unwrap_or(0), NO_PAGE),
            };
            if let Some(birth) = births {
                ckpt.birth[i] = birth[i];
            }
        }
        ckpt.sealed = collector.sealed().iter().map(SealedSuperblock::persisted).collect();
        ckpt.actives = slots.iter().flatten().map(|a| (a.sb_id(), a.members.clone())).collect();
        for e in &self.journal {
            if let JournalEntry::Retired { addr } = e {
                ckpt.retired.push(*addr);
            }
        }
        ckpt.write_seq = self.write_seq;
        ckpt.sb_seq = self.sb_seq;
        ckpt.seal_seq = collector.seal_seq();
        self.journal.clear();
        self.superwls_since_ckpt = 0;
        Ok(())
    }

    /// Rebuilds the mapping after a sudden power loss: replays the journal
    /// over the last checkpoint, scans the OOB metadata of every superblock
    /// dirtied since that checkpoint (highest write sequence wins; pages of
    /// a torn super word-line are discarded), rebuilds `mapping` and the
    /// write times in `births` from the winners, and takes a fresh
    /// checkpoint. Returns the rebuilt collection state and bad-block
    /// table, which the caller rebuilds the block manager from, and the
    /// report.
    pub(crate) fn recover(
        &mut self,
        array: &FlashArray,
        mapping: &mut Mapping,
        mut births: Option<&mut [f64]>,
    ) -> Result<(Collector, Vec<BlockAddr>, RecoveryReport)> {
        let geo = array.geometry();
        // 1. Replay the journal over the checkpoint: its block sets, and a
        // latest-wins merge on per-LPN columns cloned from it (before the
        // first checkpoint: no entries) taking the trim tombstones.
        let ckpt = &self.checkpoint;
        let n = usize::try_from(mapping.capacity()).expect("capacity fits usize");
        let (mut seqs, mut locs) = if ckpt.seq.is_empty() {
            (vec![0; n], vec![NO_PAGE; n])
        } else {
            (ckpt.seq.clone(), ckpt.loc.clone())
        };
        let mut max_seq = ckpt.write_seq.saturating_sub(1);
        let mut freed: HashSet<u64> = HashSet::new();
        let mut dirty: Vec<(u64, Vec<BlockAddr>)> = ckpt.actives.clone();
        self.sb_seq = ckpt.sb_seq;
        for e in &self.journal {
            match *e {
                JournalEntry::Opened { sb_id, ref members } => {
                    self.sb_seq = self.sb_seq.max(sb_id + 1);
                    dirty.push((sb_id, members.clone()));
                }
                JournalEntry::Freed { sb_id } => {
                    freed.insert(sb_id);
                }
                JournalEntry::Retired { .. } => {}
                JournalEntry::Trimmed { lpn, seq } => {
                    max_seq = max_seq.max(seq);
                    let i = usize::try_from(lpn).expect("lpn fits usize");
                    if seq > seqs[i] {
                        (seqs[i], locs[i]) = (seq, NO_PAGE);
                    }
                }
            }
        }
        // Every superblock opened since and not freed is dirty: closed into
        // the sealed list behind the checkpoint's, it takes no further
        // programs (its write pointers are mid-block and the staging context
        // is lost), so GC reclaims it.
        dirty.retain(|(id, _)| !freed.contains(id));
        let sealed = ckpt.sealed.iter().filter(|s| !freed.contains(&s.sb_id())).cloned();
        let mut collector = Collector::restored(sealed.collect(), ckpt.seal_seq);
        for (sb_id, members) in &dirty {
            collector.seal(*sb_id, members.clone(), None);
        }
        // 2. OOB scan of the dirty superblocks — O(written since the last
        // checkpoint), not O(device).
        let mut report = RecoveryReport {
            scanned_pages: 0,
            recovered_mappings: 0,
            torn_writes_discarded: 0,
            scan_us: 0.0,
        };
        for (sb_id, members) in &dirty {
            // The super word-line that was mid-program at power loss: the
            // interrupted member reports it torn; members whose individual
            // program completed hold readable pages on that word-line which
            // must be discarded — their host writes were never acknowledged.
            let mut torn_wl: Option<LwlId> = None;
            for &m in members {
                torn_wl = array.torn_lwl(m)?.or(torn_wl);
            }
            for &member in members {
                let mut block = array.block(member)?;
                for lwl in geo.lwls() {
                    // The scan stops at the member's first word-line with
                    // nothing readable: its write pointer, or the torn one.
                    let Some(line) = array.readable_line(&mut block, lwl)? else {
                        break;
                    };
                    for k in 0..line.pages() {
                        let (page, oob) = (line.page(k), line.oob(k));
                        let (_, t_read) = line.read(k);
                        report.scanned_pages += 1;
                        report.scan_us += t_read;
                        if !oob.is_mapped() {
                            // Filler padding and parity pages never enter the
                            // L2P table — a parity payload is an XOR tag that
                            // can collide with any real LPN.
                            continue;
                        }
                        max_seq = max_seq.max(oob.seq);
                        if torn_wl == Some(lwl) {
                            report.torn_writes_discarded += 1;
                            continue;
                        }
                        debug_assert_eq!(oob.sb_id, *sb_id, "OOB names its superblock");
                        let i = usize::try_from(oob.lpn).expect("lpn fits usize");
                        if oob.seq > seqs[i] {
                            (seqs[i], locs[i]) = (oob.seq, geo.page_index(page) as u64);
                        }
                    }
                }
            }
        }
        // 3. Rebuild the mapping from the merge winners in LPN order, so the
        // rebuild is deterministic end to end.
        for lpn in 0..mapping.capacity() {
            mapping.unmap(lpn);
        }
        self.trim_seqs.clear();
        for (i, (&seq, &loc)) in seqs.iter().zip(&locs).enumerate() {
            let lpn = i as u64;
            if loc != NO_PAGE {
                mapping.map(lpn, geo.page_at_index(loc as usize));
                if let Some(birth) = births.as_deref_mut() {
                    // A winner the checkpoint already held takes its
                    // checkpointed write time (sequences are unique per
                    // write). One written after that checkpoint
                    // conservatively reports age since power-on — patrol
                    // re-examines it early rather than never.
                    birth[i] = if ckpt.seq.get(i) == Some(&seq) { ckpt.birth[i] } else { 0.0 };
                }
                report.recovered_mappings += 1;
            } else if seq > 0 {
                self.trim_seqs.insert(lpn, seq);
            }
        }
        // 4. Back to life: sequences continue past everything ever durably
        // assigned, and a fresh checkpoint, with no superblock open, bounds
        // the next recovery's scan. The merge columns already are its
        // per-LPN state — each winner's sequence is its page's OOB
        // sequence, each loser slot its tombstone — so the rebuild's change
        // record is dropped instead of re-read from flash.
        self.crashed = false;
        self.write_seq = max_seq + 1;
        let ckpt = &mut self.checkpoint;
        (ckpt.seq, ckpt.loc) = (seqs, locs);
        if let Some(birth) = births.as_deref() {
            ckpt.birth.clear();
            ckpt.birth.extend_from_slice(birth);
        }
        mapping.take_changed(&mut self.changed_lpns);
        let births = births.as_deref();
        self.take_checkpoint(array, mapping, births, &collector, &[])?;
        Ok((collector, self.checkpoint.retired.clone(), report))
    }
}

/// Post-recovery report, also folded into [`crate::SsdStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryReport {
    /// Physical pages read during the OOB scan.
    pub scanned_pages: u64,
    /// Logical mappings rebuilt.
    pub recovered_mappings: u64,
    /// Readable pages of torn super word-lines that were discarded.
    pub torn_writes_discarded: u64,
    /// Simulated time the scan took, µs.
    pub scan_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IntegrityConfig, OrganizationScheme, PatrolConfig, PatrolOrder};
    use crate::workload::{poisson_arrivals, Workload};
    use crate::{FtlConfig, FtlError, GcBudget, IoRequest, QosClass, Ssd};

    #[test]
    fn crash_point_is_a_pure_function_of_seed() {
        let a = CrashPoint::from_seed(42, 1000).op_index();
        let b = CrashPoint::from_seed(42, 1000).op_index();
        assert_eq!(a, b);
        assert!((1..=1000).contains(&a));
        // Different seeds spread over the range.
        let distinct: std::collections::HashSet<u64> =
            (0..64).map(|s| CrashPoint::from_seed(s, 1_000_000).op_index()).collect();
        assert!(distinct.len() > 60, "splitmix64 spreads seeds: {}", distinct.len());
    }

    #[test]
    fn crash_point_clamps_zero_ops() {
        assert_eq!(CrashPoint::from_seed(7, 0).op_index(), 1);
    }

    #[test]
    fn countdown_fires_exactly_once() {
        let config =
            SporConfig { checkpoint_interval: 0, crash: Some(CrashPoint { seed: 0, max_ops: 1 }) };
        let mut s = Spor::new(&config);
        assert!(s.op_fires(), "op index 1 fires on the first op");
        assert!(s.crashed);
        assert!(!s.op_fires(), "a crash fires once");
    }

    #[test]
    fn no_crash_configured_never_fires() {
        let mut s = Spor::new(&SporConfig::default());
        for _ in 0..10_000 {
            assert!(!s.op_fires());
        }
        assert!(!s.crashed);
    }

    /// The checkpoint's per-LPN columns as a full rescan of RAM builds
    /// them — the original O(logical pages) algorithm, kept as the oracle
    /// for the incremental one.
    fn full_rescan_checkpoint(dev: &Ssd) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
        let (spor, array, births) = dev.spor_parts();
        let geo = array.geometry();
        let (seq, loc) = (0..dev.mapping().capacity())
            .map(|lpn| match dev.mapping().lookup(lpn) {
                Some(ppa) => (array.read_oob(ppa).unwrap().seq, geo.page_index(ppa) as u64),
                None => (spor.trim_seqs.get(&lpn).copied().unwrap_or(0), NO_PAGE),
            })
            .unzip();
        (seq, loc, births.map(<[f64]>::to_vec).unwrap_or_default())
    }

    fn assert_checkpoint_is_full_rescan(dev: &Ssd, tag: &str) {
        let (seq, loc, birth) = full_rescan_checkpoint(dev);
        let ckpt = &dev.spor_parts().0.checkpoint;
        assert_eq!(ckpt.seq.len(), seq.len(), "{tag}: seq column allocated");
        assert_eq!(ckpt.birth.len(), birth.len(), "{tag}: birth column iff tracking");
        for lpn in 0..seq.len() {
            assert_eq!(ckpt.seq[lpn], seq[lpn], "{tag}: seq of lpn {lpn}");
            assert_eq!(ckpt.loc[lpn], loc[lpn], "{tag}: location of lpn {lpn}");
        }
        for (lpn, (got, want)) in ckpt.birth.iter().zip(&birth).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "{tag}: birth of lpn {lpn}");
        }
    }

    #[test]
    fn incremental_checkpoint_equals_a_full_rescan() {
        // Six seeds: every interval twice, crashing on odd cases.
        for (case, interval) in (1u64..).zip([1u64, 8, 256, 1, 8, 256]) {
            let mut config = FtlConfig::small_test();
            config.scheme = OrganizationScheme::QstrMed { candidates: 4 };
            config.gc_budget = GcBudget::Sliced { slice_us: 300.0 };
            config.integrity = IntegrityConfig {
                track: true,
                retention_hours_per_us: 0.05,
                patrol: PatrolConfig::On {
                    interval_us: 10_000.0,
                    slice_us: 300.0,
                    refresh_fraction: 0.5,
                    order: PatrolOrder::SlowPoolFirst,
                },
            };
            config.spor.checkpoint_interval = interval;
            // Odd cases lose power mid-stream; even ones power-cycle
            // cleanly halfway through.
            if case % 2 == 1 {
                config.spor.crash = Some(CrashPoint::from_seed(case, 2500));
            }
            let mut dev = Ssd::new(config, case).unwrap();
            let info = dev.geometry_info();
            let mut reqs = Workload::RandomWrite { span: 0.8, read_fraction: 0.2 }.generate(
                &info,
                (info.logical_pages * 3) as usize,
                case,
            );
            for (i, r) in reqs.iter_mut().enumerate() {
                if i % 13 == 5 {
                    *r = IoRequest::trim(r.lpn);
                }
            }
            let timed = poisson_arrivals(&reqs, 300.0, case);
            let tag = format!("case {case} interval {interval}");
            let mut power_cycled = false;
            let mut fresh_checks = 0;
            dev.timed_begin();
            for (i, &(arrival, r)) in timed.iter().enumerate() {
                let lost = match dev.timed_step(arrival, r, QosClass::Standard) {
                    Ok(_) => false,
                    Err(FtlError::PowerLoss) => true,
                    Err(e) => panic!("{tag}: unexpected error {e}"),
                };
                if lost || (i == timed.len() / 2 && !power_cycled) {
                    dev.timed_end();
                    let ckpt_seq = dev.spor_parts().0.checkpoint.seq.clone();
                    let birth = dev.spor_parts().2.unwrap().to_vec();
                    dev.recover().unwrap();
                    assert_checkpoint_is_full_rescan(&dev, &format!("{tag}: after recover"));
                    // A recovered page the old checkpoint covered keeps
                    // its write time; one written after it reports 0.
                    let (seq, _, recovered) = full_rescan_checkpoint(&dev);
                    for lpn in 0..seq.len() {
                        if dev.mapping().lookup(lpn as u64).is_some() {
                            let covered = ckpt_seq.get(lpn) == Some(&seq[lpn]);
                            let want = if covered { birth[lpn] } else { 0.0 };
                            assert_eq!(recovered[lpn], want, "{tag}: recovered age {lpn}");
                        }
                    }
                    power_cycled = true;
                    dev.timed_begin();
                    continue;
                }
                // A checkpoint drawn after the last sequence is current:
                // nothing was programmed or trimmed since it was taken.
                let spor = dev.spor_parts().0;
                let ckpt = &spor.checkpoint;
                if i % 64 == 0 && !ckpt.seq.is_empty() && ckpt.write_seq == spor.write_seq {
                    assert_checkpoint_is_full_rescan(&dev, &format!("{tag}: op {i}"));
                    fresh_checks += 1;
                }
                // Extra checkpoints at arbitrary points stress the
                // change record between interval-driven ones.
                if i % 509 == 0 {
                    dev.take_checkpoint().unwrap();
                    assert_checkpoint_is_full_rescan(&dev, &format!("{tag}: forced at op {i}"));
                }
            }
            dev.timed_end();
            dev.flush().unwrap();
            dev.take_checkpoint().unwrap();
            assert_checkpoint_is_full_rescan(&dev, &format!("{tag}: end"));
            assert!(power_cycled, "{tag}: the stream power-cycles the device");
            assert!(dev.stats().gc_relocations > 0, "{tag}: GC relocated pages");
            if interval < 256 {
                assert!(fresh_checks > 0, "{tag}: some interval checkpoint was checked");
            }
        }
    }
}
