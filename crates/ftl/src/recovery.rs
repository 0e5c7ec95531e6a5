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

use flash_model::BlockAddr;
use std::collections::HashMap;

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
    /// (`0` = only the initial empty checkpoint, so recovery scans
    /// everything written since power-on).
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
pub(crate) enum JournalEntry {
    /// A superblock was opened with these members (erases all succeeded).
    Opened {
        /// Superblock identifier.
        sb_id: u64,
        /// Member blocks in slot order.
        members: Vec<BlockAddr>,
    },
    /// A sealed superblock was garbage-collected; its blocks returned to
    /// the free pools and must not be scanned under this identity.
    Freed {
        /// Superblock identifier.
        sb_id: u64,
    },
    /// A block was retired to the bad-block table.
    Retired {
        /// Retired block.
        addr: BlockAddr,
    },
    /// A logical page was trimmed; the sequence number tombstones any
    /// on-flash copy with a lower sequence.
    Trimmed {
        /// Trimmed logical page.
        lpn: u64,
        /// Tombstone sequence number.
        seq: u64,
    },
}

/// [`Checkpoint::loc`] value of an LPN that maps to no page.
pub(crate) const NO_PAGE: u64 = u64::MAX;

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
pub(crate) struct Checkpoint {
    /// Per-LPN sequence number: the OOB write sequence of the page the LPN
    /// maps to, else its trim tombstone sequence, else 0 (never written
    /// and never trimmed: no entry).
    pub seq: Vec<u64>,
    /// Per-LPN location as a `Geometry::page_index`; [`NO_PAGE`] for
    /// tombstones and absent entries.
    pub loc: Vec<u64>,
    /// Sealed superblocks at checkpoint time: `(sb_id, members, sealed_at)`.
    pub sealed: Vec<(u64, Vec<BlockAddr>, u64)>,
    /// Open superblocks at checkpoint time: `(sb_id, members)`.
    pub actives: Vec<(u64, Vec<BlockAddr>)>,
    /// Next write sequence number.
    pub write_seq: u64,
    /// Next superblock identifier.
    pub sb_seq: u64,
    /// Next seal ordinal (GC age clock).
    pub seal_seq: u64,
    /// Bad-block table.
    pub retired: Vec<BlockAddr>,
    /// Per-LPN write time, device-clock µs at the program of the page in
    /// `loc` (only meaningful where `loc` names a page). Lets recovery
    /// rebuild data ages from the OOB scan: a winner whose sequence equals
    /// `seq[lpn]` takes this time; any other winner was written after this
    /// checkpoint and conservatively reports age since power-on, so patrol
    /// re-examines it early rather than never. Empty unless integrity
    /// tracking is on.
    pub birth: Vec<f64>,
}

/// Live SPOR state inside the device: countdown to the injected crash, the
/// journal since the last checkpoint, and that checkpoint. The mapping's
/// change record (`Mapping::track_changes`) names the LPNs the next
/// checkpoint must refresh.
#[derive(Debug)]
pub(crate) struct SporState {
    /// Flash ops remaining until the injected crash fires (`None` = never).
    countdown: Option<u64>,
    /// Whether power has been lost; cleared by recovery.
    pub crashed: bool,
    /// Journal entries since the last checkpoint.
    pub journal: Vec<JournalEntry>,
    /// The last checkpoint taken.
    pub checkpoint: Checkpoint,
    /// Super word-line programs since the last checkpoint.
    pub superwls_since_ckpt: u64,
    /// Next write sequence number. Sequences are drawn in OOB-build order
    /// (the order page assignments are applied to the mapping), so the
    /// highest sequence number of an LPN always names the copy the RAM
    /// mapping ended up pointing at — even when one LPN occurs several
    /// times inside a single super word-line.
    pub write_seq: u64,
    /// Per-LPN trim tombstone sequences (latest trim wins). Never pruned:
    /// an old on-flash copy can outlive many checkpoints inside a
    /// long-lived superblock and must still lose to its tombstone.
    pub trim_seqs: HashMap<u64, u64>,
}

impl SporState {
    pub(crate) fn new(config: &SporConfig) -> SporState {
        SporState {
            countdown: config.crash.map(|c| c.op_index()),
            crashed: false,
            journal: Vec::new(),
            checkpoint: Checkpoint::default(),
            superwls_since_ckpt: 0,
            write_seq: 1,
            trim_seqs: HashMap::new(),
        }
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
        match self.countdown.as_mut() {
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    self.countdown = None;
                    self.crashed = true;
                    true
                } else {
                    false
                }
            }
            None => false,
        }
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
        let mut s = SporState::new(&config);
        assert!(s.op_fires(), "op index 1 fires on the first op");
        assert!(s.crashed);
        assert!(!s.op_fires(), "a crash fires once");
    }

    #[test]
    fn no_crash_configured_never_fires() {
        let mut s = SporState::new(&SporConfig::default());
        for _ in 0..10_000 {
            assert!(!s.op_fires());
        }
        assert!(!s.crashed);
    }
}
