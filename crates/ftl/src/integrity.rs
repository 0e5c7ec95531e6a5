//! Data integrity state: per-LPN write times (the data ages the ECC model
//! reads at) and the patrol scrubber's pass — its due time, scan order and
//! cursor. The device scans each super word-line the pass hands it and
//! refreshes through its own write path.

use crate::config::{IntegrityConfig, PatrolConfig, PatrolOrder};
use crate::gc::Collector;
use flash_model::{BlockAddr, LwlId, PageAddr};
use pvcheck::SpeedClass;

/// Cursors of a patrol pass: the scan-order index of the superblock being
/// scanned and its next logical word-line. They live only in RAM, so a
/// crash mid-pass merely restarts the pass — no mapping state depends on
/// them. Each step scans one super word-line (the same quantum as a GC
/// slice step), so patrol slices preempt at the identical granularity.
#[derive(Debug, Default, Clone, Copy)]
struct PatrolJob {
    sb_cursor: usize,
    lwl_cursor: u32,
}

/// Write times and the patrol pass of one device.
#[derive(Debug, Default)]
pub(crate) struct Integrity {
    config: IntegrityConfig,
    /// Per-LPN write time on the device clock, µs; `Some` only when
    /// integrity tracking is on. Reset on every program of the LPN (a
    /// relocation rewrites the physical charge, so its retention clock
    /// restarts).
    birth_us: Option<Vec<f64>>,
    /// The pass parked between slices; `None` when no pass is mid-flight.
    /// A step takes it out while the device scans, and
    /// [`Integrity::park_patrol`] puts it back, so a step that fails drops
    /// the pass and the next one restarts it.
    job: Option<PatrolJob>,
    /// Cursors of the step the device is scanning.
    scanning: PatrolJob,
    /// Device-clock time at which the next patrol pass is due, µs.
    due_at: f64,
    // The buffers below are refilled in place, so steady-state scanning
    // allocates nothing per super word-line or per pass.
    /// The pass's `(rank, sealed_at, sb_id)` keys in scan order, snapshot
    /// at pass start; ids collected mid-pass no longer resolve and are
    /// skipped.
    order: Vec<(u8, u64, u64)>,
    /// Member blocks of the superblock being scanned.
    members: Vec<BlockAddr>,
    /// Live LPNs of the current super word-line that the scan did not
    /// refresh (the ones a parity mismatch must relocate).
    unrefreshed_live: Vec<u64>,
}

impl Integrity {
    /// Integrity state for a device exporting `logical_pages`.
    pub(crate) fn new(config: &IntegrityConfig, logical_pages: u64) -> Integrity {
        let n = usize::try_from(logical_pages).expect("capacity fits usize");
        let birth_us = config.track.then(|| vec![0.0f64; n]);
        Integrity { config: *config, birth_us, ..Integrity::default() }
    }

    /// Per-LPN write times; `None` when tracking is off.
    pub(crate) fn births(&self) -> Option<&[f64]> {
        self.birth_us.as_deref()
    }

    pub(crate) fn births_mut(&mut self) -> Option<&mut [f64]> {
        self.birth_us.as_deref_mut()
    }

    /// A program at device time `clock` resets the retention clock of every
    /// logical page it wrote — host write, GC relocation and patrol refresh
    /// alike.
    pub(crate) fn programmed(&mut self, assignments: &[(u64, PageAddr)], clock: f64) {
        if let Some(birth) = &mut self.birth_us {
            for &(lpn, _) in assignments {
                birth[usize::try_from(lpn).expect("lpn fits usize")] = clock;
            }
        }
    }

    /// Data age of `lpn` at device time `clock` in retention hours: time
    /// since its last program, scaled by the configured aging
    /// acceleration. `0.0` whenever tracking is off.
    pub(crate) fn age_hours(&self, lpn: u64, clock: f64) -> f64 {
        self.birth_us.as_ref().map_or(0.0, |birth| {
            let born = birth[usize::try_from(lpn).expect("lpn fits usize")];
            (clock - born).max(0.0) * self.config.retention_hours_per_us
        })
    }

    /// Drops a parked pass (RAM lost at power-off).
    pub(crate) fn lose_patrol(&mut self) {
        self.job = None;
    }

    /// Whether patrol wants a slice at device time `clock`: a pass is
    /// mid-flight, or the next one has come due.
    pub(crate) fn patrol_due(&self, clock: f64) -> bool {
        matches!(self.config.patrol, PatrolConfig::On { .. })
            && (self.job.is_some() || clock >= self.due_at)
    }

    /// Patrol's rungs on the QoS ladder at device time `clock`,
    /// `(due, overdue)`: one and two full intervals past its due time.
    pub(crate) fn patrol_pressure(&self, clock: f64) -> (bool, bool) {
        match self.config.patrol {
            PatrolConfig::On { interval_us, .. } => {
                (clock >= self.due_at + interval_us, clock >= self.due_at + 2.0 * interval_us)
            }
            PatrolConfig::Off => (false, false),
        }
    }

    /// The next super word-line of the pass at device time `clock`:
    /// logical word-line `lwl` of the returned members, plus an emptied
    /// buffer for the live pages the scan leaves unrefreshed. Hand both
    /// buffers back through [`Integrity::park_patrol`] after the scan.
    /// `None` once the pass is complete.
    ///
    /// The interval timer re-arms when a pass *starts*, and a pass still
    /// in flight when the next interval comes due is abandoned and
    /// restarted from the front of a freshly sorted order. `interval_us`
    /// is therefore a cadence, not a gap — and when idle bandwidth cannot
    /// cover the whole device per interval, the scan order decides which
    /// pages the scarce budget protects: the tail of the order starves.
    /// Abandonment is safe — staged refreshes stay staged (they flush as
    /// word lines fill or at the next completed pass) and a scanned-twice
    /// page merely costs a redundant read.
    pub(crate) fn next_patrol_wl(
        &mut self,
        clock: f64,
        collector: &Collector,
        lwls_per_block: u32,
    ) -> Option<(LwlId, Vec<BlockAddr>, Vec<u64>)> {
        let PatrolConfig::On { interval_us, .. } = self.config.patrol else {
            return None;
        };
        let mut job = match self.job.take() {
            Some(job) if clock < self.due_at => job,
            _ => {
                self.due_at = clock + interval_us;
                self.fill_order(collector);
                PatrolJob::default()
            }
        };
        loop {
            let &(_, _, sb_id) = self.order.get(job.sb_cursor)?;
            // The superblock may have been collected while the pass was
            // parked; its id then no longer resolves and the cursor skips.
            let sb = collector.sealed().iter().find(|s| s.sb_id() == sb_id);
            let Some(sb) = sb.filter(|_| job.lwl_cursor < lwls_per_block) else {
                job.sb_cursor += 1;
                job.lwl_cursor = 0;
                continue;
            };
            let lwl = LwlId(job.lwl_cursor);
            job.lwl_cursor += 1;
            self.scanning = job;
            let mut members = std::mem::take(&mut self.members);
            members.clear();
            members.extend_from_slice(sb.members());
            let mut unrefreshed_live = std::mem::take(&mut self.unrefreshed_live);
            unrefreshed_live.clear();
            return Some((lwl, members, unrefreshed_live));
        }
    }

    /// Parks the pass after a scanned step, taking back the buffers
    /// [`Integrity::next_patrol_wl`] lent.
    pub(crate) fn park_patrol(&mut self, members: Vec<BlockAddr>, unrefreshed_live: Vec<u64>) {
        self.members = members;
        self.unrefreshed_live = unrefreshed_live;
        self.job = Some(self.scanning);
    }

    /// Refills the sealed-superblock scan order for a new pass. PV-aware
    /// order scans the slow pool first (GC/background data — the cold tail
    /// whose retention ages worst on the worst media), unknown-class
    /// superblocks next, fast ones last, oldest sealed first within each
    /// group; blind order keeps the sealed list's.
    fn fill_order(&mut self, collector: &Collector) {
        let order = &mut self.order;
        order.clear();
        order.extend(collector.sealed().iter().map(|s| {
            let rank = match s.class() {
                Some(SpeedClass::Slow) => 0u8,
                None => 1,
                Some(SpeedClass::Fast) => 2,
            };
            (rank, s.sealed_at(), s.sb_id())
        }));
        if let PatrolConfig::On { order: PatrolOrder::SlowPoolFirst, .. } = self.config.patrol {
            order.sort_unstable();
        }
    }
}
