//! Data integrity: per-LPN write times (the data ages the ECC model reads
//! at) and the patrol scrubber, which walks the sealed superblocks one super
//! word-line at a time and hands the device one step at a time.

use crate::config::{FtlConfig, IntegrityConfig, PatrolConfig, PatrolOrder};
use crate::device::readable_word_line;
use crate::gc::Collector;
use crate::mapping::Mapping;
use crate::parity::Closure;
use crate::stats::SsdStats;
use crate::timing::TouchLog;
use crate::Result;
use flash_model::{BlockAddr, FlashArray, LwlId, PageAddr};
use pvcheck::SpeedClass;

/// What the patrol pass needs from the device next. Each LPN named is
/// restaged after the emergency floor, so refreshes cannot drain the pool.
#[derive(Debug)]
pub(crate) enum PatrolStep {
    /// Refresh this live LPN: it crossed the refresh threshold.
    Refresh(u64),
    /// The super word-line is scanned. Restage these live LPNs so protected
    /// copies replace them: its parity is gone (with a dropped member) or
    /// does not match.
    Scanned(Vec<u64>),
    /// The pass is complete: flush the GC slot so the refreshed copies are
    /// durable and the rotting ones stop being read.
    PassDone,
}

/// The device as a patrol step reads it, at device time `clock`, µs.
pub(crate) struct DeviceView<'a> {
    pub(crate) clock: f64,
    pub(crate) array: &'a FlashArray,
    pub(crate) mapping: &'a Mapping,
    pub(crate) collector: &'a Collector,
}

/// A pass's cursors, RAM-only (a crash merely restarts the pass): the
/// scan-order index of the superblock, its next logical word-line, and the
/// scan of `lwl` — next member and slot, live pages read, closure check.
#[derive(Debug, Default, Clone, Copy)]
struct PatrolJob {
    sb_cursor: usize,
    lwl_cursor: u32,
    lwl: LwlId,
    member: usize,
    slot: u32,
    live: u64,
    closure: Closure,
}

/// Write times and the patrol pass of one device.
#[derive(Debug, Default)]
pub(crate) struct Integrity {
    config: IntegrityConfig,
    /// Projected error bits at which patrol refreshes a page.
    refresh_at: f64,
    /// Whether stripes carry parity for the scan to verify.
    parity: bool,
    /// Per-LPN write time on the device clock, µs, when tracking is on.
    /// Every program resets it: a relocation rewrites the charge too.
    birth_us: Option<Vec<f64>>,
    /// The pass in flight; `None` when no pass is.
    job: Option<PatrolJob>,
    /// Device-clock time at which the next patrol pass is due, µs.
    due_at: f64,
    // The buffers below are refilled in place, so steady-state scanning
    // allocates nothing per super word-line or per pass.
    /// The pass's `(rank, sealed_at, sb_id)` keys in scan order, snapshot
    /// at pass start; ids collected mid-pass are skipped.
    order: Vec<(u8, u64, u64)>,
    /// Members of the superblock being scanned, snapshot at word-line
    /// start: a refresh may collect the superblock mid-scan.
    members: Vec<BlockAddr>,
    /// Live LPNs of the word-line the scan did not refresh.
    unrefreshed: Vec<u64>,
}

impl Integrity {
    /// Integrity state for a device of `config` exporting `logical_pages`.
    pub(crate) fn new(config: &FtlConfig, logical_pages: u64) -> Integrity {
        let n = usize::try_from(logical_pages).expect("capacity fits usize");
        let limit = config.retry.uncorrectable_limit();
        let refresh_at = match config.integrity.patrol {
            PatrolConfig::On { refresh_fraction, .. } => refresh_fraction * limit,
            PatrolConfig::Off => f64::INFINITY,
        };
        Integrity {
            config: config.integrity,
            refresh_at,
            parity: config.parity.enabled(),
            birth_us: config.integrity.track.then(|| vec![0.0f64; n]),
            ..Integrity::default()
        }
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

    /// Drops the pass in flight: RAM lost at power-off, or a failed step.
    pub(crate) fn lose_patrol(&mut self) {
        self.job = None;
    }

    /// Whether patrol wants another super word-line at device time `clock`
    /// (a pass is in flight, or the next is due) after `spent_us` of a
    /// `budget_us` opportunity. The configured slice caps the budget, so
    /// scrubbing stays a trickle however long the idle gap.
    pub(crate) fn patrol_wants(&self, clock: f64, spent_us: f64, budget_us: f64) -> bool {
        let PatrolConfig::On { slice_us, .. } = self.config.patrol else { return false };
        (self.job.is_some() || clock >= self.due_at) && spent_us < budget_us.min(slice_us)
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

    /// The pass's next step, scanning the next super word-line or the rest
    /// of one a refresh interrupted: each member's slots in order through
    /// one view, every live page read adding its occupancy to `touches` and
    /// its time to `time`, the word-line's running total. A refresh ends the
    /// view, since it may program, erase or collect this very block.
    pub(crate) fn patrol_step(
        &mut self,
        dev: &DeviceView,
        touches: &mut TouchLog,
        stats: &mut SsdStats,
        time: &mut f64,
    ) -> Result<PatrolStep> {
        let job = match self.job.take() {
            Some(job) if job.member < self.members.len() => Some(job),
            job => self.next_word_line(job, dev),
        };
        let Some(mut job) = job else { return Ok(PatrolStep::PassDone) };
        let geo = dev.array.geometry();
        let pages = geo.pages_per_lwl();
        let step = 'scan: {
            while let Some(&member) = self.members.get(job.member) {
                // An unwritten or torn word-line has nothing to scan.
                let wl = member.wl(job.lwl);
                let view = if job.slot < pages { readable_word_line(dev.array, wl)? } else { None };
                let group = geo.chip_plane_index(member);
                while let Some(line) = view.as_ref().filter(|_| job.slot < pages) {
                    let k = job.slot;
                    job.slot += 1;
                    let (page, oob) = (line.page(k), line.oob(k));
                    if self.parity && !job.closure.visit(page, oob) {
                        continue;
                    }
                    if oob.is_filler() || dev.mapping.lookup(oob.lpn) != Some(page) {
                        continue; // filler or a stale copy: nothing to protect
                    }
                    let (tag, t_read) = line.read(k);
                    debug_assert_eq!(tag, oob.lpn);
                    touches.record(group, t_read);
                    *time += t_read;
                    stats.patrol_scanned_pages += 1;
                    job.live += 1;
                    let bits = line.expected_error_bits(k, self.age_hours(oob.lpn, dev.clock));
                    if bits >= self.refresh_at {
                        break 'scan PatrolStep::Refresh(oob.lpn);
                    }
                    if self.parity {
                        self.unrefreshed.push(oob.lpn);
                    }
                }
                job.member += 1;
                job.slot = 0;
            }
            if !self.parity || job.live == 0 {
                break 'scan PatrolStep::Scanned(Vec::new());
            }
            let verified = match job.closure.verify(dev.array)? {
                Some((closes, block, t_read)) => {
                    touches.record(geo.chip_plane_index(block), t_read);
                    *time += t_read;
                    closes
                }
                None => false,
            };
            if verified {
                stats.parity_verified += 1;
                break 'scan PatrolStep::Scanned(Vec::new());
            }
            stats.parity_mismatch += 1;
            PatrolStep::Scanned(self.unrefreshed.clone())
        };
        self.job = Some(job);
        Ok(step)
    }

    /// Moves the pass on to its next super word-line, snapshotting the
    /// superblock's members; `None` once the pass is complete.
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
    fn next_word_line(&mut self, job: Option<PatrolJob>, dev: &DeviceView) -> Option<PatrolJob> {
        let PatrolConfig::On { interval_us, .. } = self.config.patrol else { return None };
        let mut job = match job {
            Some(job) if dev.clock < self.due_at => job,
            _ => {
                self.due_at = dev.clock + interval_us;
                self.fill_order(dev.collector);
                PatrolJob::default()
            }
        };
        let lwls = dev.array.geometry().lwls_per_block();
        while let Some(&(_, _, sb_id)) = self.order.get(job.sb_cursor) {
            // The superblock may have been collected while the pass was
            // parked; its id then no longer resolves and the cursor skips.
            let sb = dev.collector.sealed().iter().find(|s| s.sb_id() == sb_id);
            if let Some(sb) = sb.filter(|_| job.lwl_cursor < lwls) {
                self.members.clear();
                self.members.extend_from_slice(sb.members());
                self.unrefreshed.clear();
                let (sb_cursor, lwl_cursor, lwl) =
                    (job.sb_cursor, job.lwl_cursor + 1, LwlId(job.lwl_cursor));
                return Some(PatrolJob { sb_cursor, lwl_cursor, lwl, ..PatrolJob::default() });
            }
            job.sb_cursor += 1;
            job.lwl_cursor = 0;
        }
        None
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
