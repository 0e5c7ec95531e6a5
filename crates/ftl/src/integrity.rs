//! Data integrity: per-LPN write times (the data ages the ECC model reads
//! at) and the patrol scrubber, which walks the sealed superblocks one super
//! word-line at a time, a run of word-lines per call, and hands the device
//! only the steps it must take itself.

use crate::config::{FtlConfig, IntegrityConfig, PatrolConfig, PatrolOrder};
use crate::gc::Collector;
use crate::mapping::Mapping;
use crate::media::Media;
use crate::parity::Closure;
use crate::stats::SsdStats;
use crate::Result;
use flash_model::{BlockHandle, LwlId, PageAddr};
use pvcheck::SpeedClass;

/// What a patrol run needs from the device next. Each LPN named is
/// restaged after the emergency floor, so refreshes cannot drain the pool.
#[derive(Debug)]
pub(crate) enum PatrolStep {
    /// Refresh this live LPN: it crossed the refresh threshold. The scan
    /// resumes after it, mid-word-line.
    Refresh(u64),
    /// The super word-line is scanned but its parity is gone (with a
    /// dropped member) or does not match: restage these live LPNs so
    /// protected copies replace them.
    Restage(Vec<u64>),
    /// The pass is complete: flush the GC slot so the refreshed copies are
    /// durable and the rotting ones stop being read.
    PassDone,
    /// The slice is spent, or no pass is in flight or due.
    Yield,
}

/// Patrol time within one slice, µs: the slice's total, and the running
/// total of the super word-line in progress — its reads and the time of
/// the device steps it asked for, summed from 0.0 in step order — which
/// joins the slice's when the word-line ends.
#[derive(Debug, Default)]
pub(crate) struct PatrolTime {
    pub(crate) slice: f64,
    pub(crate) line: f64,
}

/// The device as a patrol run reads and charges it, at device time `clock`, µs.
pub(crate) struct DeviceView<'a> {
    pub(crate) clock: f64,
    pub(crate) media: &'a mut Media,
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
    /// Handles on the members of superblock `members_of`, in slot order.
    /// A sealed superblock's members never change, so they are kept across
    /// word-lines and runs while it stays sealed; a read retakes a handle's
    /// terms only when its block's P/E count moved (a refresh may collect
    /// the superblock mid-scan and reuse its blocks).
    members: Vec<BlockHandle>,
    members_of: Option<u64>,
    /// Where `members_of` sat in the sealed list when last found: checked
    /// before searching the list, since ids are unique and a superblock
    /// moves only when another is freed.
    sealed_at: usize,
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
        age_hours(self.birth_us.as_deref(), self.config.retention_hours_per_us, lpn, clock)
    }

    /// Drops the pass in flight: RAM lost at power-off, or a failed step.
    /// The member handles go too: recovery may rebuild a superblock's
    /// member list under the same id.
    pub(crate) fn lose_patrol(&mut self) {
        self.job = None;
        self.members_of = None;
    }

    /// Whether a patrol is configured at all: with `PatrolConfig::Off` no
    /// run ever scans, so callers skip it.
    pub(crate) fn patrols(&self) -> bool {
        matches!(self.config.patrol, PatrolConfig::On { .. })
    }

    /// Whether patrol wants another super word-line at device time `clock`
    /// (a pass is in flight, or the next is due) after `spent_us` of a
    /// `budget_us` opportunity. The configured slice caps the budget, so
    /// scrubbing stays a trickle however long the idle gap.
    fn patrol_wants(&self, clock: f64, spent_us: f64, budget_us: f64) -> bool {
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

    /// Scans a run of super word-lines within a `budget_us` slice at device
    /// time `dev.clock`, resuming one a refresh interrupted, until the
    /// device must act — a refresh, a restage, the flush of a finished pass
    /// — or the slice yields. Every live page read is charged to its chip
    /// and adds its time to `time.line`; each finished word-line then
    /// joins `time.slice`, and [`Integrity::patrol_wants`] is asked only
    /// between word-lines. Only the device's steps move its clock, so one
    /// clock serves the run and the next run reads a fresh one.
    pub(crate) fn patrol_run(
        &mut self,
        dev: &mut DeviceView,
        stats: &mut SsdStats,
        budget_us: f64,
        time: &mut PatrolTime,
    ) -> Result<PatrolStep> {
        loop {
            if self.job.is_none_or(|job| job.member >= self.members.len()) {
                time.slice += std::mem::take(&mut time.line);
                if !self.patrol_wants(dev.clock, time.slice, budget_us) {
                    return Ok(PatrolStep::Yield);
                }
                let job = self.job.take();
                let Some(job) = self.next_word_line(job, dev)? else {
                    return Ok(PatrolStep::PassDone);
                };
                self.job = Some(job);
            }
            if let Some(step) = self.scan(dev, stats, &mut time.line)? {
                return Ok(step);
            }
        }
    }

    /// Scans the rest of the super word-line in progress: each member's
    /// slots in order through its handle, then the stripe's closure check.
    /// `Some` step when the device must act first. A refresh ends the
    /// member's view, since it may program, erase or collect this very
    /// block; the next view retakes the handle's terms if it did.
    fn scan(
        &mut self,
        dev: &mut DeviceView,
        stats: &mut SsdStats,
        time: &mut f64,
    ) -> Result<Option<PatrolStep>> {
        let (birth, rate) = (self.birth_us.as_deref(), self.config.retention_hours_per_us);
        let job = self.job.as_mut().expect("a word-line is in progress");
        let (array, mut meter) = dev.media.split();
        let geo = array.geometry();
        let pages = geo.pages_per_lwl();
        while let Some(member) = self.members.get_mut(job.member) {
            // An unwritten or torn word-line has nothing to scan.
            let view = if job.slot < pages { array.readable_line(member, job.lwl)? } else { None };
            // Slot `k`'s page index is slot 0's plus `k`: one encode per view.
            let first = view.as_ref().map_or(0, |line| geo.page_index(line.page(0)));
            while let Some(line) = view.as_ref().filter(|_| job.slot < pages) {
                let k = job.slot;
                job.slot += 1;
                let (page, oob) = (line.page(k), line.oob(k));
                if self.parity && !job.closure.visit(job.member, page, oob) {
                    continue;
                }
                // Liveness from the reverse table, read in page order.
                let live = dev.mapping.reverse_at(first + k as usize) == Some(oob.lpn);
                if oob.is_filler() || !live {
                    continue; // filler or a stale copy: nothing to protect
                }
                let t_read = line.read(k);
                debug_assert_eq!(line.peek(k), oob.lpn);
                meter.occupy(page.wl.block, t_read);
                *time += t_read;
                stats.patrol_scanned_pages += 1;
                job.live += 1;
                let bits = line.expected_error_bits(k, age_hours(birth, rate, oob.lpn, dev.clock));
                if bits >= self.refresh_at {
                    return Ok(Some(PatrolStep::Refresh(oob.lpn)));
                }
                if self.parity {
                    self.unrefreshed.push(oob.lpn);
                }
            }
            job.member += 1;
            job.slot = 0;
        }
        if !self.parity || job.live == 0 {
            return Ok(None);
        }
        let verified = match job.closure.verify(dev.media, &mut self.members)? {
            Some((closes, t_read)) => {
                *time += t_read;
                closes
            }
            None => false,
        };
        if verified {
            stats.parity_verified += 1;
            return Ok(None);
        }
        stats.parity_mismatch += 1;
        Ok(Some(PatrolStep::Restage(self.unrefreshed.clone())))
    }

    /// Moves the pass on to its next super word-line, taking handles on
    /// the superblock's members unless they are the ones already held;
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
    fn next_word_line(
        &mut self,
        job: Option<PatrolJob>,
        dev: &DeviceView,
    ) -> Result<Option<PatrolJob>> {
        let PatrolConfig::On { interval_us, .. } = self.config.patrol else { return Ok(None) };
        let mut job = match job {
            Some(job) if dev.clock < self.due_at => job,
            _ => {
                self.due_at = dev.clock + interval_us;
                self.fill_order(dev.collector);
                PatrolJob::default()
            }
        };
        let array = dev.media.array();
        let lwls = array.geometry().lwls_per_block();
        let sealed = dev.collector.sealed();
        while let Some(&(_, _, sb_id)) = self.order.get(job.sb_cursor) {
            // The superblock may have been collected while the pass was
            // parked; its id then no longer resolves and the cursor skips.
            let at = match sealed.get(self.sealed_at) {
                Some(sb) if sb.sb_id() == sb_id => Some(self.sealed_at),
                _ => sealed.iter().position(|sb| sb.sb_id() == sb_id),
            };
            if let Some(at) = at.filter(|_| job.lwl_cursor < lwls) {
                self.sealed_at = at;
                if self.members_of != Some(sb_id) {
                    self.members.clear();
                    for &m in sealed[at].members() {
                        self.members.push(array.block(m)?);
                    }
                    self.members_of = Some(sb_id);
                }
                self.unrefreshed.clear();
                let (sb_cursor, lwl_cursor, lwl) =
                    (job.sb_cursor, job.lwl_cursor + 1, LwlId(job.lwl_cursor));
                return Ok(Some(PatrolJob { sb_cursor, lwl_cursor, lwl, ..PatrolJob::default() }));
            }
            job.sb_cursor += 1;
            job.lwl_cursor = 0;
        }
        Ok(None)
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

/// Data age of `lpn` at device time `clock` in retention hours, from the
/// write times `birth` (`None`: tracking off, age 0.0) aged at `rate`.
fn age_hours(birth: Option<&[f64]>, rate: f64, lpn: u64, clock: f64) -> f64 {
    match birth {
        // Without aging every age is a finite span times 0.0: exactly 0.0.
        Some(birth) if rate != 0.0 => {
            let born = birth[usize::try_from(lpn).expect("lpn fits usize")];
            (clock - born).max(0.0) * rate
        }
        _ => 0.0,
    }
}
