//! Timing models for open-loop trace replay ([`crate::Ssd::run_timed`]).
//!
//! One replay step serves both models; only the [`Clocks`] it advances
//! differ. The device can be clocked two ways:
//!
//! * [`QueueModel::Single`] — one scalar `free_at` clock: every
//!   request serializes behind every other, as if the SSD had a single
//!   command queue. This is the original model and stays bit-identical.
//! * [`QueueModel::PerChip`] — one busy-until clock per chip/plane group
//!   plus one for the host channel: a request waits only for the resources
//!   it actually touches, so a superpage program occupies exactly its member
//!   chips until `max(tPROG)` while reads and programs on other chips
//!   proceed. This is the overlap QSTR-MED's superpage striping exploits.
//!
//! During a `PerChip` replay the device records every flash command into a
//! [`TouchLog`] as `(chip/plane group, duration)`, which sums each group's
//! occupancy as it records; the replay step then charges those sums to the
//! group clocks. The log is disabled outside `PerChip` replays so the
//! `Single` path stays untouched.

/// Which timing model [`crate::Ssd::run_timed`] uses: one device-wide
/// command queue, or per-chip clocks that let work overlap across chips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueModel {
    /// One device-wide command queue (the original scalar clock).
    #[default]
    Single,
    /// Per-chip/plane busy-until clocks; requests overlap across chips.
    PerChip,
}

/// Which replay engine drives timed replays. There is one engine, so this
/// selects nothing.
///
/// [`crate::FtlConfig::engine`] keeps the type alive only because the
/// benchmark package's device, tenant and fleet workloads name
/// `EngineMode::Batched`; both go in the next change to the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// The one timed replay engine.
    #[default]
    Batched,
}

/// Sentinel group index for the host channel/controller resource (page
/// transfers); replay maps it to the slot after the last chip/plane group.
pub(crate) const CONTROLLER: usize = usize::MAX;

/// Where one [`crate::Ssd::timed_step`] landed on the device clocks.
///
/// All times are absolute simulation microseconds on the replay clock that
/// started at [`crate::Ssd::timed_begin`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedOutcome {
    /// Queueing delay: time between the request's arrival and its service
    /// starting, µs.
    pub wait_us: f64,
    /// Service time of the request itself, µs.
    pub service_us: f64,
    /// Absolute time service started, µs.
    pub start_us: f64,
    /// Absolute time the request completed, µs.
    pub completion_us: f64,
}

/// An in-progress timed replay: created by [`crate::Ssd::timed_begin`],
/// advanced by [`crate::Ssd::timed_step`], folded into the stats by
/// [`crate::Ssd::timed_end`].
#[derive(Debug)]
pub(crate) struct Replay {
    /// The device clocks of the configured [`QueueModel`].
    pub(crate) clocks: Clocks,
    /// Completions still in flight, for the open-loop queue depth.
    pub(crate) in_flight: crate::sched::DepthTracker,
}

/// The device clocks of a replay, one variant per [`QueueModel`].
#[derive(Debug)]
pub(crate) enum Clocks {
    /// One scalar clock: when the single command queue drains.
    Single { free_at: f64 },
    /// Busy-until clock per chip/plane group, the controller last, plus the
    /// latest completion seen so far.
    PerChip { busy: Vec<f64>, makespan: f64 },
}

impl Clocks {
    /// When every clock has drained: the start of the idle gap before the
    /// next arrival.
    pub(crate) fn drained_at(&self) -> f64 {
        match self {
            Clocks::Single { free_at } => *free_at,
            Clocks::PerChip { busy, .. } => busy.iter().fold(0.0f64, |a, &b| a.max(b)),
        }
    }

    /// Charges `us` of idle-gap background work. The scalar clock advances
    /// by `us`; per-chip clocks charge only the groups the work touched.
    pub(crate) fn charge_idle(
        &mut self,
        us: f64,
        touches: &mut TouchLog,
        chip_busy_us: &mut [f64],
    ) {
        match self {
            Clocks::Single { free_at } => *free_at += us,
            Clocks::PerChip { busy, .. } => {
                touches.charge(0.0, busy, chip_busy_us);
            }
        }
    }

    /// When a request arriving at `arrival` starts. Per-chip clocks wait for
    /// every group the request touched and charge it to them.
    pub(crate) fn start(
        &mut self,
        arrival: f64,
        touches: &mut TouchLog,
        chip_busy_us: &mut [f64],
    ) -> f64 {
        match self {
            Clocks::Single { free_at } => free_at.max(arrival),
            Clocks::PerChip { busy, .. } => touches.charge(arrival, busy, chip_busy_us),
        }
    }

    /// Registers the request's completion at `at`.
    pub(crate) fn complete(&mut self, at: f64) {
        match self {
            Clocks::Single { free_at } => *free_at = at,
            Clocks::PerChip { makespan, .. } => *makespan = makespan.max(at),
        }
    }

    /// When the replay's last work finishes.
    pub(crate) fn makespan(&self) -> f64 {
        match self {
            Clocks::Single { free_at } => *free_at,
            Clocks::PerChip { makespan, .. } => makespan.max(self.drained_at()),
        }
    }
}

/// Records which chip/plane groups each request occupies and for how long.
///
/// Recording is off by default; [`crate::Ssd::run_timed`] enables it only
/// for `PerChip` replays, so untimed runs and the `Single` model pay one
/// branch per flash command and nothing else. While on, each group's
/// occupancy is summed in record order starting from 0, and the groups are
/// listed in first-touch order, until [`TouchLog::charge`] consumes them.
#[derive(Debug)]
pub(crate) struct TouchLog {
    enabled: bool,
    /// Summed occupancy per group since the last charge; [`CONTROLLER`]
    /// sums in the last slot.
    sums: Vec<f64>,
    /// Groups with a recorded touch since the last charge, in first-touch
    /// order.
    touched: Vec<usize>,
}

impl TouchLog {
    /// A disabled log over `groups` chip/plane groups plus the controller.
    pub(crate) fn new(groups: usize) -> Self {
        TouchLog { enabled: false, sums: vec![0.0; groups + 1], touched: Vec::new() }
    }

    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        for &g in &self.touched {
            self.sums[g] = 0.0;
        }
        self.touched.clear();
    }

    /// Records `us` of occupancy on a group (or [`CONTROLLER`]).
    #[inline]
    pub(crate) fn record(&mut self, group: usize, us: f64) {
        if self.enabled {
            let g = if group == CONTROLLER { self.sums.len() - 1 } else { group };
            if !self.touched.contains(&g) {
                self.touched.push(g);
            }
            self.sums[g] += us;
        }
    }

    /// Charges everything recorded since the last charge to the busy-until
    /// clocks `busy` (one per group, the controller last) and the running
    /// totals `busy_us`, then empties the log. The work starts once every
    /// touched group is free and no earlier than `not_before`; each touched
    /// group then stays busy for its own summed occupancy. Returns the
    /// start time.
    pub(crate) fn charge(&mut self, not_before: f64, busy: &mut [f64], busy_us: &mut [f64]) -> f64 {
        let start = self.touched.iter().fold(not_before, |a, &g| a.max(busy[g]));
        for &g in &self.touched {
            busy[g] = start + self.sums[g];
            busy_us[g] += self.sums[g];
            self.sums[g] = 0.0;
        }
        self.touched.clear();
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TouchLog::new(2);
        log.record(0, 5.0);
        let (mut busy, mut total) = (vec![1.0; 3], vec![0.0; 3]);
        assert_eq!(log.charge(0.5, &mut busy, &mut total), 0.5, "nothing touched, no wait");
        assert_eq!((busy, total), (vec![1.0; 3], vec![0.0; 3]));
    }

    #[test]
    fn enabled_log_round_trips_entries() {
        let mut log = TouchLog::new(3);
        log.set_enabled(true);
        log.record(2, 5.0);
        log.record(CONTROLLER, 1.0);
        log.record(2, 0.25);
        assert_eq!(log.touched, vec![2, 3], "first-touch order, controller last slot");
        assert_eq!(log.sums, vec![0.0, 0.0, 5.25, 1.0]);
        let mut busy = vec![0.0, 0.0, 7.0, 2.0];
        let mut total = vec![0.0; 4];
        // Starts once group 2 frees at 7.0; each group stays busy for its
        // own sum.
        assert_eq!(log.charge(3.0, &mut busy, &mut total), 7.0);
        assert_eq!(busy, vec![0.0, 0.0, 12.25, 8.0]);
        assert_eq!(total, vec![0.0, 0.0, 5.25, 1.0]);
        log.record(1, 3.0);
        assert_eq!(log.charge(20.0, &mut busy, &mut total), 20.0, "charge drains the log");
        assert_eq!(busy, vec![0.0, 23.0, 12.25, 8.0]);
        assert_eq!(total, vec![0.0, 3.0, 5.25, 1.0]);
        // Disabling drops anything recorded but not charged.
        log.record(0, 9.0);
        log.set_enabled(false);
        assert!(log.touched.is_empty() && log.sums.iter().all(|&s| s == 0.0));
    }
}
