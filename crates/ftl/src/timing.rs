//! Timing models for open-loop trace replay ([`crate::Ssd::run_timed`]).
//!
//! The device can be clocked two ways:
//!
//! * [`QueueModel::Single`] — one scalar `device_free_at` clock: every
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
//! occupancy as it records; the replay loop then charges those sums to the
//! group clocks. The log is disabled outside `PerChip` replays so the
//! `Single` path stays untouched.

/// Which timing model [`crate::Ssd::run_timed`] uses. See the
/// [module docs](self) for the two models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueModel {
    /// One device-wide command queue (the original scalar clock).
    #[default]
    Single,
    /// Per-chip/plane busy-until clocks; requests overlap across chips.
    PerChip,
}

/// Which replay engine drives timed replays (orthogonal to [`QueueModel`]:
/// both engines implement both queue models).
///
/// `Stepper` is the original per-op loop, kept untouched as the golden
/// oracle; `Batched` is the event-driven core (see [`crate::sched`]) whose
/// entire stat set is asserted bit-identical to the stepper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// Original one-op-at-a-time replay loop (golden oracle).
    #[default]
    Stepper,
    /// Event-driven core: sorted-ring completion tracking, batched
    /// admission, SoA stat accumulators folded at `timed_end`.
    Batched,
}

impl EngineMode {
    /// Short machine-readable label (used in CSV output and CLI flags).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Stepper => "stepper",
            EngineMode::Batched => "batched",
        }
    }
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

/// Live clock state of an in-progress timed replay — one variant per
/// [`QueueModel`]. Created by [`crate::Ssd::timed_begin`], advanced by
/// [`crate::Ssd::timed_step`], folded into the stats by
/// [`crate::Ssd::timed_end`].
#[derive(Debug)]
pub(crate) enum EngineState {
    /// One scalar device-wide clock.
    Single {
        /// When the single command queue drains.
        device_free_at: f64,
        /// Open-loop depth tracker.
        in_flight: InFlight,
    },
    /// Per chip/plane group busy-until clocks plus the host channel.
    PerChip {
        /// Busy-until clock per group; the last slot is the controller.
        busy: Vec<f64>,
        /// Open-loop depth tracker.
        in_flight: InFlight,
        /// Latest completion seen so far.
        makespan: f64,
    },
    /// Event-driven scalar clock ([`EngineMode::Batched`] +
    /// [`QueueModel::Single`]): same math as `Single`, but completions live
    /// in a sorted-ring depth tracker and latency samples defer to SoA
    /// accumulators.
    BatchedSingle {
        /// When the single command queue drains.
        device_free_at: f64,
        /// Sorted-ring completion tracker (same counts as [`InFlight`]).
        in_flight: crate::sched::DepthTracker,
        /// Deferred latency samples, folded into the histograms at
        /// `timed_end`.
        samples: BatchedSamples,
    },
    /// Event-driven per-chip clocks ([`EngineMode::Batched`] +
    /// [`QueueModel::PerChip`]).
    BatchedPerChip {
        /// Busy-until clock per group; the last slot is the controller.
        busy: Vec<f64>,
        /// Sorted-ring completion tracker (same counts as [`InFlight`]).
        in_flight: crate::sched::DepthTracker,
        /// Latest completion seen so far.
        makespan: f64,
        /// Deferred latency samples, folded into the histograms at
        /// `timed_end`.
        samples: BatchedSamples,
    },
}

/// Struct-of-arrays latency accumulators of a batched replay: per-op
/// samples pile up here in op order and fold into
/// [`crate::LatencyHistogram`]s in one `extend` at `timed_end`, skipping a
/// per-op cache invalidation and a `record`/`replace_last` pair while
/// keeping the final sample vectors — and so every derived statistic —
/// bit-identical to the stepper's.
#[derive(Debug, Default)]
pub(crate) struct BatchedSamples {
    /// Queue-inclusive write latencies, in write order.
    pub(crate) write: Vec<f64>,
    /// Queue-inclusive read latencies (hits) and bare waits (misses), in
    /// read order.
    pub(crate) read: Vec<f64>,
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

/// Completion-time heap tracking how many requests are queued or in service
/// at each arrival (open-loop queue depth).
#[derive(Debug, Default)]
pub(crate) struct InFlight {
    /// Min-heap of completion times (reversed max-heap over total order).
    completions: std::collections::BinaryHeap<std::cmp::Reverse<TotalF64>>,
}

impl InFlight {
    /// Retires requests completed by `arrival`; returns how many are still
    /// in flight (excluding the arriving one).
    pub(crate) fn arrive(&mut self, arrival: f64) -> usize {
        while self.completions.peek().is_some_and(|c| c.0 .0 <= arrival) {
            self.completions.pop();
        }
        self.completions.len()
    }

    /// Registers a request completing at `at`.
    pub(crate) fn complete_at(&mut self, at: f64) {
        self.completions.push(std::cmp::Reverse(TotalF64(at)));
    }
}

/// `f64` wrapper ordered by `total_cmp` so it can live in a heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TotalF64(f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
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

    #[test]
    fn in_flight_depth_tracks_overlapping_requests() {
        let mut q = InFlight::default();
        assert_eq!(q.arrive(0.0), 0);
        q.complete_at(10.0);
        q.complete_at(20.0);
        assert_eq!(q.arrive(5.0), 2, "both still running at t=5");
        assert_eq!(q.arrive(10.0), 1, "first completed exactly at t=10");
        assert_eq!(q.arrive(25.0), 0);
    }
}
