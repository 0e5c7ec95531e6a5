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
//! [`TouchLog`] as `(chip/plane group, duration)`; the replay loop turns the
//! log into per-group occupancy. The log is disabled outside `PerChip`
//! replays so the `Single` path stays untouched.

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
    /// admission, prefix-cached latency synthesis, SoA stat accumulators
    /// folded at `timed_end`.
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
        /// Scratch: summed occupancy per group for the current request.
        agg: Vec<f64>,
        /// Scratch: groups the current request touched.
        touched: Vec<usize>,
        /// Scratch: raw touch-log entries.
        buf: Vec<(usize, f64)>,
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
        /// Scratch: summed occupancy per group for the current request.
        agg: Vec<f64>,
        /// Scratch: groups the current request touched.
        touched: Vec<usize>,
        /// Scratch: raw touch-log entries.
        buf: Vec<(usize, f64)>,
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
/// branch per flash command and nothing else.
#[derive(Debug, Default)]
pub(crate) struct TouchLog {
    enabled: bool,
    entries: Vec<(usize, f64)>,
}

impl TouchLog {
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.entries.clear();
    }

    /// Records `us` of occupancy on a group (or [`CONTROLLER`]).
    pub(crate) fn record(&mut self, group: usize, us: f64) {
        if self.enabled {
            self.entries.push((group, us));
        }
    }

    /// Moves the recorded entries into `buf` (cleared first), leaving the
    /// log empty; buffers swap so neither side reallocates.
    pub(crate) fn take_into(&mut self, buf: &mut Vec<(usize, f64)>) {
        buf.clear();
        std::mem::swap(buf, &mut self.entries);
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
        let mut log = TouchLog::default();
        log.record(0, 5.0);
        let mut buf = Vec::new();
        log.take_into(&mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn enabled_log_round_trips_entries() {
        let mut log = TouchLog::default();
        log.set_enabled(true);
        log.record(2, 5.0);
        log.record(CONTROLLER, 1.0);
        let mut buf = Vec::new();
        log.take_into(&mut buf);
        assert_eq!(buf, vec![(2, 5.0), (CONTROLLER, 1.0)]);
        log.record(1, 3.0);
        log.take_into(&mut buf);
        assert_eq!(buf, vec![(1, 3.0)], "take_into drains the log");
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
