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
//! During a `PerChip` replay [`crate::media::Media`] records every flash
//! command, charged read and host transfer as it runs, summing each
//! group's occupancy; the replay step then charges those sums to the group
//! clocks. Recording is off outside `PerChip` replays so the `Single` path
//! stays untouched.

use crate::media::Media;

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
    pub(crate) fn charge_idle(&mut self, us: f64, media: &mut Media, chip_busy_us: &mut [f64]) {
        match self {
            Clocks::Single { free_at } => *free_at += us,
            Clocks::PerChip { busy, .. } => {
                media.charge(0.0, busy, chip_busy_us);
            }
        }
    }

    /// When a request arriving at `arrival` starts. Per-chip clocks wait for
    /// every group the request touched and charge it to them.
    pub(crate) fn start(
        &mut self,
        arrival: f64,
        media: &mut Media,
        chip_busy_us: &mut [f64],
    ) -> f64 {
        match self {
            Clocks::Single { free_at } => free_at.max(arrival),
            Clocks::PerChip { busy, .. } => media.charge(arrival, busy, chip_busy_us),
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
