//! The SSD facade: request dispatch, write path, foreground GC and timing.

use crate::active::{ActiveSlots, ActiveSuperblock, FailedMember, Purpose, FILLER, PURPOSES};
use crate::config::{FtlConfig, PatrolConfig, PatrolOrder, QosClass};
use crate::error::FtlError;
use crate::gc::{select_victim, GcBudget, GcJob, PatrolBuffers, PatrolJob, SealedSuperblock};
use crate::manager::{speed_class_for, BlockManager};
use crate::mapping::Mapping;
use crate::recovery::{JournalEntry, RecoveryReport, SporState, NO_PAGE};
use crate::request::{IoOp, IoRequest};
use crate::sched::DepthTracker;
use crate::stats::SsdStats;
use crate::timing::{Clocks, QueueModel, Replay, TimedOutcome, TouchLog, CONTROLLER};
use crate::wear_level::WearTracker;
use crate::Result;
use flash_model::{
    BlockAddr, BlockSummaryRecord, FlashArray, FlashError, LwlId, MpOutcome, PageAddr, SealRecord,
    WlAddr, WordLine,
};
use pvcheck::{BlockSummary, Characterizer, EigenSequence, SpeedClass};
use std::collections::HashSet;

/// Shape summary handed to workload generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometryInfo {
    /// Logical pages exported to the host.
    pub logical_pages: u64,
    /// Physical pages in the flash array.
    pub physical_pages: u64,
    /// Pages one superblock holds.
    pub pages_per_superblock: u64,
}

/// The simulated SSD.
///
/// See the [crate docs](crate) for the model; construct with [`Ssd::new`],
/// drive with [`Ssd::run`] or the per-request methods, then inspect
/// [`Ssd::stats`].
///
/// ```
/// use ftl::{FtlConfig, Ssd};
///
/// # fn main() -> ftl::Result<()> {
/// let mut ssd = Ssd::new(FtlConfig::small_test(), 7)?;
/// ssd.write(3)?;
/// assert!(ssd.read(3)?.is_some());
/// ssd.trim(3)?;
/// assert!(ssd.read(3)?.is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Ssd {
    config: FtlConfig,
    array: FlashArray,
    mapping: Mapping,
    manager: BlockManager,
    actives: ActiveSlots,
    sealed: Vec<SealedSuperblock>,
    stats: SsdStats,
    logical_pages: u64,
    wear: WearTracker,
    seal_seq: u64,
    touches: TouchLog,
    scratch: Vec<(u64, PageAddr)>,
    /// Construction seed, kept so recovery can rebuild the block manager
    /// with the identical derived RNG stream.
    seed: u64,
    /// Next superblock identity to hand out.
    sb_seq: u64,
    /// SPOR machinery: crash countdown, journal, checkpoint, sequences.
    spor: SporState,
    /// Clocks and depth tracker of an in-progress incremental timed replay
    /// ([`Ssd::timed_begin`] … [`Ssd::timed_end`]); `None` outside one.
    replay: Option<Replay>,
    /// Reused buffer for the LPNs a checkpoint drains from the mapping's
    /// change record.
    changed_lpns: Vec<u64>,
    /// Partially collected victim parked between GC slices
    /// ([`GcBudget::Sliced`] only); `None` when no collection is mid-flight.
    gc_job: Option<GcJob>,
    /// Per-command cap on budgeted collection work, µs
    /// ([`Ssd::set_gc_allowance`]). Defaults to `INFINITY` (no cap), which
    /// leaves every code path bit-identical to a device without the field.
    /// Frontends with per-tenant SLO budgets set this before each command
    /// to the tenant's remaining debt for the current window; `0` skips the
    /// ladder slice entirely. The emergency floor ignores it — running out
    /// of assemblable superblocks trumps any SLO.
    gc_allowance_us: f64,
    /// Per-LPN write time on the device clock, µs
    /// ([`Ssd::device_clock_us`]); `Some` only when integrity tracking is
    /// on. Reset on every program of the LPN (a relocation rewrites the
    /// physical charge, so its retention clock restarts).
    birth_us: Option<Vec<f64>>,
    /// Partially completed patrol pass parked between slices; `None` when
    /// no pass is mid-flight. Cursors live only in RAM (crash-safe to drop:
    /// the pass merely restarts).
    patrol_job: Option<PatrolJob>,
    /// The pass's scan order plus scratch buffers reused by every step.
    patrol_bufs: PatrolBuffers,
    /// Device-clock time at which the next patrol pass is due, µs.
    patrol_due_at: f64,
    /// Wall time the device spent idle during timed replays, µs: the sum of
    /// gaps where the next arrival lay beyond all accrued work. Charge
    /// trapped in flash cells leaks during idle time exactly as during
    /// work, so the device clock counts both; untimed replays have no
    /// arrival schedule and leave this at zero (work is the only clock).
    idle_wall_us: f64,
}

/// Exact `floor(physical_pages * (1 - overprovision))` in integer
/// arithmetic: the f64 factor is decomposed into `mantissa * 2^exp` and the
/// product taken in `u128`, so huge geometries no longer lose low bits to
/// the double rounding of `(physical as f64 * frac) as u64`.
fn logical_capacity(physical_pages: u64, overprovision: f64) -> u64 {
    let frac = 1.0 - overprovision;
    if frac <= 0.0 {
        return 0;
    }
    if frac >= 1.0 {
        return physical_pages;
    }
    let bits = frac.to_bits();
    // frac in (0, 1) is normal, so the implicit leading bit is set and the
    // unbiased exponent is at most -1 (shift >= 53).
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1075;
    let mantissa = (bits & ((1u64 << 52) - 1)) | (1u64 << 52);
    let product = u128::from(physical_pages) * u128::from(mantissa);
    let shift = u32::try_from(-exp).expect("frac < 1 has a negative exponent");
    if shift >= 128 {
        0
    } else {
        u64::try_from(product >> shift).expect("floor of physical * frac fits u64 (frac < 1)")
    }
}

/// The device's one word-line reader: a checked flash view of `wl`, or
/// `None` when the word-line holds nothing readable (never programmed, or
/// torn by a power loss). A free function so the view borrows only the
/// array, leaving the rest of the device free for stats and clock updates
/// while it lives.
fn readable_word_line(array: &FlashArray, wl: WlAddr) -> Result<Option<WordLine<'_>>> {
    match array.word_line(wl) {
        Ok(line) => Ok(Some(line)),
        Err(FlashError::ReadUnwritten { .. } | FlashError::TornWordLine { .. }) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

impl Ssd {
    /// Builds the device, optionally pre-characterizing every block so
    /// QSTR-MED starts warm (the paper's steady-state setting).
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::InvalidConfig`] for inconsistent configurations.
    pub fn new(config: FtlConfig, seed: u64) -> Result<Ssd> {
        config.validate().map_err(|reason| FtlError::InvalidConfig { reason })?;
        let mut array = FlashArray::with_faults(config.flash.clone(), seed, config.fault.clone());
        if config.integrity.track {
            array.set_track_disturb(true);
        }
        let geo = array.geometry().clone();
        let physical_pages = geo.total_blocks() * u64::from(geo.pages_per_block());
        // Parity first, then over-provisioning: the parity reserve (one page
        // per super word-line) is raw capacity the host can never address.
        let usable_pages = physical_pages - config.parity_reserve_pages(physical_pages);
        let logical_pages = logical_capacity(usable_pages, config.overprovision);
        let config_wear_threshold = config.wear_threshold;
        let mut manager = BlockManager::new(&geo, config.scheme, seed ^ 0x5eed);
        if config.precharacterize {
            let pool = Characterizer::new(&config.flash).snapshot(array.latency_model(), 0);
            let strings = geo.strings();
            for profile in pool.iter() {
                manager.learn(profile.summary(strings));
            }
            manager.promote_known();
        }
        let spor = SporState::new(&config.spor);
        let birth_us = config
            .integrity
            .track
            .then(|| vec![0.0f64; usize::try_from(logical_pages).expect("capacity fits usize")]);
        let mut mapping = Mapping::new(logical_pages, &geo);
        if spor.enabled {
            mapping.track_changes();
        }
        Ok(Ssd {
            config,
            array,
            mapping,
            manager,
            actives: ActiveSlots::default(),
            sealed: Vec::new(),
            stats: SsdStats::default(),
            logical_pages,
            wear: WearTracker::new(config_wear_threshold),
            seal_seq: 0,
            touches: TouchLog::new(geo.chip_plane_groups()),
            scratch: Vec::new(),
            seed,
            sb_seq: 0,
            spor,
            replay: None,
            changed_lpns: Vec::new(),
            gc_job: None,
            gc_allowance_us: f64::INFINITY,
            birth_us,
            patrol_job: None,
            patrol_bufs: PatrolBuffers::default(),
            patrol_due_at: 0.0,
            idle_wall_us: 0.0,
        })
    }

    /// Swaps the page mapping for the original `HashMap`-backed reference
    /// implementation. Semantics are identical; per-block validity queries
    /// go back to scanning every mapped page, which is exactly what the
    /// before/after GC benchmarks (`perf_replay`, `benches/gc.rs`) measure.
    ///
    /// # Panics
    ///
    /// Panics if any page has been written already (the existing mapping
    /// state would be lost).
    pub fn use_naive_mapping_for_benchmarks(&mut self) {
        assert_eq!(self.mapping.valid_pages(), 0, "switch mappings only on a fresh device");
        assert!(self.actives.is_empty(), "switch mappings only on a fresh device");
        self.mapping = Mapping::new_naive(self.logical_pages);
        if self.spor.enabled {
            self.mapping.track_changes();
        }
    }

    /// Shape summary for workload generation.
    #[must_use]
    pub fn geometry_info(&self) -> GeometryInfo {
        let geo = self.array.geometry();
        let pools = u64::from(geo.chips()) * u64::from(geo.planes_per_chip());
        GeometryInfo {
            logical_pages: self.logical_pages,
            physical_pages: geo.total_blocks() * u64::from(geo.pages_per_block()),
            pages_per_superblock: pools * u64::from(geo.pages_per_block()),
        }
    }

    /// Run statistics so far.
    #[must_use]
    pub fn stats(&self) -> &SsdStats {
        &self.stats
    }

    /// Total QSTR-MED eigen distance checks (0 for other schemes).
    #[must_use]
    pub fn distance_checks(&self) -> u64 {
        self.manager.distance_checks()
    }

    /// Executes an open-loop request stream with arrival times: recorded
    /// latencies include queueing delay, so GC pauses and slow superblocks
    /// show up in the tail percentiles. [`FtlConfig::queue_model`] selects
    /// the clock: `Single` serializes every request behind one device-wide
    /// queue (the original model, bit-identical outputs); `PerChip` gives
    /// each chip/plane group its own busy-until clock so a request waits
    /// only for the chips it touches and work overlaps across chips.
    ///
    /// `requests` must be sorted by arrival time (µs).
    ///
    /// # Errors
    ///
    /// Stops at the first failing request.
    pub fn run_timed(&mut self, requests: &[(f64, IoRequest)]) -> Result<()> {
        self.timed_begin();
        for &(arrival, r) in requests {
            if let Err(e) = self.timed_step(arrival, r, QosClass::Standard) {
                self.timed_end();
                return Err(e);
            }
        }
        self.timed_end();
        Ok(())
    }

    /// Starts an incremental timed replay: initializes the clocks for the
    /// configured [`FtlConfig::queue_model`] so individual requests can be
    /// fed through [`Ssd::timed_step`]. [`Ssd::run_timed`] is exactly
    /// `timed_begin` + one `timed_step` per request + [`Ssd::timed_end`];
    /// external dispatchers (a multi-queue host frontend arbitrating
    /// between tenants) use the same API so their single-queue degenerate
    /// case is structurally identical to the serial replay.
    ///
    /// Beginning a new replay while one is in progress ends that one first
    /// (folding its makespan into the stats), then resets the clocks.
    pub fn timed_begin(&mut self) {
        self.timed_end();
        let clocks = match self.config.queue_model {
            QueueModel::Single => Clocks::Single { free_at: 0.0 },
            QueueModel::PerChip => {
                self.touches.set_enabled(true);
                let groups = self.array.geometry().chip_plane_groups();
                if self.stats.chip_busy_us.len() != groups + 1 {
                    self.stats.chip_busy_us = vec![0.0; groups + 1];
                }
                Clocks::PerChip { busy: vec![0.0; groups + 1], makespan: 0.0 }
            }
        };
        self.replay = Some(Replay { clocks, in_flight: DepthTracker::new() });
    }

    /// Executes one request of an incremental timed replay: the request
    /// arrives at `arrival` µs, waits for the device clocks per the
    /// configured queue model, and executes with its writes placed by
    /// `class`. Returns where the request landed on the clocks.
    ///
    /// Background work goes first: idle-gap GC (when
    /// [`FtlConfig::idle_gc`] is on), then patrol scrubbing, each charged
    /// to the clocks only while they drain before `arrival`. The request's
    /// queue-inclusive latency (`wait + service`, or the bare wait of a read
    /// miss) is its one histogram sample.
    ///
    /// Arrivals should be non-decreasing across calls (queue-depth
    /// accounting assumes it, like [`Ssd::run_timed`]'s sorted input).
    ///
    /// # Panics
    ///
    /// Panics if called outside a [`Ssd::timed_begin`] … [`Ssd::timed_end`]
    /// replay.
    ///
    /// # Errors
    ///
    /// Propagates the failing request's error; the replay stays live so the
    /// caller decides whether to continue or [`Ssd::timed_end`].
    pub fn timed_step(
        &mut self,
        arrival: f64,
        r: IoRequest,
        class: QosClass,
    ) -> Result<TimedOutcome> {
        // Credit idle wall time to the device clock: data retention decays
        // while the device sits idle waiting for this arrival, not just
        // while it works. (With integrity tracking off nothing reads the
        // clock, so the credit is inert.)
        let wall = self.device_clock_us();
        if arrival > wall {
            self.idle_wall_us += arrival - wall;
        }
        let mut replay = self.replay.take().expect("timed_step requires timed_begin");
        let result = self.replay_step(&mut replay, arrival, r, class);
        self.replay = Some(replay);
        result
    }

    /// Finishes an incremental timed replay: folds the final clock state
    /// into [`SsdStats::makespan_us`] and drops the clocks. No-op when no
    /// replay is in progress.
    pub fn timed_end(&mut self) {
        if let Some(replay) = self.replay.take() {
            self.stats.makespan_us = self.stats.makespan_us.max(replay.clocks.makespan());
            self.touches.set_enabled(false);
        }
    }

    /// The body of [`Ssd::timed_step`] on the live replay's clocks. Under
    /// `PerChip` the request starts once its arrival has passed and every
    /// resource it touched (member chips of its flash commands, plus the
    /// host channel for page transfers) is free; each touched resource then
    /// stays busy for its own recorded duration, so fast member chips free
    /// early and independent requests overlap. Host-visible latency has the
    /// same wait + service shape under both models — only the wait changes.
    fn replay_step(
        &mut self,
        replay: &mut Replay,
        arrival: f64,
        r: IoRequest,
        class: QosClass,
    ) -> Result<TimedOutcome> {
        let clocks = &mut replay.clocks;
        // Idle-time GC: use gaps before the next arrival to pre-free space,
        // shrinking foreground pauses. Background work is accounted
        // separately so utilization reflects foreground service only.
        if self.config.idle_gc {
            match self.config.gc_budget {
                GcBudget::Unbounded => {
                    while clocks.drained_at() < arrival
                        && self.manager.assemblable() < self.config.gc_high_watermark
                    {
                        let Some(t) = self.gc_once()? else { break };
                        self.stats.idle_gc_us += t;
                        clocks.charge_idle(t, &mut self.touches, &mut self.stats.chip_busy_us);
                    }
                }
                GcBudget::Sliced { .. } => {
                    // The whole idle gap is the budget; the slice parks the
                    // victim when the gap runs out.
                    let now = clocks.drained_at();
                    if now < arrival && self.manager.assemblable() < self.config.gc_high_watermark {
                        let t = self.gc_slice(arrival - now)?;
                        if t > 0.0 {
                            self.stats.idle_gc_us += t;
                            clocks.charge_idle(t, &mut self.touches, &mut self.stats.chip_busy_us);
                        }
                    }
                }
            }
        }
        // Patrol scrubbing rides whatever idle gap is left after GC.
        let now = clocks.drained_at();
        if now < arrival && self.patrol_due() {
            let t = self.patrol_slice(arrival - now)?;
            if t > 0.0 {
                self.stats.patrol_us += t;
                clocks.charge_idle(t, &mut self.touches, &mut self.stats.chip_busy_us);
            }
        }
        let service = match r.op {
            IoOp::Write => self.serve_write(r.lpn, class)?,
            IoOp::Read => self.serve_read(r.lpn)?.unwrap_or(0.0),
            IoOp::Trim => {
                self.trim(r.lpn)?;
                0.0
            }
        };
        let start = clocks.start(arrival, &mut self.touches, &mut self.stats.chip_busy_us);
        let wait = start - arrival;
        // A read that misses takes no service, but the host still waited
        // for the answer, so the wait is its sample; trims record no sample
        // and their waits land in `trim_wait_us`.
        self.stats.queue_wait_us += wait;
        match r.op {
            IoOp::Write => self.stats.write_latency.record(wait + service),
            IoOp::Read => self.stats.read_latency.record(wait + service),
            IoOp::Trim => self.stats.trim_wait_us += wait,
        }
        let depth = replay.in_flight.arrive(arrival) as u64 + 1;
        self.stats.queue_depth_max = self.stats.queue_depth_max.max(depth);
        let completion = start + service;
        replay.in_flight.complete_at(completion);
        clocks.complete(completion);
        Ok(TimedOutcome {
            wait_us: wait,
            service_us: service,
            start_us: start,
            completion_us: completion,
        })
    }

    /// Executes a request stream.
    ///
    /// # Errors
    ///
    /// Stops at the first failing request.
    pub fn run(&mut self, requests: &[IoRequest]) -> Result<()> {
        for r in requests {
            match r.op {
                IoOp::Write => {
                    self.write(r.lpn)?;
                }
                IoOp::Read => {
                    self.read(r.lpn)?;
                }
                IoOp::Trim => self.trim(r.lpn)?,
            }
        }
        Ok(())
    }

    /// Records a flash command's occupancy on its chip/plane group (no-op
    /// unless a `PerChip` replay is running).
    fn touch_block(&mut self, block: BlockAddr, us: f64) {
        let group = self.array.geometry().chip_plane_index(block);
        self.touches.record(group, us);
    }

    /// Records host-channel occupancy (a page transfer).
    fn touch_controller(&mut self, us: f64) {
        self.touches.record(CONTROLLER, us);
    }

    fn check_lpn(&self, lpn: u64) -> Result<()> {
        if lpn >= self.logical_pages {
            return Err(FtlError::LpnOutOfRange { lpn, capacity: self.logical_pages });
        }
        Ok(())
    }

    /// Rejects requests on a crashed device until [`Ssd::recover`] runs.
    fn ensure_powered(&self) -> Result<()> {
        if self.spor.crashed {
            return Err(FtlError::PowerLoss);
        }
        Ok(())
    }

    /// Whether an injected crash has fired and [`Ssd::recover`] has not yet
    /// been called.
    #[must_use]
    pub fn has_crashed(&self) -> bool {
        self.spor.crashed
    }

    /// The page mapping (read access for verification and tests).
    #[must_use]
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The block manager (read access for verification and tests).
    #[must_use]
    pub fn block_manager(&self) -> &BlockManager {
        &self.manager
    }

    /// Writes one logical page, returning the host-visible latency in µs
    /// (transfer + any triggered program/erase/GC work). Equivalent to
    /// [`Ssd::write_with_class`] with [`QosClass::Standard`].
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LpnOutOfRange`] or [`FtlError::OutOfSpace`].
    pub fn write(&mut self, lpn: u64) -> Result<f64> {
        self.write_with_class(lpn, QosClass::Standard)
    }

    /// Writes one logical page on behalf of a tenant of the given QoS
    /// class; the class picks the open superblock via the placement hook
    /// (see [`QosClass`]). `Standard` is byte-identical to [`Ssd::write`].
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LpnOutOfRange`] or [`FtlError::OutOfSpace`].
    pub fn write_with_class(&mut self, lpn: u64, class: QosClass) -> Result<f64> {
        let latency = self.serve_write(lpn, class)?;
        self.stats.write_latency.record(latency);
        Ok(latency)
    }

    /// The write path of [`Ssd::write_with_class`] and [`Ssd::timed_step`]:
    /// returns the service latency without recording it, so each caller
    /// records the one sample its host sees.
    fn serve_write(&mut self, lpn: u64, class: QosClass) -> Result<f64> {
        self.ensure_powered()?;
        self.check_lpn(lpn)?;
        self.touch_controller(self.config.transfer_us);
        let mut latency = self.config.transfer_us;
        let mut stall = self.maybe_gc(class)?;
        // Overdue patrol work is paid down the same QoS ladder and folded
        // into the same stall, so per-tenant GC-SLO frontends charge it to
        // the tenant's debt ledger without any extra plumbing.
        stall += self.maybe_patrol(class)?;
        if stall > 0.0 {
            self.stats.gc_stall_us += stall;
            self.stats.gc_stall.record(stall);
        }
        latency += stall;
        latency += self.stage_write(lpn, Purpose::Host(class))?;
        self.stats.host_writes += 1;
        self.stats.host_writes_by_class[class.index()] += 1;
        self.stats.busy_us += latency;
        self.maybe_checkpoint()?;
        Ok(latency)
    }

    /// Reads one logical page: `Ok(None)` if it was never written, else the
    /// host-visible latency in µs.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LpnOutOfRange`] for out-of-range pages.
    pub fn read(&mut self, lpn: u64) -> Result<Option<f64>> {
        let latency = self.serve_read(lpn)?;
        if let Some(us) = latency {
            self.stats.read_latency.record(us);
        }
        Ok(latency)
    }

    /// The read path of [`Ssd::read`] and [`Ssd::timed_step`]: returns the
    /// service latency of a hit (`None` for a miss) without recording it.
    fn serve_read(&mut self, lpn: u64) -> Result<Option<f64>> {
        self.ensure_powered()?;
        self.check_lpn(lpn)?;
        // Serve from the staging buffers first (write-back cache).
        let staged = self.actives.any_staged(lpn);
        let latency = if staged {
            self.touch_controller(self.config.transfer_us);
            self.config.transfer_us
        } else {
            match self.mapping.lookup(lpn) {
                None => return Ok(None),
                Some(ppa) => {
                    let (tag, t) = self.array.read_page(ppa)?;
                    debug_assert_eq!(tag, lpn, "mapping points at the right payload");
                    self.touch_controller(self.config.transfer_us);
                    if self.config.fault.enabled() || self.config.integrity.track {
                        // Consult the ECC model at the page's true data age;
                        // pages past the retry ladder are refreshed
                        // (rewritten elsewhere) before they rot into data
                        // loss. Without integrity tracking the age is 0 and
                        // the disturb count is 0, reproducing the fault-only
                        // path bit for bit.
                        let bits = self.array.expected_error_bits(ppa, self.data_age_hours(lpn));
                        let flash_us = self.config.retry.read_latency_us(t, bits);
                        self.touch_block(ppa.wl.block, flash_us);
                        if self.config.retry.is_uncorrectable(bits) {
                            // The relocation is background work: the host
                            // sees only the sensing + retry + transfer time,
                            // and the rewrite lands in `refresh_us` (still
                            // advancing `busy_us`).
                            self.stats.uncorrectable_reads += 1;
                            if self.config.parity.enabled() {
                                self.rebuild_page(lpn, ppa, None)?;
                            }
                            let mut slice = 0.0;
                            if self.manager.assemblable() <= 1 {
                                // A read-heavy phase stages refreshes with
                                // no host write in sight to trigger
                                // collection — reclaim the emergency floor
                                // so reactive refreshes can't drain the
                                // free pool into OutOfSpace.
                                slice = self.gc_slice_toward(f64::INFINITY, 2)?;
                            }
                            let restage = self.stage_write(lpn, Purpose::Gc)?;
                            if self.config.parity.enabled() && slice > 0.0 {
                                // Rebuild-triggered emergency collection is
                                // paid like a foreground GC stall so per-
                                // tenant GC-SLO frontends charge it to the
                                // tenant's debt ledger.
                                self.stats.gc_stall_us += slice;
                                self.stats.gc_stall.record(slice);
                                self.stats.busy_us += slice;
                                self.stats.refresh_us += restage;
                                self.stats.busy_us += restage;
                            } else {
                                let refresh = slice + restage;
                                self.stats.refresh_us += refresh;
                                self.stats.busy_us += refresh;
                            }
                            self.stats.refresh_relocations += 1;
                        }
                        flash_us + self.config.transfer_us
                    } else {
                        self.touch_block(ppa.wl.block, t);
                        t + self.config.transfer_us
                    }
                }
            }
        };
        self.stats.host_reads += 1;
        self.stats.busy_us += latency;
        // Refresh relocations on the fault path may have programmed.
        self.maybe_checkpoint()?;
        Ok(Some(latency))
    }

    /// Rebuilds the payload of an uncorrectable page from its super-word-line
    /// siblings plus parity (RAIN). Every surviving page of the stripe is
    /// read (`rebuild_reads`) and the tags XOR back to the lost LPN when the
    /// stripe is intact; the caller then restages the payload. Sibling reads
    /// proceed chip-parallel, so the charged critical path is the slowest
    /// *member* — the rebuild-latency channel where unified-tR superpages
    /// beat PV-blind assembly. Rebuild time lands in `rebuild_us` and
    /// `busy_us`, never the read histogram.
    ///
    /// A stripe that cannot produce the payload — a second uncorrectable
    /// sibling, a dropped member whose tags are gone, or a missing parity
    /// page — counts in `rebuilds_failed`: true data loss, reported, never
    /// silently absorbed.
    fn rebuild_page(
        &mut self,
        lpn: u64,
        ppa: PageAddr,
        stripe: Option<&[BlockAddr]>,
    ) -> Result<()> {
        debug_assert!(self.config.parity.enabled());
        // A GC caller hands the victim's members directly (the victim may
        // already be off the sealed list); otherwise locate the stripe.
        let members: Option<Vec<BlockAddr>> = match stripe {
            Some(m) => Some(m.to_vec()),
            None => self
                .sealed
                .iter()
                .find(|s| s.members.contains(&ppa.wl.block))
                .map(|s| s.members.clone())
                .or_else(|| {
                    self.actives
                        .iter()
                        .find(|a| a.members.contains(&ppa.wl.block))
                        .map(|a| a.members.clone())
                }),
        };
        let Some(members) = members else {
            self.stats.rebuilds_failed += 1;
            return Ok(());
        };
        // Stripe siblings were programmed in the same instant as the lost
        // page, so its retention age is theirs.
        let age = self.data_age_hours(lpn);
        let mut acc = 0u64;
        let mut intact = true;
        let mut saw_parity = false;
        let mut critical_us = 0.0f64;
        let mut fanout_us = 0.0f64;
        for &member in &members {
            let mut member_us = 0.0;
            match readable_word_line(&self.array, member.wl(ppa.wl.lwl))? {
                // An unwritten or torn sibling word-line: the stripe is
                // short of tags.
                None => intact = false,
                Some(line) => {
                    for k in (0..line.pages()).filter(|&k| line.page(k) != ppa) {
                        let (tag, t) = line.read(k);
                        let bits = line.expected_error_bits(k, age);
                        member_us += self.config.retry.read_latency_us(t, bits);
                        self.stats.rebuild_reads += 1;
                        if self.config.retry.is_uncorrectable(bits) {
                            // Double failure within one super word-line.
                            intact = false;
                        } else {
                            acc ^= tag;
                            saw_parity |= line.oob(k).is_parity();
                        }
                    }
                }
            }
            if member_us > 0.0 {
                self.touch_block(member, member_us);
            }
            critical_us = critical_us.max(member_us);
            fanout_us += member_us;
        }
        // The XOR over a whole stripe is zero, so the survivors' XOR equals
        // the lost page's tag exactly when the stripe is complete. A
        // degraded stripe (dropped member) or one whose parity page is gone
        // misses tags and fails the check.
        if intact && (saw_parity || !self.spor.enabled) && acc == lpn {
            self.stats.rebuilds_ok += 1;
            self.stats.rebuild_ok_us += critical_us;
            self.stats.rebuild_ok_fanout_us += fanout_us;
        } else {
            self.stats.rebuilds_failed += 1;
        }
        self.stats.rebuild_us += critical_us;
        self.stats.busy_us += critical_us;
        Ok(())
    }

    /// ECC check on a GC relocation read. With parity off this is the
    /// historical relocation path bit for bit (raw sense time, no ECC
    /// consult); with parity on the relocation pays the retry ladder and an
    /// uncorrectable source page is rebuilt from its stripe before the
    /// relocation's own restage replaces it. Returns the charged read time.
    fn gc_read_with_parity_check(
        &mut self,
        lpn: u64,
        ppa: PageAddr,
        t_read: f64,
        stripe: &[BlockAddr],
    ) -> Result<f64> {
        if !self.config.parity.enabled()
            || !(self.config.fault.enabled() || self.config.integrity.track)
        {
            return Ok(t_read);
        }
        let bits = self.array.expected_error_bits(ppa, self.data_age_hours(lpn));
        if self.config.retry.is_uncorrectable(bits) {
            self.stats.uncorrectable_reads += 1;
            self.rebuild_page(lpn, ppa, Some(stripe))?;
        }
        Ok(self.config.retry.read_latency_us(t_read, bits))
    }

    /// Reads a batch of logical pages exploiting chip parallelism: reads on
    /// different chips proceed concurrently (the superpage read of Figure 2),
    /// reads on the same chip serialize. Returns the batch completion
    /// latency; unwritten pages are skipped.
    ///
    /// Sequentially written pages stripe page-major across the superblock
    /// members, so reading `chips` consecutive LPNs costs roughly one page
    /// read, not `chips` of them.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LpnOutOfRange`] if any page is out of range.
    pub fn read_batch(&mut self, lpns: &[u64]) -> Result<f64> {
        self.ensure_powered()?;
        for &lpn in lpns {
            self.check_lpn(lpn)?;
        }
        let mut per_chip: std::collections::HashMap<(u16, u16), f64> =
            std::collections::HashMap::new();
        let mut transfer = 0.0;
        let mut served = 0u64;
        for &lpn in lpns {
            let staged = self.actives.any_staged(lpn);
            if staged {
                self.touch_controller(self.config.transfer_us);
                transfer += self.config.transfer_us;
                served += 1;
                continue;
            }
            if let Some(ppa) = self.mapping.lookup(lpn) {
                let (tag, t) = self.array.read_page(ppa)?;
                debug_assert_eq!(tag, lpn);
                self.touch_block(ppa.wl.block, t);
                self.touch_controller(self.config.transfer_us);
                let chip = (ppa.wl.block.chip.0, ppa.wl.block.plane.0);
                *per_chip.entry(chip).or_insert(0.0) += t;
                transfer += self.config.transfer_us;
                served += 1;
            }
        }
        let flash_us = per_chip.values().copied().fold(0.0, f64::max);
        let latency = flash_us + transfer;
        self.stats.host_reads += served;
        if served > 0 {
            self.stats.read_latency.record(latency);
        }
        self.stats.busy_us += latency;
        Ok(latency)
    }

    /// Invalidates one logical page.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LpnOutOfRange`] for out-of-range pages.
    pub fn trim(&mut self, lpn: u64) -> Result<()> {
        self.ensure_powered()?;
        self.check_lpn(lpn)?;
        self.mapping.unmap(lpn);
        self.actives.discard_staged(lpn);
        if self.spor.enabled {
            // Tombstone: any on-flash copy with a lower sequence number is
            // dead to recovery, even if its superblock is never scanned
            // again before the next checkpoint.
            let seq = self.spor.next_seq();
            self.spor.trim_seqs.insert(lpn, seq);
            self.spor.journal(JournalEntry::Trimmed { lpn, seq });
        }
        self.stats.host_trims += 1;
        Ok(())
    }

    /// Valid data pages currently on flash (excludes staged pages).
    #[must_use]
    pub fn valid_pages(&self) -> usize {
        self.mapping.valid_pages()
    }

    /// Wear statistics: `(min, max)` per-block erase counts so far.
    #[must_use]
    pub fn wear_spread(&self) -> (u32, u32) {
        self.wear.spread()
    }

    /// Whether wear imbalance exceeds the configured threshold.
    #[must_use]
    pub fn needs_wear_leveling(&self) -> bool {
        self.wear.needs_leveling()
    }

    fn class_for(&self, purpose: Purpose) -> SpeedClass {
        speed_class_for(self.config.placement, purpose)
    }

    fn slot(&mut self, purpose: Purpose) -> &mut Option<ActiveSuperblock> {
        self.actives.slot(self.config.placement, purpose)
    }

    /// Ensures an open superblock exists for `purpose`; returns time spent
    /// (allocation erase).
    ///
    /// A member whose erase fails is retired and replaced from its pool
    /// (the superblock is re-assembled); when the pool has nothing left the
    /// superblock starts degraded with fewer members.
    fn ensure_active(&mut self, purpose: Purpose) -> Result<f64> {
        if self.slot(purpose).is_some() {
            return Ok(0.0);
        }
        let class = self.class_for(purpose);
        let members = self.manager.allocate(class).ok_or(FtlError::OutOfSpace)?;
        let mut ok_members = Vec::with_capacity(members.len());
        let mut member_us = Vec::with_capacity(members.len());
        let mut degraded = false;
        for m in members {
            let mut candidate = Some(m);
            loop {
                let Some(addr) = candidate else {
                    degraded = true;
                    break;
                };
                if self.spor.op_fires() {
                    // Power died before this erase: the claimed blocks were
                    // never journaled as a superblock, so recovery simply
                    // finds them free again.
                    return Err(FtlError::PowerLoss);
                }
                match self.array.erase_block(addr) {
                    Ok(t) => {
                        ok_members.push(addr);
                        member_us.push(t);
                        break;
                    }
                    Err(e) if e.is_media_failure() => {
                        self.retire_block(addr);
                        candidate = self.manager.take_from_pool(self.manager.pool_of(addr));
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
        if ok_members.is_empty() {
            return Err(FtlError::OutOfSpace);
        }
        if degraded {
            self.stats.degraded_superblocks += 1;
        }
        for (&m, &t) in ok_members.iter().zip(&member_us) {
            self.touch_block(m, t);
        }
        let outcome = MpOutcome::from_members(member_us);
        for &m in &ok_members {
            self.wear.record_erase(m);
        }
        self.stats.superblock_erases += 1;
        self.stats.extra_erase_us += outcome.extra_us;
        match class {
            SpeedClass::Fast => self.stats.superblocks_assembled.0 += 1,
            SpeedClass::Slow => self.stats.superblocks_assembled.1 += 1,
        }
        let sb_id = self.sb_seq;
        self.sb_seq += 1;
        self.spor.journal(JournalEntry::Opened { sb_id, members: ok_members.clone() });
        let geo = self.array.geometry();
        let active = ActiveSuperblock::new(
            ok_members,
            sb_id,
            geo.strings(),
            geo.pwl_layers(),
            geo.pages_per_lwl(),
            self.config.parity.enabled(),
        );
        *self.slot(purpose) = Some(active);
        Ok(outcome.total_us)
    }

    /// Moves a block to the bad-block table.
    fn retire_block(&mut self, addr: BlockAddr) {
        self.manager.retire(addr);
        self.spor.journal(JournalEntry::Retired { addr });
        self.stats.retired_blocks += 1;
    }

    /// Stages one page and programs/seals as needed; returns time spent.
    fn stage_write(&mut self, lpn: u64, purpose: Purpose) -> Result<f64> {
        let mut time = self.ensure_active(purpose)?;
        let mut active = self.slot(purpose).take().expect("ensure_active filled the slot");
        let mut failures = Vec::new();
        if active.stage(lpn) {
            let result = active.program_superwl(&mut self.array, &mut self.spor)?;
            for (&b, &t) in result.member_blocks.iter().zip(&result.outcome.member_us) {
                self.touch_block(b, t);
            }
            self.apply_assignments(&result.assignments);
            self.stats.superwl_programs += 1;
            self.spor.superwls_since_ckpt += 1;
            self.stats.extra_program_us += result.outcome.extra_us;
            time += result.outcome.total_us;
            failures = result.failures;
        }
        // Restore the slot before recovery: the remap writes recurse into
        // stage_write and must find the (possibly degraded) superblock open.
        self.retire_or_restore(active, purpose);
        if !failures.is_empty() {
            time += self.handle_program_failures(failures, purpose)?;
        }
        Ok(time)
    }

    /// Pads and programs any staged pages of `purpose`'s open superblock so
    /// everything buffered becomes durable; returns time spent.
    fn flush_purpose(&mut self, purpose: Purpose) -> Result<f64> {
        let Some(mut active) = self.slot(purpose).take() else {
            return Ok(0.0);
        };
        let mut time = 0.0;
        let mut failures = Vec::new();
        if active.has_staged_pages() {
            active.pad();
            let result = active.program_superwl(&mut self.array, &mut self.spor)?;
            for (&b, &t) in result.member_blocks.iter().zip(&result.outcome.member_us) {
                self.touch_block(b, t);
            }
            self.apply_assignments(&result.assignments);
            self.stats.superwl_programs += 1;
            self.spor.superwls_since_ckpt += 1;
            self.stats.extra_program_us += result.outcome.extra_us;
            time += result.outcome.total_us;
            failures = result.failures;
        }
        self.retire_or_restore(active, purpose);
        if !failures.is_empty() {
            time += self.handle_program_failures(failures, purpose)?;
            // The recovery writes may leave fresh pages staged; flush them
            // too so the durability contract of a flush holds.
            time += self.flush_purpose(purpose)?;
        }
        Ok(time)
    }

    /// Recovers from program-status failures: retires each failed block,
    /// rewrites the payload the failed program carried, and relocates any
    /// live pages stranded on the block's earlier word-lines (still readable
    /// in phase `Failed`). Returns time spent.
    fn handle_program_failures(
        &mut self,
        failures: Vec<FailedMember>,
        purpose: Purpose,
    ) -> Result<f64> {
        let mut time = 0.0;
        // The valid-page iterator borrows the mapping, which stage_write
        // mutates — collect into the reusable scratch buffer first.
        let mut scratch = std::mem::take(&mut self.scratch);
        for f in failures {
            self.retire_block(f.addr);
            self.stats.degraded_superblocks += 1;
            for lpn in f.payload {
                if lpn != FILLER {
                    time += self.stage_write(lpn, purpose)?;
                    self.stats.remapped_writes += 1;
                }
            }
            // Stranded live data: copy out before the block is abandoned.
            // Mapping::map self-cleans the old location when the new copy
            // programs, so no explicit invalidation is needed.
            scratch.clear();
            scratch.extend(self.mapping.valid_in_block(f.addr));
            for &(lpn, ppa) in &scratch {
                let (tag, t_read) = self.array.read_page(ppa)?;
                debug_assert_eq!(tag, lpn);
                self.touch_block(ppa.wl.block, t_read);
                time += t_read;
                time += self.stage_write(lpn, purpose)?;
                self.stats.remapped_writes += 1;
            }
        }
        scratch.clear();
        self.scratch = scratch;
        Ok(time)
    }

    /// Makes every buffered host/GC page durable.
    ///
    /// # Errors
    ///
    /// Propagates flash errors (internal invariant bugs).
    pub fn flush(&mut self) -> Result<f64> {
        self.ensure_powered()?;
        let mut time = 0.0;
        for purpose in PURPOSES {
            time += self.flush_purpose(purpose)?;
        }
        self.maybe_checkpoint()?;
        Ok(time)
    }

    fn apply_assignments(&mut self, assignments: &[(u64, flash_model::PageAddr)]) {
        let clock = self.device_clock_us();
        for &(lpn, ppa) in assignments {
            debug_assert_ne!(lpn, FILLER);
            self.mapping.map(lpn, ppa);
            if let Some(birth) = &mut self.birth_us {
                // A program resets the physical retention clock of the
                // logical page — host write, GC relocation and patrol
                // refresh alike.
                birth[usize::try_from(lpn).expect("lpn fits usize")] = clock;
            }
        }
    }

    fn retire_or_restore(&mut self, active: ActiveSuperblock, purpose: Purpose) {
        if active.members.is_empty() {
            // Every member failed: there is nothing to seal or write into.
            // The staged payload travelled out via the failure report, so
            // dropping the shell loses nothing; the next write re-assembles.
            return;
        }
        if active.is_full() {
            let members = active.members.clone();
            let sb_id = active.sb_id();
            let summaries = active.finish();
            if self.spor.enabled {
                // Persist the gathered QSTR-MED stats to the capacitor-
                // backed region: after a crash they restore the learned
                // summaries without re-characterizing any block.
                let record = SealRecord {
                    sb_id,
                    members: members.clone(),
                    summaries: summaries
                        .iter()
                        .map(|s| BlockSummaryRecord {
                            addr: s.addr,
                            pgm_sum_us: s.pgm_sum_us,
                            eigen_bits: (0..s.eigen.len()).map(|i| s.eigen.get(i)).collect(),
                        })
                        .collect(),
                };
                self.array.persist_seal_record(record);
            }
            for summary in summaries {
                self.manager.learn(summary);
            }
            self.sealed.push(SealedSuperblock {
                sb_id,
                members,
                sealed_at: self.seal_seq,
                class: Some(self.class_for(purpose)),
            });
            self.seal_seq += 1;
        } else {
            *self.slot(purpose) = Some(active);
        }
    }

    /// Runs garbage collection if free space is low; returns time spent,
    /// which the caller charges to the triggering command as its GC stall.
    fn maybe_gc(&mut self, class: QosClass) -> Result<f64> {
        match self.config.gc_budget {
            GcBudget::Unbounded => {
                if self.manager.assemblable() >= self.config.gc_low_watermark {
                    return Ok(0.0);
                }
                let mut time = 0.0;
                while self.manager.assemblable() < self.config.gc_high_watermark {
                    match self.gc_once()? {
                        Some(t) => time += t,
                        None => break,
                    }
                }
                // The caller (the triggering write) folds this time into its
                // own latency, which is what updates busy_us — no double
                // counting here.
                Ok(time)
            }
            GcBudget::Sliced { slice_us } => {
                let mut time = 0.0;
                if self.gc_backlog() {
                    // Collection pressure maps onto the QoS ladder:
                    // background commands pay a slice on any backlog,
                    // standard ones only once free space dips under the low
                    // watermark, latency-critical ones never (beyond the
                    // emergency below).
                    let pays = match class {
                        QosClass::Background => true,
                        QosClass::Standard => {
                            self.manager.assemblable() < self.config.gc_low_watermark
                        }
                        QosClass::LatencyCritical => false,
                    };
                    // A per-tenant SLO allowance caps the budgeted slice:
                    // an exhausted window (`allowance == 0`) skips ladder
                    // payment entirely, a partial one shortens the slice.
                    // The default `INFINITY` allowance reduces both
                    // expressions to the plain ladder, bit for bit.
                    if pays && self.gc_allowance_us > 0.0 {
                        time += self.gc_slice(slice_us.min(self.gc_allowance_us))?;
                    }
                }
                if self.manager.assemblable() <= 1 {
                    // Pool nearly empty (GC staging itself may have taken a
                    // superblock): every class — latency-critical included —
                    // reclaims toward two, because relocation needs one
                    // assemblable superblock in reserve whenever the GC slot
                    // seals mid-victim, and the triggering write consumes
                    // another. No further: the budgeted ladder resumes from
                    // there instead of running a multi-victim burst to the
                    // high watermark.
                    time += self.gc_slice_toward(f64::INFINITY, 2)?;
                }
                Ok(time)
            }
        }
    }

    /// Whether sliced collection wants a slice: free space under the low
    /// watermark, or a parked victim still short of the high one.
    fn gc_backlog(&self) -> bool {
        let assemblable = self.manager.assemblable();
        assemblable < self.config.gc_low_watermark
            || (self.gc_job.is_some() && assemblable < self.config.gc_high_watermark)
    }

    /// Whether the device will run collection or overdue-patrol work on
    /// upcoming writes (sliced-GC backlog, or patrol starved past one full
    /// interval — the unbounded collector never reports pending). Frontends
    /// use this to drain latency-critical queues before granting
    /// lower-priority commands that would carry a slice.
    #[must_use]
    pub fn gc_slice_pending(&self) -> bool {
        (matches!(self.config.gc_budget, GcBudget::Sliced { .. }) && self.gc_backlog())
            || self.patrol_payment_pending()
    }

    /// Caps the budgeted collection work the *next* commands may be charged
    /// ([`GcBudget::Sliced`] only): each ladder slice runs for at most
    /// `min(slice_us, allowance)` µs, and an allowance of `0` skips ladder
    /// payment outright. Frontends enforcing per-tenant GC SLOs call this
    /// before each dispatch with the tenant's remaining debt budget for the
    /// current window. Negative and NaN values clamp to `0` (no slice);
    /// the default is `INFINITY` (uncapped — identical to pre-SLO
    /// behavior). The emergency floor (pool nearly empty) is exempt: media
    /// safety outranks an SLO.
    pub fn set_gc_allowance(&mut self, allowance_us: f64) {
        self.gc_allowance_us = if allowance_us.is_nan() { 0.0 } else { allowance_us.max(0.0) };
    }

    /// The device clock patrol scheduling and data ages run on: total
    /// foreground busy time plus background (idle-gap) GC and patrol time,
    /// plus idle wall time credited by timed replays (retention charge
    /// leaks whether or not the device is working, so an idle device still
    /// ages its data — and background scrubbing merely *uses* idle time
    /// rather than extending the clock). Monotone and simulated (never
    /// host wall-clock), so ages — and therefore every integrity decision —
    /// replay bit-identically.
    pub fn device_clock_us(&self) -> f64 {
        self.stats.busy_us + self.stats.idle_gc_us + self.stats.patrol_us + self.idle_wall_us
    }

    /// Data age of `lpn` in retention hours: device time since its last
    /// program, scaled by the configured aging acceleration. `0.0` whenever
    /// integrity tracking is off.
    fn data_age_hours(&self, lpn: u64) -> f64 {
        match &self.birth_us {
            Some(birth) => {
                let born = birth[usize::try_from(lpn).expect("lpn fits usize")];
                (self.device_clock_us() - born).max(0.0)
                    * self.config.integrity.retention_hours_per_us
            }
            None => 0.0,
        }
    }

    /// Whether patrol wants a slice right now: a pass is mid-flight, or the
    /// next one has come due on the device clock.
    fn patrol_due(&self) -> bool {
        matches!(self.config.integrity.patrol, PatrolConfig::On { .. })
            && (self.patrol_job.is_some() || self.device_clock_us() >= self.patrol_due_at)
    }

    /// Whether patrol is starved badly enough (a full interval past due)
    /// that foreground commands start paying for it down the QoS ladder.
    fn patrol_payment_pending(&self) -> bool {
        match self.config.integrity.patrol {
            PatrolConfig::On { interval_us, .. } => {
                self.device_clock_us() >= self.patrol_due_at + interval_us
            }
            PatrolConfig::Off => false,
        }
    }

    /// Runs overdue patrol work on a foreground command's time, down the
    /// same QoS ladder as sliced GC: background commands pay once patrol is
    /// one interval past due, standard ones at two intervals, and
    /// latency-critical ones never. The per-tenant GC allowance caps the
    /// slice exactly as it caps GC slices; the caller folds the returned
    /// time into the command's GC stall so SLO ledgers see it.
    fn maybe_patrol(&mut self, class: QosClass) -> Result<f64> {
        let PatrolConfig::On { interval_us, slice_us, .. } = self.config.integrity.patrol else {
            return Ok(0.0);
        };
        let pays = match class {
            QosClass::Background => self.patrol_payment_pending(),
            QosClass::Standard => self.device_clock_us() >= self.patrol_due_at + 2.0 * interval_us,
            QosClass::LatencyCritical => false,
        };
        if pays && self.gc_allowance_us > 0.0 {
            self.patrol_slice(slice_us.min(self.gc_allowance_us))
        } else {
            Ok(0.0)
        }
    }

    /// Runs up to `budget_us` of patrol scanning — further capped by the
    /// configured `slice_us`, which bounds patrol work per opportunity no
    /// matter how long the idle gap is (scrubbing is a trickle by design:
    /// it must never monopolize idle time other background work, or a
    /// power-conscious host, may want). Parks the in-progress pass when the
    /// budget runs out. Yields only between super word-line steps (the same
    /// quantum as a GC slice), so a slice may overrun by one word-line
    /// scan.
    fn patrol_slice(&mut self, budget_us: f64) -> Result<f64> {
        let budget = match self.config.integrity.patrol {
            PatrolConfig::On { slice_us, .. } => budget_us.min(slice_us),
            PatrolConfig::Off => return Ok(0.0),
        };
        let mut time = 0.0;
        while self.patrol_due() && time < budget {
            time += self.patrol_step()?;
        }
        Ok(time)
    }

    /// Refills the sealed-superblock scan order for a new patrol pass.
    fn fill_patrol_order(&mut self) {
        let bufs = &mut self.patrol_bufs;
        bufs.order.clear();
        match self.config.integrity.patrol {
            PatrolConfig::On { order: PatrolOrder::SlowPoolFirst, .. } => {
                // Slow pool first (GC/background data — the cold tail whose
                // retention ages worst on the worst media), unknown-class
                // superblocks next, fast ones last; oldest sealed first
                // within each group.
                bufs.keys.clear();
                bufs.keys.extend(self.sealed.iter().map(|s| {
                    let rank = match s.class {
                        Some(SpeedClass::Slow) => 0u8,
                        None => 1,
                        Some(SpeedClass::Fast) => 2,
                    };
                    (rank, s.sealed_at, s.sb_id)
                }));
                bufs.keys.sort_unstable();
                bufs.order.extend(bufs.keys.iter().map(|&(_, _, id)| id));
            }
            _ => bufs.order.extend(self.sealed.iter().map(|s| s.sb_id)),
        }
    }

    /// One word-line-granularity step of the patrol pass: scans every live
    /// page of the next super word-line, refreshing those whose projected
    /// error bits crossed the refresh threshold. Completing the pass
    /// flushes the staged refreshes.
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
    fn patrol_step(&mut self) -> Result<f64> {
        let PatrolConfig::On { interval_us, refresh_fraction, .. } = self.config.integrity.patrol
        else {
            return Ok(0.0);
        };
        let mut job = match self.patrol_job.take() {
            Some(job) if self.device_clock_us() < self.patrol_due_at => job,
            _ => {
                self.patrol_due_at = self.device_clock_us() + interval_us;
                self.fill_patrol_order();
                PatrolJob::default()
            }
        };
        let refresh_at = refresh_fraction * self.config.retry.uncorrectable_limit();
        loop {
            let Some(&sb_id) = self.patrol_bufs.order.get(job.sb_cursor) else {
                // Pass complete: make the staged refreshes durable so the
                // rotting copies actually stop being read.
                let t = self.flush_purpose(Purpose::Gc)?;
                self.stats.patrol_passes += 1;
                return Ok(t);
            };
            // The superblock may have been collected while the pass was
            // parked; its id then no longer resolves and the cursor skips.
            let Some(sb) = self.sealed.iter().find(|s| s.sb_id == sb_id) else {
                job.sb_cursor += 1;
                job.lwl_cursor = 0;
                continue;
            };
            let geo = self.array.geometry();
            if job.lwl_cursor >= geo.lwls_per_block() {
                job.sb_cursor += 1;
                job.lwl_cursor = 0;
                continue;
            }
            let pages_per_lwl = geo.pages_per_lwl();
            let lwl = LwlId(job.lwl_cursor);
            job.lwl_cursor += 1;
            let mut members = std::mem::take(&mut self.patrol_bufs.members);
            members.clear();
            members.extend_from_slice(&sb.members);
            let mut time = 0.0;
            // Parity verification rides the existing scan for free: the OOB
            // reads below already visit every page of the stripe, so the
            // stripe XOR accumulates as a side effect and only the parity
            // payload itself costs one extra read. No second cursor.
            let parity_on = self.config.parity.enabled();
            let mut lwl_xor = 0u64;
            let mut parity_page: Option<PageAddr> = None;
            let mut live_pages = 0u64;
            let mut unrefreshed_live = std::mem::take(&mut self.patrol_bufs.unrefreshed_live);
            unrefreshed_live.clear();
            for &member in &members {
                let group = self.array.geometry().chip_plane_index(member);
                // Pages are scanned in slot order through one view of the
                // member word-line. A refresh ends the view: its staging
                // (and the emergency collection before it) may program,
                // erase or collect this very block, so the remaining pages
                // are read through a fresh, re-checked view.
                let mut k = 0;
                while k < pages_per_lwl {
                    let Some(line) = readable_word_line(&self.array, member.wl(lwl))? else {
                        break;
                    };
                    let mut refresh = None;
                    while k < pages_per_lwl && refresh.is_none() {
                        let slot = k;
                        k += 1;
                        let (page, oob) = (line.page(slot), line.oob(slot));
                        if parity_on {
                            if oob.is_parity() {
                                parity_page = Some(page);
                                continue;
                            }
                            // Every data/filler tag — live or stale — is
                            // part of the stripe XOR (payload tag == OOB lpn
                            // for both).
                            lwl_xor ^= oob.lpn;
                        }
                        if oob.is_filler() || self.mapping.lookup(oob.lpn) != Some(page) {
                            // Filler or a stale copy: nothing to protect.
                            continue;
                        }
                        let (tag, t_read) = line.read(slot);
                        debug_assert_eq!(tag, oob.lpn);
                        self.touches.record(group, t_read);
                        time += t_read;
                        self.stats.patrol_scanned_pages += 1;
                        live_pages += 1;
                        let bits = line.expected_error_bits(slot, self.data_age_hours(oob.lpn));
                        if bits >= refresh_at {
                            refresh = Some(oob.lpn);
                        } else if parity_on {
                            unrefreshed_live.push(oob.lpn);
                        }
                    }
                    let Some(lpn) = refresh else { break };
                    if self.manager.assemblable() <= 1 {
                        // Same emergency floor as the read path: a
                        // refresh-heavy pass through aged media must not
                        // outrun collection and drain the pool.
                        time += self.gc_slice_toward(f64::INFINITY, 2)?;
                    }
                    time += self.stage_write(lpn, Purpose::Gc)?;
                    self.stats.patrol_refreshes += 1;
                }
            }
            if parity_on && live_pages > 0 {
                let mut mismatch = false;
                match parity_page {
                    Some(page) => {
                        let (ptag, t_read) = self.array.read_page(page)?;
                        self.touch_block(page.wl.block, t_read);
                        time += t_read;
                        if ptag == lwl_xor {
                            self.stats.parity_verified += 1;
                        } else {
                            mismatch = true;
                        }
                    }
                    // Live data with no parity page (the parity-carrying
                    // member was dropped): the stripe is unprotected.
                    None => mismatch = true,
                }
                if mismatch {
                    // The stripe can no longer rebuild a lost page: feed its
                    // live pages through the same reactive-refresh path an
                    // uncorrectable read takes, so fresh protected copies
                    // replace the exposed ones.
                    self.stats.parity_mismatch += 1;
                    for &lpn in &unrefreshed_live {
                        if self.manager.assemblable() <= 1 {
                            time += self.gc_slice_toward(f64::INFINITY, 2)?;
                        }
                        time += self.stage_write(lpn, Purpose::Gc)?;
                        self.stats.refresh_relocations += 1;
                    }
                }
            }
            self.patrol_bufs.members = members;
            self.patrol_bufs.unrefreshed_live = unrefreshed_live;
            self.patrol_job = Some(job);
            return Ok(time);
        }
    }

    /// Runs up to `budget_us` of relocation work toward the high watermark,
    /// parking the in-progress victim when the budget runs out. Yields only
    /// between word-line steps, so a slice may overrun by one program.
    fn gc_slice(&mut self, budget_us: f64) -> Result<f64> {
        self.gc_slice_toward(budget_us, self.config.gc_high_watermark)
    }

    /// [`Ssd::gc_slice`] with an explicit free-space target (the emergency
    /// path reclaims toward 1, not the high watermark).
    fn gc_slice_toward(&mut self, budget_us: f64, target: usize) -> Result<f64> {
        let mut time = 0.0;
        let mut yielded = false;
        while self.manager.assemblable() < target {
            if time >= budget_us {
                yielded = self.gc_job.is_some();
                break;
            }
            if self.gc_job.is_none() && !self.gc_start_job() {
                break;
            }
            time += self.gc_job_step()?;
        }
        if time > 0.0 {
            self.stats.gc_slices += 1;
            self.stats.gc_slice_us.record(time);
        }
        if yielded {
            self.stats.gc_yield_count += 1;
        }
        Ok(time)
    }

    /// Pages per superblock that can hold host data: all of them, minus the
    /// one-parity-page-per-super-word-line reserve when parity is on.
    /// Victim scoring normalizes valid-page counts by this, so a full
    /// parity superblock still scores as full.
    fn data_pages_per_superblock(&self) -> usize {
        let all = self.geometry_info().pages_per_superblock as usize;
        if self.config.parity.enabled() {
            all - self.array.geometry().lwls_per_block() as usize
        } else {
            all
        }
    }

    /// Selects a victim and parks it as the resumable job. The victim stays
    /// in the sealed list — and therefore in every checkpoint — until the
    /// final flush + free, so a crash mid-collection recovers it under its
    /// old identity. Returns false when nothing is sealed.
    fn gc_start_job(&mut self) -> bool {
        let pages_per_sb = self.data_pages_per_superblock();
        let Some(victim_idx) = select_victim(
            self.config.gc_policy,
            &self.sealed,
            &self.mapping,
            pages_per_sb,
            self.seal_seq,
        ) else {
            return false;
        };
        let victim = &self.sealed[victim_idx];
        self.gc_job = Some(GcJob::new(victim.sb_id, victim.members.clone()));
        true
    }

    /// One word-line-granularity step of the parked job: relocate the next
    /// valid page, or — once every member has drained — flush the staged
    /// copies and free the victim. A step never splits a program, so it is
    /// the preemption quantum.
    fn gc_job_step(&mut self) -> Result<f64> {
        let mut job = self.gc_job.take().expect("caller started a job");
        loop {
            if let Some(&(lpn, ppa)) = job.pending.get(job.pending_cursor) {
                job.pending_cursor += 1;
                // The host may have overwritten or trimmed the page while
                // the job was parked; the mapping is the ground truth.
                if self.mapping.lookup(lpn) != Some(ppa) {
                    continue;
                }
                let (tag, t_read) = self.array.read_page(ppa)?;
                debug_assert_eq!(tag, lpn);
                let t_read = self.gc_read_with_parity_check(lpn, ppa, t_read, &job.members)?;
                self.touch_block(ppa.wl.block, t_read);
                let mut t = t_read;
                t += self.stage_write(lpn, Purpose::Gc)?;
                self.stats.gc_relocations += 1;
                job.staged.insert(lpn);
                self.gc_job = Some(job);
                return Ok(t);
            }
            if let Some(&member) = job.members.get(job.member_cursor) {
                job.member_cursor += 1;
                // Staged LPNs keep mapping into the victim until their GC
                // copy programs; filtering them out of the re-collection is
                // what keeps resumption from relocating a page twice.
                job.pending.clear();
                job.pending_cursor = 0;
                let staged = &job.staged;
                job.pending.extend(
                    self.mapping.valid_in_block(member).filter(|(lpn, _)| !staged.contains(lpn)),
                );
                continue;
            }
            // All members drained: make the staged copies durable, then free
            // the victim and retire its identity. Journaled only now — had
            // power died earlier, the victim still held its data and is
            // still recovered under its old identity.
            let t = self.flush_purpose(Purpose::Gc)?;
            for &member in &job.members {
                self.mapping.invalidate_block(member);
                self.manager.free(member, None);
            }
            let idx = self
                .sealed
                .iter()
                .position(|s| s.sb_id == job.sb_id)
                .expect("victim stays sealed until freed");
            self.sealed.swap_remove(idx);
            self.spor.journal(JournalEntry::Freed { sb_id: job.sb_id });
            self.stats.gc_runs += 1;
            return Ok(t);
        }
    }

    /// Collects one victim superblock; `None` when no sealed victim exists.
    fn gc_once(&mut self) -> Result<Option<f64>> {
        let pages_per_sb = self.data_pages_per_superblock();
        let Some(victim_idx) = select_victim(
            self.config.gc_policy,
            &self.sealed,
            &self.mapping,
            pages_per_sb,
            self.seal_seq,
        ) else {
            return Ok(None);
        };
        let victim = self.sealed.swap_remove(victim_idx);
        let mut time = 0.0;
        // The valid-page iterator borrows the mapping, which stage_write
        // mutates — collect into the reusable scratch buffer first.
        let mut scratch = std::mem::take(&mut self.scratch);
        for &member in &victim.members {
            scratch.clear();
            scratch.extend(self.mapping.valid_in_block(member));
            for &(lpn, ppa) in &scratch {
                let (tag, t_read) = self.array.read_page(ppa)?;
                debug_assert_eq!(tag, lpn);
                let t_read = self.gc_read_with_parity_check(lpn, ppa, t_read, &victim.members)?;
                self.touch_block(ppa.wl.block, t_read);
                time += t_read;
                time += self.stage_write(lpn, Purpose::Gc)?;
                self.stats.gc_relocations += 1;
            }
        }
        scratch.clear();
        self.scratch = scratch;
        // Everything staged must be durable before the old copies vanish.
        time += self.flush_purpose(Purpose::Gc)?;
        for &member in &victim.members {
            self.mapping.invalidate_block(member);
            self.manager.free(member, None);
        }
        // Journaled only now: had power died mid-relocation, the victim
        // would still hold its data and must still be recovered under its
        // old identity.
        self.spor.journal(JournalEntry::Freed { sb_id: victim.sb_id });
        self.stats.gc_runs += 1;
        Ok(Some(time))
    }

    /// Takes a checkpoint when the configured interval of super word-line
    /// programs has elapsed. Called at the end of the public operations, so
    /// every open superblock is parked in its slot.
    fn maybe_checkpoint(&mut self) -> Result<()> {
        if !self.spor.enabled || self.spor.crashed {
            return Ok(());
        }
        let interval = self.config.spor.checkpoint_interval;
        if interval == 0 || self.spor.superwls_since_ckpt < interval {
            return Ok(());
        }
        self.take_checkpoint()
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
    fn take_checkpoint(&mut self) -> Result<()> {
        let ckpt = &mut self.spor.checkpoint;
        if ckpt.seq.is_empty() {
            let n = usize::try_from(self.logical_pages).expect("capacity fits usize");
            ckpt.seq = vec![0; n];
            ckpt.loc = vec![NO_PAGE; n];
            if self.birth_us.is_some() {
                ckpt.birth = vec![0.0; n];
            }
        }
        self.mapping.take_changed(&mut self.changed_lpns);
        let geo = self.array.geometry();
        for &lpn in &self.changed_lpns {
            let i = usize::try_from(lpn).expect("lpn fits usize");
            (ckpt.seq[i], ckpt.loc[i]) = match self.mapping.lookup(lpn) {
                Some(ppa) => (self.array.read_oob(ppa)?.seq, geo.page_index(ppa) as u64),
                None => (self.spor.trim_seqs.get(&lpn).copied().unwrap_or(0), NO_PAGE),
            };
            if let Some(birth) = &self.birth_us {
                ckpt.birth[i] = birth[i];
            }
        }
        ckpt.sealed =
            self.sealed.iter().map(|s| (s.sb_id, s.members.clone(), s.sealed_at)).collect();
        ckpt.actives = self.actives.iter().map(|a| (a.sb_id(), a.members.clone())).collect();
        for e in &self.spor.journal {
            if let JournalEntry::Retired { addr } = e {
                ckpt.retired.push(*addr);
            }
        }
        ckpt.write_seq = self.spor.write_seq;
        ckpt.sb_seq = self.sb_seq;
        ckpt.seal_seq = self.seal_seq;
        self.spor.journal.clear();
        self.spor.superwls_since_ckpt = 0;
        Ok(())
    }

    /// Rebuilds all RAM state after a sudden power loss: replays the
    /// journal over the last checkpoint, scans the OOB metadata of every
    /// superblock dirtied since that checkpoint (highest write sequence
    /// wins; pages of a torn super word-line are discarded), restores the
    /// gathered QSTR-MED summaries from the persisted seal records, and
    /// re-seeds wear tracking from the media's P/E counters.
    ///
    /// The durability contract: a write is acknowledged durable only once
    /// its super word-line program completes, so the recovered mapping is
    /// exactly the RAM mapping at the instant of the crash — staged pages
    /// and torn word-lines (never acknowledged) are not recovered, and no
    /// phantom mappings appear.
    ///
    /// Also works on a healthy device (simulating a clean power cycle that
    /// lost RAM but flushed nothing).
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::InvalidConfig`] when SPOR is disabled;
    /// propagates flash errors (internal invariant bugs).
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        if !self.spor.enabled {
            return Err(FtlError::InvalidConfig {
                reason: "recovery requires spor.enabled".to_string(),
            });
        }
        let geo = self.array.geometry().clone();
        // RAM died with the power: open superblocks, their staging buffers
        // and gatherers are gone. A parked GC job loses only its cursors —
        // the victim was never freed, so it comes back sealed and
        // re-selectable with its remaining valid pages intact. Likewise a
        // parked patrol pass: its cursors drop and the pass restarts, but
        // no mapping state ever depended on them.
        self.actives.clear();
        self.gc_job = None;
        self.patrol_job = None;
        // 1. Replay the journal over the checkpoint's block sets.
        let mut retired = self.spor.checkpoint.retired.clone();
        let mut freed: HashSet<u64> = HashSet::new();
        let mut dirty: Vec<(u64, Vec<BlockAddr>)> = self.spor.checkpoint.actives.clone();
        self.sb_seq = self.spor.checkpoint.sb_seq;
        for e in &self.spor.journal {
            match e {
                JournalEntry::Opened { sb_id, members } => {
                    self.sb_seq = self.sb_seq.max(sb_id + 1);
                    dirty.push((*sb_id, members.clone()));
                }
                JournalEntry::Freed { sb_id } => {
                    freed.insert(*sb_id);
                }
                JournalEntry::Retired { addr } => retired.push(*addr),
                JournalEntry::Trimmed { .. } => {}
            }
        }
        dirty.retain(|(id, _)| !freed.contains(id));
        let mut sealed: Vec<SealedSuperblock> = self
            .spor
            .checkpoint
            .sealed
            .iter()
            .filter(|(id, _, _)| !freed.contains(id))
            .map(|(id, members, at)| SealedSuperblock {
                sb_id: *id,
                members: members.clone(),
                sealed_at: *at,
                // The checkpoint does not persist the class; PV-aware
                // patrol ordering treats recovered superblocks as unknown.
                class: None,
            })
            .collect();
        // 2. Latest-wins merge on per-LPN columns cloned from the
        // checkpoint (before the first checkpoint: no entries), then the
        // journaled trim tombstones.
        let n = usize::try_from(self.logical_pages).expect("capacity fits usize");
        let ckpt = &self.spor.checkpoint;
        let (mut seqs, mut locs) = if ckpt.seq.is_empty() {
            (vec![0; n], vec![NO_PAGE; n])
        } else {
            (ckpt.seq.clone(), ckpt.loc.clone())
        };
        let mut max_seq = ckpt.write_seq.saturating_sub(1);
        for e in &self.spor.journal {
            if let JournalEntry::Trimmed { lpn, seq } = *e {
                max_seq = max_seq.max(seq);
                let i = usize::try_from(lpn).expect("lpn fits usize");
                if seq > seqs[i] {
                    (seqs[i], locs[i]) = (seq, NO_PAGE);
                }
            }
        }
        // 3. OOB scan of the dirty superblocks — O(written since the last
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
                if let Some(t) = self.array.torn_lwl(m)? {
                    torn_wl = Some(t);
                }
            }
            for &member in members {
                for lwl in geo.lwls() {
                    // The scan stops at the member's first word-line with
                    // nothing readable: its write pointer, or the torn one.
                    let Some(line) = readable_word_line(&self.array, member.wl(lwl))? else {
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
        // 4. Rebuild the mapping from the merge winners in LPN order, so the
        // rebuild is deterministic end to end.
        for lpn in 0..self.logical_pages {
            self.mapping.unmap(lpn);
        }
        self.spor.trim_seqs.clear();
        let ckpt = &self.spor.checkpoint;
        for (i, (&seq, &loc)) in seqs.iter().zip(&locs).enumerate() {
            let lpn = i as u64;
            if loc != NO_PAGE {
                self.mapping.map(lpn, geo.page_at_index(loc as usize));
                if let Some(birth) = &mut self.birth_us {
                    // A winner the checkpoint already held takes its
                    // checkpointed write time (sequences are unique per
                    // write). One written after that checkpoint
                    // conservatively reports age since power-on — patrol
                    // re-examines it early rather than never.
                    birth[i] = if ckpt.seq.get(i) == Some(&seq) { ckpt.birth[i] } else { 0.0 };
                }
                report.recovered_mappings += 1;
            } else if seq > 0 {
                self.spor.trim_seqs.insert(lpn, seq);
            }
        }
        // 5. Close every dirty superblock into the sealed list: partially
        // written ones take no further programs (their write pointers are
        // mid-block and the staging context is lost), so GC reclaims them.
        self.seal_seq = self.spor.checkpoint.seal_seq;
        for (sb_id, members) in &dirty {
            sealed.push(SealedSuperblock {
                sb_id: *sb_id,
                members: members.clone(),
                sealed_at: self.seal_seq,
                class: None,
            });
            self.seal_seq += 1;
        }
        self.sealed = sealed;
        // 6. Rebuild the block manager: bad blocks out, live members
        // claimed, then every persisted seal record restores the gathered
        // summaries — QSTR-MED resumes without re-characterizing anything.
        let mut manager = BlockManager::new(&geo, self.config.scheme, self.seed ^ 0x5eed);
        for &addr in &retired {
            manager.retire(addr);
        }
        for sb in &self.sealed {
            for &m in &sb.members {
                manager.claim(m);
            }
        }
        if self.config.precharacterize {
            let pool =
                Characterizer::new(&self.config.flash).snapshot(self.array.latency_model(), 0);
            let strings = geo.strings();
            for profile in pool.iter() {
                manager.learn(profile.summary(strings));
            }
        }
        for record in self.array.seal_records() {
            for s in &record.summaries {
                manager.learn(BlockSummary {
                    addr: s.addr,
                    pgm_sum_us: s.pgm_sum_us,
                    eigen: EigenSequence::from_bits(s.eigen_bits.iter().copied()),
                });
            }
        }
        manager.promote_known();
        self.manager = manager;
        // 7. Wear: the media's P/E counters are the ground truth.
        self.wear = WearTracker::new(self.config.wear_threshold);
        for addr in geo.blocks() {
            self.wear.set_erases(addr, self.array.pe_cycles(addr)?);
        }
        // 8. Back to life: sequences continue past everything ever durably
        // assigned, and a fresh checkpoint bounds the next recovery's scan.
        // The merge columns already are that checkpoint's per-LPN state —
        // each winner's sequence is its page's OOB sequence, each loser
        // slot its tombstone — so the rebuild's change record is dropped
        // instead of re-read from flash.
        self.spor.crashed = false;
        self.spor.journal.clear();
        self.spor.superwls_since_ckpt = 0;
        self.spor.write_seq = max_seq + 1;
        let ckpt = &mut self.spor.checkpoint;
        (ckpt.seq, ckpt.loc) = (seqs, locs);
        if let Some(birth) = &self.birth_us {
            ckpt.birth.clone_from(birth);
        }
        ckpt.retired = retired;
        self.mapping.take_changed(&mut self.changed_lpns);
        self.stats.recovery_scan_pages += report.scanned_pages;
        self.stats.recovered_mappings += report.recovered_mappings;
        self.stats.torn_writes_discarded += report.torn_writes_discarded;
        self.stats.recovery_time_us += report.scan_us;
        self.take_checkpoint()?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OrganizationScheme;
    use crate::workload::Workload;

    fn ssd(scheme: OrganizationScheme) -> Ssd {
        let mut config = FtlConfig::small_test();
        config.scheme = scheme;
        Ssd::new(config, 11).unwrap()
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut dev = ssd(OrganizationScheme::Random);
        let w = dev.write(5).unwrap();
        assert!(w > 0.0);
        let r = dev.read(5).unwrap().unwrap();
        assert!(r > 0.0);
        assert_eq!(dev.read(6).unwrap(), None, "unwritten page");
    }

    #[test]
    fn read_after_flush_hits_flash() {
        let mut dev = ssd(OrganizationScheme::Random);
        dev.write(5).unwrap();
        dev.flush().unwrap();
        let r = dev.read(5).unwrap().unwrap();
        // Flash read latency is much larger than the transfer time.
        assert!(r > dev.config.transfer_us, "latency {r}");
        assert_eq!(dev.valid_pages(), 1);
    }

    #[test]
    fn out_of_range_is_reported() {
        let mut dev = ssd(OrganizationScheme::Random);
        let cap = dev.geometry_info().logical_pages;
        assert!(matches!(dev.write(cap), Err(FtlError::LpnOutOfRange { .. })));
        assert!(matches!(dev.read(cap), Err(FtlError::LpnOutOfRange { .. })));
    }

    #[test]
    fn trim_unmaps() {
        let mut dev = ssd(OrganizationScheme::Random);
        dev.write(5).unwrap();
        dev.flush().unwrap();
        dev.trim(5).unwrap();
        assert_eq!(dev.read(5).unwrap(), None);
        assert_eq!(dev.valid_pages(), 0);
    }

    #[test]
    fn overwrite_keeps_one_valid_copy() {
        let mut dev = ssd(OrganizationScheme::Random);
        for _ in 0..5 {
            dev.write(9).unwrap();
        }
        dev.flush().unwrap();
        assert_eq!(dev.valid_pages(), 1);
        assert!(dev.read(9).unwrap().is_some());
    }

    #[test]
    fn sustained_writes_trigger_gc_and_survive() {
        for scheme in [
            OrganizationScheme::Random,
            OrganizationScheme::Sequential,
            OrganizationScheme::QstrMed { candidates: 4 },
        ] {
            let mut dev = ssd(scheme);
            let info = dev.geometry_info();
            // Write 3x the logical space over half the LPNs.
            let reqs =
                Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 7);
            dev.run(&reqs).unwrap();
            assert!(dev.stats().gc_runs > 0, "{scheme:?} should have collected garbage");
            assert!(dev.stats().waf() > 1.0);
            // All recently written pages still readable.
            for lpn in 0..(info.logical_pages / 2).min(50) {
                let _ = dev.read(lpn).unwrap();
            }
        }
    }

    #[test]
    fn qstr_scheme_performs_distance_checks() {
        let mut dev = ssd(OrganizationScheme::QstrMed { candidates: 4 });
        let info = dev.geometry_info();
        let reqs =
            Workload::random_write(0.5).generate(&info, (info.logical_pages * 2) as usize, 3);
        dev.run(&reqs).unwrap();
        assert!(dev.distance_checks() > 0);
    }

    #[test]
    fn qstr_reduces_extra_program_latency_vs_random() {
        let run = |scheme| {
            let mut dev = ssd(scheme);
            let info = dev.geometry_info();
            let reqs =
                Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 7);
            dev.run(&reqs).unwrap();
            dev.stats().extra_program_per_op_us()
        };
        let random = run(OrganizationScheme::Random);
        let qstr = run(OrganizationScheme::QstrMed { candidates: 4 });
        assert!(qstr < random, "QSTR-MED {qstr} vs random {random}");
    }

    #[test]
    fn sequential_pages_stripe_across_chips() {
        let mut dev = ssd(OrganizationScheme::Random);
        for lpn in 0..12 {
            dev.write(lpn).unwrap();
        }
        dev.flush().unwrap();
        // The first four consecutive pages must sit on four distinct chips.
        let chips: std::collections::HashSet<u16> =
            (0..4).map(|lpn| dev.mapping.lookup(lpn).unwrap().wl.block.chip.0).collect();
        assert_eq!(chips.len(), 4, "page-major striping spreads chips");
    }

    #[test]
    fn batch_read_is_cheaper_than_serial_reads() {
        let mut dev = ssd(OrganizationScheme::Random);
        for lpn in 0..4 {
            dev.write(lpn).unwrap();
        }
        dev.flush().unwrap();
        let batch = dev.read_batch(&[0, 1, 2, 3]).unwrap();
        let serial: f64 = (0..4).map(|l| dev.read(l).unwrap().unwrap()).sum();
        assert!(batch < serial, "batch {batch} vs serial {serial}");
    }

    #[test]
    fn batch_read_skips_unwritten_pages() {
        let mut dev = ssd(OrganizationScheme::Random);
        dev.write(0).unwrap();
        let before = dev.stats().host_reads;
        dev.read_batch(&[0, 1, 2]).unwrap();
        assert_eq!(dev.stats().host_reads, before + 1);
    }

    #[test]
    fn wear_spread_is_tracked() {
        let mut dev = ssd(OrganizationScheme::Random);
        let info = dev.geometry_info();
        let reqs =
            Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 7);
        dev.run(&reqs).unwrap();
        let (min, max) = dev.wear_spread();
        assert!(max >= 1, "some block must have been erased");
        assert!(max >= min);
    }

    #[test]
    fn cost_benefit_gc_also_survives_sustained_writes() {
        let mut config = FtlConfig::small_test();
        config.gc_policy = crate::gc::GcPolicy::CostBenefit;
        let mut dev = Ssd::new(config, 3).unwrap();
        let info = dev.geometry_info();
        let reqs =
            Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 9);
        dev.run(&reqs).unwrap();
        assert!(dev.stats().gc_runs > 0);
    }

    #[test]
    fn timed_run_adds_queueing_delay_under_load() {
        use crate::workload::poisson_arrivals;
        let reqs: Vec<crate::IoRequest> = Workload::random_write(0.5).generate(
            &ssd(OrganizationScheme::Random).geometry_info(),
            3000,
            5,
        );
        // Saturating load: arrivals far faster than service.
        let mut busy_dev = ssd(OrganizationScheme::Random);
        busy_dev.run_timed(&poisson_arrivals(&reqs, 1.0, 1)).unwrap();
        // Relaxed load: arrivals far slower than service.
        let mut idle_dev = ssd(OrganizationScheme::Random);
        idle_dev.run_timed(&poisson_arrivals(&reqs, 100_000.0, 1)).unwrap();
        let busy_p99 = busy_dev.stats().write_latency.quantile_us(0.99);
        let idle_p99 = idle_dev.stats().write_latency.quantile_us(0.99);
        assert!(busy_p99 > idle_p99 * 2.0, "busy {busy_p99} vs idle {idle_p99}");
    }

    #[test]
    fn idle_gc_reduces_foreground_pauses() {
        use crate::workload::poisson_arrivals;
        let make = |idle_gc: bool| {
            let mut config = FtlConfig::small_test();
            config.idle_gc = idle_gc;
            Ssd::new(config, 3).unwrap()
        };
        let n = (make(false).geometry_info().logical_pages * 3) as usize;
        let reqs = Workload::random_write(0.5).generate(&make(false).geometry_info(), n, 5);
        // Arrivals slow enough to leave idle gaps.
        let timed = poisson_arrivals(&reqs, 6000.0, 1);
        let mut fg = make(false);
        fg.run_timed(&timed).unwrap();
        let mut bg = make(true);
        bg.run_timed(&timed).unwrap();
        assert!(bg.stats().gc_runs > 0);
        let fg_p99 = fg.stats().write_latency.quantile_us(0.999);
        let bg_p99 = bg.stats().write_latency.quantile_us(0.999);
        assert!(bg_p99 <= fg_p99, "idle GC p99.9 {bg_p99} vs foreground {fg_p99}");
    }

    #[test]
    fn idle_gc_time_is_accounted_separately_from_busy_time() {
        use crate::workload::poisson_arrivals;
        let mut config = FtlConfig::small_test();
        config.idle_gc = true;
        let mut dev = Ssd::new(config, 3).unwrap();
        let info = dev.geometry_info();
        let n = (info.logical_pages * 3) as usize;
        let reqs = Workload::random_write(0.5).generate(&info, n, 5);
        // Gap-heavy arrivals: plenty of idle time for background GC.
        dev.run_timed(&poisson_arrivals(&reqs, 6000.0, 1)).unwrap();
        assert!(dev.stats().gc_runs > 0, "idle gaps must have triggered GC");
        let s = dev.stats();
        assert!(s.idle_gc_us > 0.0, "idle GC time must be recorded");
        // busy_us sums foreground service times only, while the histograms
        // hold wait + service (wait >= 0) — so busy_us can never exceed the
        // histogram totals. Folding idle-GC time into busy_us (the old bug)
        // breaks this bound in gap-heavy runs where waits are near zero.
        let histogram_total = s.write_latency.mean_us() * s.write_latency.len() as f64
            + s.read_latency.mean_us() * s.read_latency.len() as f64;
        assert!(
            s.busy_us <= histogram_total + 1e-6,
            "busy_us {} must exclude idle GC (histogram total {histogram_total})",
            s.busy_us
        );
    }

    #[test]
    fn faulty_device_survives_sustained_writes_and_degrades_gracefully() {
        use flash_model::FaultConfig;
        for scheme in [OrganizationScheme::Random, OrganizationScheme::QstrMed { candidates: 4 }] {
            let mut config = FtlConfig::small_test();
            config.scheme = scheme;
            config.fault = FaultConfig::with_rate(0.02);
            let mut dev = Ssd::new(config, 11).unwrap();
            let info = dev.geometry_info();
            let reqs =
                Workload::random_write(0.5).generate(&info, (info.logical_pages * 4) as usize, 7);
            dev.run(&reqs).unwrap();
            dev.flush().unwrap();
            let s = dev.stats();
            assert!(s.retired_blocks > 0, "{scheme:?}: 2% faults must retire blocks");
            assert!(s.remapped_writes > 0, "{scheme:?}: failed programs must remap");
            // Every recently written page is still readable (no data loss).
            for lpn in 0..(info.logical_pages / 2).min(50) {
                let _ = dev.read(lpn).unwrap();
            }
        }
    }

    #[test]
    fn faults_disabled_leaves_counters_untouched() {
        let mut dev = ssd(OrganizationScheme::Random);
        let info = dev.geometry_info();
        let reqs =
            Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 7);
        dev.run(&reqs).unwrap();
        let s = dev.stats();
        assert_eq!(s.retired_blocks, 0);
        assert_eq!(s.remapped_writes, 0);
        assert_eq!(s.refresh_relocations, 0);
        assert_eq!(s.degraded_superblocks, 0);
    }

    #[test]
    fn uncorrectable_pages_are_refreshed_on_read() {
        use flash_model::FaultConfig;
        let mut config = FtlConfig::small_test();
        // Every block weak, BER far past the retry ladder: the first read of
        // any flash-resident page must trigger a refresh relocation.
        config.fault = FaultConfig {
            weak_block_prob: 1.0,
            weak_ber_multiplier: 1e6,
            ..FaultConfig::default()
        };
        let mut dev = Ssd::new(config, 11).unwrap();
        dev.write(5).unwrap();
        dev.flush().unwrap();
        let healthy = {
            let mut d = ssd(OrganizationScheme::Random);
            d.write(5).unwrap();
            d.flush().unwrap();
            d.read(5).unwrap().unwrap()
        };
        let r = dev.read(5).unwrap().unwrap();
        assert_eq!(dev.stats().refresh_relocations, 1);
        assert!(r > healthy, "retry ladder + refresh must cost time: {r} vs {healthy}");
        // The refreshed copy is immediately readable again.
        assert!(dev.read(5).unwrap().is_some());
    }

    #[test]
    fn parity_reserve_shrinks_logical_capacity_exactly() {
        use crate::config::ParityConfig;
        // Parity off: the historical export, pinned.
        let dev = Ssd::new(FtlConfig::small_test(), 11).unwrap();
        assert_eq!(dev.geometry_info().logical_pages, logical_capacity(9216, 0.25));
        // Parity on: one page per super word-line comes off the top (9216 /
        // 12 = 768 pages), and overprovision applies to what remains.
        let mut config = FtlConfig::small_test();
        config.parity = ParityConfig::On;
        assert_eq!(config.parity_reserve_pages(9216), 768);
        let dev = Ssd::new(config, 11).unwrap();
        assert_eq!(dev.geometry_info().logical_pages, logical_capacity(9216 - 768, 0.25));
    }

    #[test]
    fn double_failure_in_a_stripe_is_reported_not_absorbed() {
        use crate::config::ParityConfig;
        use flash_model::FaultConfig;
        // Every block weak and far past the retry ladder: the read is
        // uncorrectable AND so is every stripe sibling, so the rebuild must
        // fail — loudly — while the reactive refresh still restages a copy.
        let mut config = FtlConfig::small_test();
        config.parity = ParityConfig::On;
        config.fault = FaultConfig {
            weak_block_prob: 1.0,
            weak_ber_multiplier: 1e6,
            ..FaultConfig::default()
        };
        let mut dev = Ssd::new(config, 11).unwrap();
        dev.write(5).unwrap();
        dev.flush().unwrap();
        dev.read(5).unwrap().unwrap();
        let s = dev.stats();
        assert_eq!(s.uncorrectable_reads, 1);
        assert_eq!(s.rebuilds_ok, 0, "no stripe with every member rotten can rebuild");
        assert_eq!(s.rebuilds_failed, 1, "the double failure is true data loss, reported");
        // All 11 surviving pages of the 12-wide stripe were still read.
        assert_eq!(s.rebuild_reads, 11);
        assert!(s.rebuild_us > 0.0, "the failed attempt still cost stripe reads");
        assert_eq!(s.refresh_relocations, 1);
    }

    #[test]
    fn parity_rebuilds_uncorrectable_pages_from_stripe_siblings() {
        use crate::config::ParityConfig;
        use flash_model::FaultConfig;
        // A sprinkling of weak blocks whose elevation straddles the retry
        // ladder across the page-type spread: the MSB page of a weak
        // word-line rots past the ladder while its LSB/CSB siblings stay
        // correctable — the single-page loss the stripe XOR can rebuild.
        // Seed-scan so the test doesn't hinge on one RNG block layout.
        for seed in 0..32u64 {
            let mut config = FtlConfig::small_test();
            config.parity = ParityConfig::On;
            config.fault = FaultConfig {
                weak_block_prob: 0.15,
                weak_ber_multiplier: 150.0,
                page_type_ber_spread: 0.35,
                ..FaultConfig::default()
            };
            let mut dev = Ssd::new(config, seed).unwrap();
            let info = dev.geometry_info();
            let span = info.logical_pages / 2;
            for lpn in 0..span {
                dev.write(lpn).unwrap();
            }
            dev.flush().unwrap();
            let reads_before = dev.stats().read_latency.len();
            for lpn in 0..span {
                dev.read(lpn).unwrap().unwrap();
            }
            let s = dev.stats();
            // Every uncorrectable read triggered exactly one rebuild attempt
            // and one reactive refresh.
            assert_eq!(s.rebuilds_ok + s.rebuilds_failed, s.uncorrectable_reads);
            assert_eq!(s.refresh_relocations, s.uncorrectable_reads);
            // Each attempt read the 11 surviving pages of its stripe.
            assert_eq!(s.rebuild_reads, 11 * s.uncorrectable_reads);
            // Rebuild time is charged out of band: the read histogram saw
            // exactly one sample per host read regardless of rebuilds.
            assert_eq!(s.read_latency.len() - reads_before, span as usize);
            if s.rebuilds_ok > 0 {
                assert!(s.rebuild_us > 0.0, "successful rebuilds cost stripe-read time");
                return;
            }
        }
        panic!("no seed in 0..32 produced a successful stripe rebuild");
    }

    #[test]
    fn logical_capacity_matches_float_path_on_shipped_configs() {
        // The goldens depend on these values: the integer rewrite must agree
        // with the old f64 computation wherever that computation was exact —
        // which covers every experiment config (all use overprovision 0.25).
        for (physical, op) in [(9216u64, 0.25), (55_296, 0.25), (4096, 0.5)] {
            let old = (physical as f64 * (1.0 - op)) as u64;
            assert_eq!(logical_capacity(physical, op), old, "physical={physical} op={op}");
        }
        // The paper platform under the default 15% overprovision is already
        // past f64: `1.0 - 0.15` is a hair under 0.85, so the true floor is
        // 6_266_879 — the old path rounded the product up and exported one
        // logical page that physically does not fit the reserve.
        assert_eq!(logical_capacity(7_372_800, 0.15), 6_266_879);
        assert_eq!((7_372_800.0_f64 * (1.0 - 0.15)) as u64, 6_266_880, "the old path");
    }

    #[test]
    fn logical_capacity_is_exact_where_f64_rounds() {
        // floor((2^64 - 1) * 3/4) = 3 * 2^62 - 1. The f64 path rounds
        // u64::MAX up to 2^64 and answers 3 * 2^62 — one page too many.
        let exact = (u128::from(u64::MAX) * 3 / 4) as u64;
        assert_eq!(logical_capacity(u64::MAX, 0.25), exact);
        assert_eq!(exact, 13_835_058_055_282_163_711);
        assert_ne!((u64::MAX as f64 * 0.75) as u64, exact, "the old path was wrong here");
        // Dyadic fractions are exact rationals after decomposition: check
        // against independent u128 arithmetic across magnitudes.
        for p in [0u64, 1, (1 << 53) + 1, (1 << 60) + 12_345, u64::MAX - 1] {
            assert_eq!(logical_capacity(p, 0.25), (u128::from(p) * 3 / 4) as u64);
            assert_eq!(logical_capacity(p, 0.5), p / 2);
        }
        assert_eq!(logical_capacity(1000, 0.9999), 0, "tiny fraction floors to zero sanely");
    }

    #[test]
    fn timed_run_records_read_miss_and_trim_waits() {
        use crate::workload::poisson_arrivals;
        // One long write burst, then a read miss and a trim that both arrive
        // while the device is still busy: their waits must not vanish.
        let mut dev = ssd(OrganizationScheme::Random);
        let reqs: Vec<crate::IoRequest> =
            Workload::random_write(0.5).generate(&dev.geometry_info(), 200, 5);
        let mut timed = poisson_arrivals(&reqs, 1.0, 1);
        let last = timed.last().unwrap().0;
        let miss_lpn = dev.geometry_info().logical_pages - 1;
        timed.push((last, IoRequest { op: IoOp::Read, lpn: miss_lpn }));
        timed.push((last, IoRequest { op: IoOp::Trim, lpn: miss_lpn }));
        dev.run_timed(&timed).unwrap();
        let s = dev.stats();
        assert_eq!(s.read_latency.len() as u64, 1, "miss wait recorded as a read sample");
        assert!(s.read_latency.max_us() > 0.0, "the device was busy, so the miss waited");
        assert!(s.trim_wait_us > 0.0, "trim wait recorded");
        assert!(s.queue_wait_us > 0.0);
        assert!(s.queue_depth_max >= 2, "saturating load queues requests");
        assert!(s.makespan_us > 0.0);
    }

    fn queue_model_run(model: crate::QueueModel, interarrival_us: f64) -> Ssd {
        use crate::workload::poisson_arrivals;
        let mut config = FtlConfig::small_test();
        config.queue_model = model;
        let mut dev = Ssd::new(config, 3).unwrap();
        let info = dev.geometry_info();
        let reqs =
            Workload::random_write(0.5).generate(&info, (info.logical_pages * 2) as usize, 5);
        dev.run_timed(&poisson_arrivals(&reqs, interarrival_us, 1)).unwrap();
        dev
    }

    #[test]
    fn per_chip_model_overlaps_work_across_chips() {
        use crate::QueueModel;
        let single = queue_model_run(QueueModel::Single, 40.0);
        let per_chip = queue_model_run(QueueModel::PerChip, 40.0);
        // Identical request outcomes: the timing model only changes clocks.
        assert_eq!(single.stats().host_writes, per_chip.stats().host_writes);
        assert_eq!(single.stats().gc_runs, per_chip.stats().gc_runs);
        let sum_service = per_chip.stats().busy_us;
        let makespan = per_chip.stats().makespan_us;
        assert!(
            makespan < sum_service,
            "chip overlap must compress the replay: makespan {makespan} vs serial {sum_service}"
        );
        assert!(
            per_chip.stats().makespan_us < single.stats().makespan_us,
            "per-chip replay finishes before the single-queue replay"
        );
        // Under saturating arrivals the single queue's waits dominate its
        // tail; overlap must strictly shrink it.
        let s99 = single.stats().write_latency.quantile_us(0.99);
        let p99 = per_chip.stats().write_latency.quantile_us(0.99);
        assert!(p99 < s99, "per-chip p99 {p99} vs single {s99}");
    }

    #[test]
    fn per_chip_model_reports_utilization_per_group() {
        use crate::QueueModel;
        let dev = queue_model_run(QueueModel::PerChip, 40.0);
        let geo_groups = 4; // small_test: 4 chips x 1 plane
        let s = dev.stats();
        assert_eq!(s.chip_busy_us.len(), geo_groups + 1, "chips plus the host channel");
        let util = s.chip_utilization();
        assert!(s.chip_busy_us.iter().all(|&b| b > 0.0), "every chip did work");
        assert!(util.iter().all(|&u| (0.0..=1.0 + 1e-9).contains(&u)), "utilization is a ratio");
        // Occupancy never exceeds the wall clock on any single resource.
        for &b in &s.chip_busy_us {
            assert!(b <= s.makespan_us + 1e-6, "busy {b} vs makespan {}", s.makespan_us);
        }
    }

    #[test]
    fn per_chip_idle_gc_charges_only_touched_chips() {
        use crate::workload::poisson_arrivals;
        use crate::QueueModel;
        let mut config = FtlConfig::small_test();
        config.idle_gc = true;
        config.queue_model = QueueModel::PerChip;
        let mut dev = Ssd::new(config, 3).unwrap();
        let info = dev.geometry_info();
        let n = (info.logical_pages * 3) as usize;
        let reqs = Workload::random_write(0.5).generate(&info, n, 5);
        dev.run_timed(&poisson_arrivals(&reqs, 6000.0, 1)).unwrap();
        let s = dev.stats();
        assert!(s.gc_runs > 0, "idle gaps must have triggered GC");
        assert!(s.idle_gc_us > 0.0);
        // Idle-GC occupancy lands on the chip clocks: total occupancy
        // exceeds foreground service alone.
        let occupancy: f64 = s.chip_busy_us.iter().sum();
        assert!(occupancy > 0.0);
    }

    #[test]
    fn naive_mapping_reproduces_dense_results_bit_for_bit() {
        // The HashMap reference implementation must make identical decisions
        // — this is what lets perf_replay time a genuine before/after on the
        // same binary.
        let run = |naive: bool| {
            let mut dev = ssd(OrganizationScheme::QstrMed { candidates: 4 });
            if naive {
                dev.use_naive_mapping_for_benchmarks();
            }
            let info = dev.geometry_info();
            let reqs =
                Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 7);
            dev.run(&reqs).unwrap();
            (
                dev.stats().write_latency.mean_us().to_bits(),
                dev.stats().waf().to_bits(),
                dev.stats().busy_us.to_bits(),
                dev.stats().gc_relocations,
                dev.stats().gc_runs,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stats_track_host_operations() {
        let mut dev = ssd(OrganizationScheme::Random);
        dev.write(1).unwrap();
        dev.write(2).unwrap();
        dev.read(1).unwrap();
        dev.trim(2).unwrap();
        let s = dev.stats();
        assert_eq!(s.host_writes, 2);
        assert_eq!(s.host_reads, 1);
        assert_eq!(s.host_trims, 1);
        assert!(s.busy_us > 0.0);
    }

    fn apply(dev: &mut Ssd, req: &IoRequest) -> Result<()> {
        match req.op {
            IoOp::Write => dev.write(req.lpn).map(|_| ()),
            IoOp::Read => dev.read(req.lpn).map(|_| ()),
            IoOp::Trim => dev.trim(req.lpn),
        }
    }

    #[test]
    fn injected_crash_halts_the_device_and_recovery_restores_the_exact_mapping() {
        use crate::recovery::CrashPoint;
        let mut config = FtlConfig::small_test();
        config.scheme = OrganizationScheme::QstrMed { candidates: 4 };
        config.spor.checkpoint_interval = 8;
        config.spor.crash = Some(CrashPoint::from_seed(3, 4000));
        let mut dev = Ssd::new(config, 11).unwrap();
        let info = dev.geometry_info();
        let reqs =
            Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 7);
        let mut resume_at = None;
        for (i, req) in reqs.iter().enumerate() {
            match apply(&mut dev, req) {
                Ok(()) => {}
                Err(FtlError::PowerLoss) => {
                    resume_at = Some(i);
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let crashed_at = resume_at.expect("the injected crash must fire inside 3x capacity");
        assert!(dev.has_crashed());
        // A halted device refuses every host op.
        assert!(matches!(dev.write(0), Err(FtlError::PowerLoss)));
        assert!(matches!(dev.read(0), Err(FtlError::PowerLoss)));
        // RAM state at the instant of the crash is the durability contract:
        // only acknowledged (programmed) writes are in the mapping.
        let ram: Vec<Option<PageAddr>> =
            (0..info.logical_pages).map(|l| dev.mapping.lookup(l)).collect();
        let ram_valid = dev.valid_pages();
        let report = dev.recover().unwrap();
        assert!(!dev.has_crashed());
        assert!(report.scanned_pages > 0, "dirty superblocks were scanned");
        assert_eq!(report.recovered_mappings, ram_valid as u64, "one mapping per valid page");
        for lpn in 0..info.logical_pages {
            assert_eq!(dev.mapping.lookup(lpn), ram[lpn as usize], "lpn {lpn}");
        }
        assert_eq!(dev.valid_pages(), ram_valid, "valid counters rebuilt");
        // Every recovered page is readable and the device keeps working.
        for lpn in 0..info.logical_pages {
            let got = dev.read(lpn).unwrap();
            assert_eq!(got.is_some(), ram[lpn as usize].is_some(), "lpn {lpn}");
        }
        for req in &reqs[crashed_at..] {
            apply(&mut dev, req).unwrap();
        }
        let s = dev.stats();
        assert_eq!(s.recovery_scan_pages, report.scanned_pages);
        assert_eq!(s.recovered_mappings, report.recovered_mappings);
        assert!(s.recovery_time_us > 0.0);
    }

    /// The checkpoint's per-LPN columns as a full rescan of RAM builds
    /// them — the original O(logical pages) algorithm, kept as the oracle
    /// for the incremental one.
    fn full_rescan_checkpoint(dev: &Ssd) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
        let geo = dev.array.geometry();
        let (seq, loc) = (0..dev.logical_pages)
            .map(|lpn| match dev.mapping.lookup(lpn) {
                Some(ppa) => (dev.array.read_oob(ppa).unwrap().seq, geo.page_index(ppa) as u64),
                None => (dev.spor.trim_seqs.get(&lpn).copied().unwrap_or(0), NO_PAGE),
            })
            .unzip();
        (seq, loc, dev.birth_us.clone().unwrap_or_default())
    }

    fn assert_checkpoint_is_full_rescan(dev: &Ssd, tag: &str) {
        let (seq, loc, birth) = full_rescan_checkpoint(dev);
        let ckpt = &dev.spor.checkpoint;
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
        use crate::config::IntegrityConfig;
        use crate::recovery::CrashPoint;
        use crate::workload::poisson_arrivals;
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
                    let ckpt_seq = dev.spor.checkpoint.seq.clone();
                    let birth = dev.birth_us.clone().unwrap();
                    dev.recover().unwrap();
                    assert_checkpoint_is_full_rescan(&dev, &format!("{tag}: after recover"));
                    // A recovered page the old checkpoint covered keeps
                    // its write time; one written after it reports 0.
                    let (seq, _, recovered) = full_rescan_checkpoint(&dev);
                    for lpn in 0..seq.len() {
                        if dev.mapping.lookup(lpn as u64).is_some() {
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
                let ckpt = &dev.spor.checkpoint;
                if i % 64 == 0 && !ckpt.seq.is_empty() && ckpt.write_seq == dev.spor.write_seq {
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

    #[test]
    fn recovery_on_a_healthy_device_is_lossless() {
        let mut dev = ssd(OrganizationScheme::Random);
        for lpn in 0..20 {
            dev.write(lpn).unwrap();
        }
        dev.flush().unwrap();
        dev.trim(3).unwrap();
        let ram: Vec<Option<PageAddr>> = (0..24).map(|l| dev.mapping.lookup(l)).collect();
        let report = dev.recover().unwrap();
        for (lpn, &before) in ram.iter().enumerate() {
            assert_eq!(dev.mapping.lookup(lpn as u64), before, "lpn {lpn}");
        }
        assert_eq!(report.recovered_mappings, 19, "20 writes minus one trim");
        assert_eq!(report.torn_writes_discarded, 0);
        assert_eq!(dev.read(3).unwrap(), None, "trim tombstone survives recovery");
    }

    #[test]
    fn recovery_requires_spor() {
        let mut config = FtlConfig::small_test();
        config.spor.enabled = false;
        let mut dev = Ssd::new(config, 11).unwrap();
        dev.write(1).unwrap();
        assert!(matches!(dev.recover(), Err(FtlError::InvalidConfig { .. })));
    }

    #[test]
    fn qos_classes_route_to_the_ranked_pool_ends() {
        // Under function-based placement, latency-critical and standard
        // writes must open fast superblocks while background writes share
        // the slow end with GC (§V-D generalized to host tenants).
        let mut dev = ssd(OrganizationScheme::QstrMed { candidates: 4 });
        dev.write_with_class(1, QosClass::LatencyCritical).unwrap();
        dev.write_with_class(2, QosClass::Standard).unwrap();
        assert_eq!(dev.stats().superblocks_assembled, (2, 0), "LC + standard are both fast");
        dev.write_with_class(3, QosClass::Background).unwrap();
        assert_eq!(dev.stats().superblocks_assembled, (2, 1), "background is slow");
        assert_eq!(dev.stats().host_writes, 3);
        assert_eq!(dev.stats().host_writes_by_class, [1, 1, 1]);
        // Each class owns its open superblock: more writes of the same
        // classes keep filling them instead of assembling new ones.
        dev.write_with_class(4, QosClass::LatencyCritical).unwrap();
        dev.write_with_class(5, QosClass::Background).unwrap();
        assert_eq!(dev.stats().superblocks_assembled, (2, 1));
        assert_eq!(dev.stats().host_writes_by_class, [2, 1, 2]);
        // All staged data is readable and survives a flush.
        dev.flush().unwrap();
        for lpn in 1..=5 {
            assert!(dev.read(lpn).unwrap().is_some(), "lpn {lpn}");
        }
        assert_eq!(dev.valid_pages(), 5);
    }

    #[test]
    fn unified_placement_ignores_qos_class() {
        let mut config = FtlConfig::small_test();
        config.scheme = OrganizationScheme::QstrMed { candidates: 4 };
        config.placement = crate::config::PlacementPolicy::Unified;
        let mut dev = Ssd::new(config, 11).unwrap();
        dev.write_with_class(1, QosClass::LatencyCritical).unwrap();
        dev.write_with_class(2, QosClass::Standard).unwrap();
        dev.write_with_class(3, QosClass::Background).unwrap();
        // One shared fast superblock serves every class.
        assert_eq!(dev.stats().superblocks_assembled, (1, 0));
        assert_eq!(dev.stats().host_writes_by_class, [1, 1, 1]);
    }

    #[test]
    fn plain_write_counts_as_standard_class() {
        let mut dev = ssd(OrganizationScheme::Random);
        dev.write(5).unwrap();
        dev.write(6).unwrap();
        assert_eq!(dev.stats().host_writes_by_class, [0, 2, 0]);
    }

    #[test]
    fn crash_mid_run_discards_unacknowledged_staged_writes() {
        use crate::recovery::CrashPoint;
        let mut config = FtlConfig::small_test();
        config.spor.crash = Some(CrashPoint::from_seed(1, 200));
        let mut dev = Ssd::new(config, 11).unwrap();
        let info = dev.geometry_info();
        let reqs = Workload::random_write(0.9).generate(&info, info.logical_pages as usize, 5);
        for req in &reqs {
            match apply(&mut dev, req) {
                Ok(()) => {}
                Err(FtlError::PowerLoss) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        // The durability contract: writes still sitting in the staging
        // buffer at power loss were never acknowledged, so recovery must
        // reproduce exactly the RAM mapping — no phantom mappings, no
        // resurrection of staged data.
        let ram: Vec<Option<PageAddr>> =
            (0..info.logical_pages).map(|l| dev.mapping.lookup(l)).collect();
        dev.recover().unwrap();
        for lpn in 0..info.logical_pages {
            assert_eq!(dev.mapping.lookup(lpn), ram[lpn as usize], "lpn {lpn}");
        }
    }
}
