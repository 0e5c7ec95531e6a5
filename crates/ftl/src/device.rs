//! The SSD facade: request dispatch, the read path, foreground GC, patrol
//! steps and timing; writes go through the [`Writer`], flash the [`Media`].

use crate::active::{Parts, Purpose, Writer, PURPOSES};
use crate::config::{FtlConfig, QosClass};
use crate::error::FtlError;
use crate::gc::{Collector, GcBudget, GcStep, SealedSuperblock};
use crate::integrity::{DeviceView, Integrity, PatrolStep, PatrolTime};
use crate::manager::BlockManager;
use crate::mapping::Mapping;
use crate::media::Media;
use crate::parity;
use crate::recovery::{RecoveryReport, Spor};
use crate::request::{IoOp, IoRequest};
use crate::sched::DepthTracker;
use crate::stats::SsdStats;
use crate::timing::{Clocks, QueueModel, Replay, TimedOutcome};
use crate::Result;
use flash_model::{BlockAddr, BlockHandle, FlashArray, PageAddr};

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
    /// The flash array and the per-chip occupancy its commands charge.
    media: Media,
    mapping: Mapping,
    /// Open superblocks, the block manager and the write path.
    writer: Writer,
    stats: SsdStats,
    /// SPOR: crash countdown, journal, checkpoint and sequences.
    spor: Spor,
    /// Sealed superblocks, victim choice and the parked GC job.
    collector: Collector,
    /// Write times ([`Ssd::device_clock_us`]) and the patrol pass.
    integrity: Integrity,
    /// Clocks and depth tracker of an in-progress incremental timed replay
    /// ([`Ssd::timed_begin`] … [`Ssd::timed_end`]); `None` outside one.
    replay: Option<Replay>,
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

/// The QoS ladder, one rule for every kind of background work a foreground
/// command may pay a slice of: background commands pay once the work is
/// `due`, standard ones once it is `overdue`, latency-critical ones never.
fn ladder_pays(class: QosClass, (due, overdue): (bool, bool)) -> bool {
    match class {
        QosClass::Background => due,
        QosClass::Standard => overdue,
        QosClass::LatencyCritical => false,
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
        Ok(Ssd {
            mapping: Mapping::new(logical_pages, &geo),
            writer: Writer::new(&config, &array, seed, &[], &[]),
            stats: SsdStats::default(),
            spor: Spor::new(&config.spor),
            collector: Collector::default(),
            integrity: Integrity::new(&config, logical_pages),
            replay: None,
            idle_wall_us: 0.0,
            config,
            media: Media::new(array),
        })
    }

    /// Swaps the page mapping for the original `HashMap`-backed reference
    /// implementation. Semantics are identical; per-block validity queries
    /// go back to scanning every mapped page. The recovery lockstep tests
    /// and `naive_mapping_reproduces_dense_results_bit_for_bit` run a naive
    /// device beside a dense one as their oracle.
    ///
    /// # Panics
    ///
    /// Panics if any page has been written already (the existing mapping
    /// state would be lost).
    pub fn use_naive_mapping_for_benchmarks(&mut self) {
        assert_eq!(self.mapping.valid_pages(), 0, "switch mappings only on a fresh device");
        let fresh = self.writer.slots().iter().all(Option::is_none);
        assert!(fresh, "switch mappings only on a fresh device");
        self.mapping = Mapping::new_naive(self.mapping.capacity());
    }

    /// Shape summary for workload generation.
    #[must_use]
    pub fn geometry_info(&self) -> GeometryInfo {
        let geo = self.media.array().geometry();
        let pools = u64::from(geo.chips()) * u64::from(geo.planes_per_chip());
        GeometryInfo {
            logical_pages: self.mapping.capacity(),
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
        self.writer.manager().distance_checks()
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
                self.media.set_timed(true);
                let groups = self.media.array().geometry().chip_plane_groups();
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
            self.media.set_timed(false);
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
                        && self.writer.manager().assemblable() < self.config.gc_high_watermark
                    {
                        let Some(t) = self.gc_once()? else { break };
                        self.stats.idle_gc_us += t;
                        clocks.charge_idle(t, &mut self.media, &mut self.stats.chip_busy_us);
                    }
                }
                GcBudget::Sliced { .. } => {
                    // The whole idle gap is the budget; the slice parks the
                    // victim when the gap runs out.
                    let now = clocks.drained_at();
                    let high = self.config.gc_high_watermark;
                    if now < arrival && self.writer.manager().assemblable() < high {
                        let t = self.gc_slice(arrival - now, high)?;
                        if t > 0.0 {
                            self.stats.idle_gc_us += t;
                            clocks.charge_idle(t, &mut self.media, &mut self.stats.chip_busy_us);
                        }
                    }
                }
            }
        }
        // Patrol scrubbing rides whatever idle gap is left after GC (none,
        // and so no budget, once the clocks run past the arrival).
        let t = self.patrol_slice(arrival - clocks.drained_at())?;
        if t > 0.0 {
            self.stats.patrol_us += t;
            clocks.charge_idle(t, &mut self.media, &mut self.stats.chip_busy_us);
        }
        let service = match r.op {
            IoOp::Write => self.serve_write(r.lpn, class)?,
            IoOp::Read => self.serve_read(r.lpn)?.unwrap_or(0.0),
            IoOp::Trim => {
                self.trim(r.lpn)?;
                0.0
            }
        };
        let start = clocks.start(arrival, &mut self.media, &mut self.stats.chip_busy_us);
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
                IoOp::Write => self.write(r.lpn).map(drop)?,
                IoOp::Read => self.read(r.lpn).map(drop)?,
                IoOp::Trim => self.trim(r.lpn)?,
            }
        }
        Ok(())
    }

    fn check_lpn(&self, lpn: u64) -> Result<()> {
        let capacity = self.mapping.capacity();
        if lpn >= capacity {
            return Err(FtlError::LpnOutOfRange { lpn, capacity });
        }
        Ok(())
    }

    /// Rejects requests on a crashed device until [`Ssd::recover`] runs.
    fn ensure_powered(&self) -> Result<()> {
        if self.spor.crashed() {
            return Err(FtlError::PowerLoss);
        }
        Ok(())
    }

    /// Whether an injected crash has fired and [`Ssd::recover`] has not yet
    /// been called.
    #[must_use]
    pub fn has_crashed(&self) -> bool {
        self.spor.crashed()
    }

    /// The page mapping (read access for verification and tests).
    #[must_use]
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The block manager (read access for verification and tests).
    #[must_use]
    pub fn block_manager(&self) -> &BlockManager {
        self.writer.manager()
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
        let mut latency = self.media.transfer();
        // Collection and overdue patrol work land in one stall.
        let stall = self.pay_background(class)?;
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
        let latency = if self.writer.slots().iter().flatten().any(|a| a.has_staged(lpn)) {
            self.media.transfer()
        } else {
            let Some(ppa) = self.mapping.lookup(lpn) else { return Ok(None) };
            let (tag, t) = self.media.array().read_page(ppa)?;
            debug_assert_eq!(tag, lpn, "mapping points at the right payload");
            let transfer = self.media.transfer();
            if self.consults_ecc() {
                // Consult the ECC model at the page's true data age; pages
                // past the retry ladder are refreshed (rewritten elsewhere)
                // before they rot into data loss. Without integrity tracking
                // the age is 0 and the disturb count is 0, reproducing the
                // fault-only path bit for bit.
                let bits = self.media.array().expected_error_bits(ppa, self.data_age_hours(lpn));
                let flash_us = self.config.retry.read_latency_us(t, bits);
                self.media.read(ppa.wl.block, flash_us);
                if self.config.retry.is_uncorrectable(bits) {
                    // The relocation is background work: the host sees only
                    // the sensing + retry + transfer time, and the rewrite
                    // lands in `refresh_us` (still advancing `busy_us`).
                    self.stats.uncorrectable_reads += 1;
                    if self.config.parity.enabled() {
                        self.rebuild_page(lpn, ppa, None)?;
                    }
                    // A read-heavy phase stages refreshes with no host write
                    // in sight to trigger collection, so the refresh pays
                    // the emergency floor itself.
                    let slice = self.reclaim_floor()?;
                    let restage = self.stage_write(lpn, Purpose::Gc)?;
                    if self.config.parity.enabled() && slice > 0.0 {
                        // Rebuild-triggered emergency collection is paid
                        // like a foreground GC stall.
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
                flash_us + transfer
            } else {
                self.media.read(ppa.wl.block, t);
                t + transfer
            }
        };
        self.stats.host_reads += 1;
        self.stats.busy_us += latency;
        // Refresh relocations on the fault path may have programmed.
        self.maybe_checkpoint()?;
        Ok(Some(latency))
    }

    /// Rebuilds an uncorrectable page's payload from its stripe
    /// ([`parity::rebuild`], which charges the siblings' reads) and books
    /// it: the slowest member's read time (where unified-tR superpages
    /// beat PV-blind assembly) in `rebuild_us` and `busy_us`, never the
    /// read histogram, and a stripe that cannot yield the payload, or be
    /// found, in `rebuilds_failed`: true data loss, reported, never
    /// silently absorbed. The caller restages the payload.
    fn rebuild_page(
        &mut self,
        lpn: u64,
        ppa: PageAddr,
        stripe: Option<&[BlockAddr]>,
    ) -> Result<()> {
        debug_assert!(self.config.parity.enabled());
        // A GC caller hands its victim's members (it may be off the sealed
        // list); else search the sealed and open stripes (none: no reads).
        let members = stripe.or_else(|| {
            let sealed = self.collector.sealed().iter().map(SealedSuperblock::members);
            let open = self.writer.slots().iter().flatten().map(|a| &a.members[..]);
            sealed.chain(open).find(|members| members.contains(&ppa.wl.block))
        });
        let age = self.data_age_hours(lpn);
        let rebuild = |m| parity::rebuild(&mut self.media, &self.config.retry, m, ppa, lpn, age);
        let r = members.map(rebuild).transpose()?.unwrap_or_default();
        self.stats.rebuild_reads += r.reads;
        if r.ok {
            self.stats.rebuilds_ok += 1;
            self.stats.rebuild_ok_us += r.critical_us;
            self.stats.rebuild_ok_fanout_us += r.fanout_us;
        } else {
            self.stats.rebuilds_failed += 1;
        }
        self.stats.rebuild_us += r.critical_us;
        self.stats.busy_us += r.critical_us;
        Ok(())
    }

    /// Whether reads consult the ECC model at the page's data age: with
    /// media faults injected or integrity tracked. Otherwise a read costs
    /// its raw sense time, bit for bit the fault-free path.
    fn consults_ecc(&self) -> bool {
        self.config.fault.enabled() || self.config.integrity.track
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
        self.writer.discard_staged(lpn);
        self.spor.trim(lpn);
        self.stats.host_trims += 1;
        Ok(())
    }

    /// Valid data pages currently on flash (excludes staged pages).
    #[must_use]
    pub fn valid_pages(&self) -> usize {
        self.mapping.valid_pages()
    }

    /// The write path and the parts a write borrows, at the device clock.
    fn writer(&mut self) -> (&mut Writer, Parts<'_>) {
        let clock = self.device_clock_us();
        let Ssd { writer, media, mapping, spor, integrity, collector, stats, .. } = self;
        (writer, Parts { media, mapping, spor, integrity, collector, stats, clock })
    }

    /// Stages one page through the [`Writer`]; returns time spent.
    fn stage_write(&mut self, lpn: u64, purpose: Purpose) -> Result<f64> {
        let (writer, mut parts) = self.writer();
        writer.stage(&mut parts, lpn, purpose)
    }

    /// Makes `purpose`'s staged pages durable; returns time spent.
    fn flush_purpose(&mut self, purpose: Purpose) -> Result<f64> {
        let (writer, mut parts) = self.writer();
        writer.flush(&mut parts, purpose)
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

    /// Background work a foreground command carries: collection first,
    /// then overdue patrol, both paid down the one QoS ladder
    /// ([`ladder_pays`]). Returns the command's stall, µs, which the caller
    /// folds into its own latency — that is what advances `busy_us`, so
    /// nothing is counted twice here.
    fn pay_background(&mut self, class: QosClass) -> Result<f64> {
        let mut stall = match self.config.gc_budget {
            GcBudget::Unbounded => {
                let mut time = 0.0;
                if self.writer.manager().assemblable() < self.config.gc_low_watermark {
                    while self.writer.manager().assemblable() < self.config.gc_high_watermark {
                        let Some(t) = self.gc_once()? else { break };
                        time += t;
                    }
                }
                time
            }
            GcBudget::Sliced { slice_us } => {
                let mut time = if ladder_pays(class, self.gc_pressure()) {
                    self.gc_slice(slice_us, self.config.gc_high_watermark)?
                } else {
                    0.0
                };
                // The slice's own staging may have taken a superblock.
                time += self.reclaim_floor()?;
                time
            }
        };
        if ladder_pays(class, self.integrity.patrol_pressure(self.device_clock_us())) {
            stall += self.patrol_slice(f64::INFINITY)?;
        }
        Ok(stall)
    }

    /// The emergency floor, paid by every class: with at most one
    /// assemblable superblock left, collect toward two, because relocation
    /// needs one in reserve whenever the GC slot seals mid-victim and the
    /// staging write consumes another. No further: the budgeted ladder
    /// resumes from there instead of running a multi-victim burst to the
    /// high watermark. Sliced collection's command payment, reactive
    /// refresh, patrol refresh and parity-mismatch restaging all take it,
    /// so none of them drains the pool into `OutOfSpace`. Returns the
    /// reclaim time (`0` when the pool is not that low).
    fn reclaim_floor(&mut self) -> Result<f64> {
        if self.writer.manager().assemblable() <= 1 {
            self.gc_slice(f64::INFINITY, 2)
        } else {
            Ok(0.0)
        }
    }

    /// Collection's rungs on the QoS ladder, `(due, overdue)`: due on any
    /// backlog — free space under the low watermark, or a parked victim
    /// still short of the high one — and overdue under the low watermark.
    fn gc_pressure(&self) -> (bool, bool) {
        let assemblable = self.writer.manager().assemblable();
        let low = assemblable < self.config.gc_low_watermark;
        let parked = self.collector.has_job() && assemblable < self.config.gc_high_watermark;
        (low || parked, low)
    }

    /// Whether upcoming writes will carry ladder work: the ladder's `due`
    /// predicate holds for sliced collection (the unbounded collector never
    /// reports pending) or for patrol. Frontends use this to drain
    /// latency-critical queues before granting lower-priority commands that
    /// would carry a slice.
    #[must_use]
    pub fn gc_slice_pending(&self) -> bool {
        (matches!(self.config.gc_budget, GcBudget::Sliced { .. }) && self.gc_pressure().0)
            || self.integrity.patrol_pressure(self.device_clock_us()).0
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

    /// Data age of `lpn` in retention hours at the current device clock
    /// (`0.0` whenever integrity tracking is off).
    fn data_age_hours(&self, lpn: u64) -> f64 {
        self.integrity.age_hours(lpn, self.device_clock_us())
    }

    /// Runs up to `budget_us` of patrol: [`Integrity::patrol_run`] scans
    /// runs of super word-lines, and the device takes the steps a run hands
    /// back, their time joining the word-line's. A failed step drops the
    /// pass.
    fn patrol_slice(&mut self, budget_us: f64) -> Result<f64> {
        let mut time = PatrolTime::default();
        loop {
            let clock = self.device_clock_us();
            let Ssd { media, mapping, collector, integrity, stats, .. } = self;
            let mut dev = DeviceView { clock, media, mapping, collector };
            let run = integrity.patrol_run(&mut dev, stats, budget_us, &mut time);
            match run.and_then(|step| self.patrol_device_step(step, &mut time.line)) {
                Ok(true) => {}
                Ok(false) => return Ok(time.slice),
                Err(e) => {
                    self.integrity.lose_patrol();
                    return Err(e);
                }
            }
        }
    }

    /// Takes one step a patrol run asked for, adding its time to the
    /// word-line's `time`; `false` once the run yields.
    fn patrol_device_step(&mut self, step: PatrolStep, time: &mut f64) -> Result<bool> {
        let (lpns, refreshed) = match &step {
            PatrolStep::Refresh(lpn) => (std::slice::from_ref(lpn), true),
            PatrolStep::Restage(lpns) => (&lpns[..], false),
            PatrolStep::PassDone => {
                *time += self.flush_purpose(Purpose::Gc)?;
                self.stats.patrol_passes += 1;
                return Ok(true);
            }
            PatrolStep::Yield => return Ok(false),
        };
        for &lpn in lpns {
            *time += self.reclaim_floor()?;
            *time += self.stage_write(lpn, Purpose::Gc)?;
            if refreshed {
                self.stats.patrol_refreshes += 1;
            } else {
                self.stats.refresh_relocations += 1;
            }
        }
        Ok(true)
    }

    /// Runs up to `budget_us` of relocation work until `target`
    /// superblocks are assemblable (the high watermark; the emergency floor
    /// reclaims toward 2), parking the in-progress victim when the budget
    /// runs out. Each step is the one the collector's job asks for —
    /// relocate a page, or free the drained victim — so a slice may overrun
    /// by one program.
    fn gc_slice(&mut self, budget_us: f64, target: usize) -> Result<f64> {
        let mut time = 0.0;
        let mut yielded = false;
        while self.writer.manager().assemblable() < target {
            if time >= budget_us {
                yielded = self.collector.has_job();
                break;
            }
            let Some(step) = self.collector.next_step(self.media.array(), &self.mapping) else {
                break;
            };
            time += match step {
                GcStep::Relocate(lpn, ppa, mut block) => {
                    // The victim stays sealed, so a rebuild finds its stripe.
                    let (read, program) = self.relocate(lpn, ppa, &mut block, None)?;
                    self.collector.relocated(lpn);
                    read + program
                }
                GcStep::Free(victim) => {
                    let t = self.free_victim(&victim)?;
                    self.collector.freed(&victim);
                    t
                }
            };
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

    /// Collects one victim superblock to completion; `None` when no sealed
    /// victim exists. Unlike the sliced job the victim leaves the sealed
    /// list when it is selected (see [`GcBudget`] for why both lifecycles
    /// stay).
    fn gc_once(&mut self) -> Result<Option<f64>> {
        let Some(victim) = self.collector.take_victim(&self.mapping) else {
            return Ok(None);
        };
        let mut time = 0.0;
        // The valid-page iterator borrows the mapping, which stage_write
        // mutates — collect into the reusable scratch buffer first.
        let mut scratch = std::mem::take(&mut self.writer.scratch);
        for &member in victim.members() {
            scratch.clear();
            scratch.extend(self.mapping.valid_in_block(member));
            let mut block = self.media.array().block(member)?;
            for &(lpn, ppa) in &scratch {
                let (read, program) =
                    self.relocate(lpn, ppa, &mut block, Some(victim.members()))?;
                time += read;
                time += program;
            }
        }
        scratch.clear();
        self.writer.scratch = scratch;
        time += self.free_victim(&victim)?;
        Ok(Some(time))
    }

    /// Relocates one valid victim page into the GC slot, read through its
    /// member's handle `block`: the read and the restage, returned unsummed
    /// so each collector keeps its float order. With parity off the read
    /// costs its raw sense time, bit for bit the historical path; with
    /// parity on it pays the retry ladder, and an uncorrectable page is
    /// rebuilt from `stripe` (`None`: the sealed superblock holding it)
    /// before the restage replaces it.
    fn relocate(
        &mut self,
        lpn: u64,
        ppa: PageAddr,
        block: &mut BlockHandle,
        stripe: Option<&[BlockAddr]>,
    ) -> Result<(f64, f64)> {
        let ecc = self.config.parity.enabled() && self.consults_ecc();
        let array = self.media.array();
        let line = array.line(block, ppa.wl.lwl)?;
        let k = ppa.page.slot(array.geometry().cell());
        let (tag, mut t_read) = line.read(k);
        debug_assert_eq!(tag, lpn);
        if let Some(bits) = ecc.then(|| line.expected_error_bits(k, self.data_age_hours(lpn))) {
            if self.config.retry.is_uncorrectable(bits) {
                self.stats.uncorrectable_reads += 1;
                self.rebuild_page(lpn, ppa, stripe)?;
            }
            t_read = self.config.retry.read_latency_us(t_read, bits);
        }
        self.media.read(ppa.wl.block, t_read);
        let t_program = self.stage_write(lpn, Purpose::Gc)?;
        self.stats.gc_relocations += 1;
        Ok((t_read, t_program))
    }

    /// Frees a drained victim: makes the staged copies durable (the old
    /// copies must not vanish first), returns its members to the free pools
    /// and journals it freed. Journaled only now — had power died earlier,
    /// the victim still held its data and is recovered under its old
    /// identity. Returns the flush time.
    fn free_victim(&mut self, victim: &SealedSuperblock) -> Result<f64> {
        let t = self.flush_purpose(Purpose::Gc)?;
        for &member in victim.members() {
            self.mapping.invalidate_block(member);
            self.writer.free(member);
        }
        self.spor.free(victim.sb_id());
        self.stats.gc_runs += 1;
        Ok(t)
    }

    /// Takes a checkpoint (see [`Spor::take_checkpoint`]) when the
    /// configured interval of super word-line programs has elapsed. Called
    /// at the end of the public operations, so every open superblock is
    /// parked in its slot.
    fn maybe_checkpoint(&mut self) -> Result<()> {
        if !self.spor.checkpoint_due() {
            return Ok(());
        }
        let Ssd { spor, media, mapping, integrity, collector, writer, .. } = self;
        spor.take_checkpoint(media.array(), mapping, integrity.births(), collector, writer.slots())
    }

    /// Rebuilds all RAM state after a sudden power loss: replays the
    /// journal over the last checkpoint, scans the OOB metadata of every
    /// superblock dirtied since that checkpoint (highest write sequence
    /// wins; pages of a torn super word-line are discarded), restores the
    /// gathered QSTR-MED summaries from the persisted seal records, and
    /// takes a fresh checkpoint, so the next recovery scans only what is
    /// written after this one.
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
    /// Propagates flash errors (internal invariant bugs).
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        // RAM died with the power: open superblocks, their staging buffers
        // and gatherers are gone, and so are a parked patrol pass's cursors
        // (the pass restarts; no mapping state ever depended on them). A
        // parked GC job goes with the collector recovery replaces: the
        // victim was never freed, so it comes back sealed and re-selectable
        // with its remaining valid pages intact.
        self.integrity.lose_patrol();
        let array = self.media.array();
        let (collector, retired, report) =
            self.spor.recover(array, &mut self.mapping, self.integrity.births_mut())?;
        let seed = self.writer.seed();
        self.writer = Writer::new(&self.config, array, seed, &retired, collector.sealed());
        self.collector = collector;
        self.stats.recovery_scan_pages += report.scanned_pages;
        self.stats.recovered_mappings += report.recovered_mappings;
        self.stats.torn_writes_discarded += report.torn_writes_discarded;
        self.stats.recovery_time_us += report.scan_us;
        Ok(report)
    }
}

#[cfg(test)]
impl Ssd {
    /// The SPOR state, the flash array and the write times, which the
    /// checkpoint tests compare against a full rescan.
    pub(crate) fn spor_parts(&self) -> (&Spor, &FlashArray, Option<&[f64]>) {
        (&self.spor, self.media.array(), self.integrity.births())
    }

    /// Takes a checkpoint now, whether or not the interval has elapsed.
    pub(crate) fn take_checkpoint(&mut self) -> Result<()> {
        let Ssd { spor, media, mapping, integrity, collector, writer, .. } = self;
        spor.take_checkpoint(media.array(), mapping, integrity.births(), collector, writer.slots())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OrganizationScheme;
    use crate::media::TRANSFER_US;
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
        assert!(r > TRANSFER_US, "latency {r}");
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
        // — this is what makes it an oracle for the dense store.
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
    fn qos_classes_route_to_the_ranked_pool_ends() {
        // Latency-critical and standard writes must open fast superblocks while background writes share
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
