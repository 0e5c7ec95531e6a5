//! Parallel fleet replay with deterministic canonical-order reduction.

use crate::workload::FleetWorkload;
use ftl::{FtlConfig, LatencyHistogram, QosClass, Ssd};
use host::{Arbitration, HostFrontend, TenantSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Salt separating per-device construction seeds from the workload hashes.
const DEVICE_SEED_SALT: u64 = 0x4445_5649_4345_5f53; // "DEVICE_S"

/// One fleet run: N identical devices, a sharded workload, and a worker
/// pool size. Every device replays through the host frontend with three
/// QoS tenants (latency-critical, standard, background) under the given
/// arbitration, on the timing/GC configuration of `device_config`.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-device FTL configuration (shared by every shard — a
    /// homogeneous fleet).
    pub device_config: FtlConfig,
    /// The sharded multi-user workload.
    pub workload: FleetWorkload,
    /// Seed of the whole fleet: shard hashes, user streams and per-device
    /// construction seeds all derive from it.
    pub fleet_seed: u64,
    /// Frontend arbitration policy on every device.
    pub arbitration: Arbitration,
    /// Worker threads claiming devices from the work queue; `0` means one
    /// per available core. Never affects results, only wall-clock.
    pub workers: usize,
}

/// Per-device outcome, reduced in device-id order into a [`FleetReport`].
#[derive(Debug)]
pub struct DeviceReport {
    /// Device (shard) id.
    pub device: usize,
    /// Commands completed by the frontend (reads + writes + trims).
    pub completed: u64,
    /// End-to-end latency of every sampled command on this device: the
    /// three tenants' write and read histograms folded in tenant order.
    pub latency: LatencyHistogram,
    /// Device p99 over those samples, µs.
    pub p99_us: f64,
    /// Arrivals that hit a full submission queue.
    pub backpressured: u64,
    /// Foreground collection time charged to commands, µs.
    pub gc_stall_us: f64,
    /// Foreground GC slices the device ran.
    pub gc_slices: u64,
    /// Completion time of the device's last command, µs.
    pub makespan_us: f64,
    /// Pages the patrol scrubber examined (zero with patrol off).
    pub patrol_scanned_pages: u64,
    /// Parity pages the scrubber verified against their stripe XOR.
    pub parity_verified: u64,
    /// Stripe rebuilds that could not reproduce the lost payload: double
    /// failures inside one super word-line, i.e. true data loss.
    pub rebuilds_failed: u64,
}

/// Fleet-level aggregates over every device, bit-identical for any worker
/// count (per-device replays are independent and the reduction is
/// canonical-order).
#[derive(Debug)]
pub struct FleetReport {
    /// Per-device reports, in device-id order.
    pub devices: Vec<DeviceReport>,
    /// Every device's sampled command latencies folded into one
    /// population ([`LatencyHistogram::fold`], device-id order).
    pub latency: LatencyHistogram,
    /// Fleet p99 across all commands, µs.
    pub p99_us: f64,
    /// Fleet p999 across all commands, µs — the tail the sweeps compare.
    pub p999_us: f64,
    /// Fleet p9999 across all commands, µs. Nearest-rank: meaningful only
    /// once the merged population holds tens of thousands of samples.
    pub p9999_us: f64,
    /// Worst command latency anywhere in the fleet, µs.
    pub max_us: f64,
    /// Largest per-device p99, µs (the unluckiest shard).
    pub max_device_p99_us: f64,
    /// Median per-device p99, µs (the typical shard).
    pub median_device_p99_us: f64,
    /// Commands completed across the fleet.
    pub total_commands: u64,
}

impl FleetReport {
    /// Device skew: the unluckiest shard's p99 over the median shard's — 1
    /// when the fleet is perfectly even, and the number placement quality
    /// moves at fleet scale.
    #[must_use]
    pub fn device_skew(&self) -> f64 {
        if self.median_device_p99_us <= 0.0 {
            return 0.0;
        }
        self.max_device_p99_us / self.median_device_p99_us
    }
}

/// Per-device outcome of a fleet soak: the workload replay followed by a
/// full sweep reading back every live logical page. The sweep itself runs
/// with the device's integrity machinery live, so a page the soak aged past
/// the ECC limit is caught (counted in `sweep_uncorrectable`) and refreshed
/// in the read path rather than silently lost.
#[derive(Debug)]
pub struct SoakDeviceReport {
    /// Device (shard) id.
    pub device: usize,
    /// Commands completed by the frontend during the aging run.
    pub completed: u64,
    /// Logical pages mapped when the run finished.
    pub live_lpns: u64,
    /// Live pages whose read-back returned no data — the silent-data-loss
    /// invariant requires this to be zero.
    pub unreadable_lpns: u64,
    /// Reads that crossed the uncorrectable limit during the final sweep
    /// (each one was refreshed in-path; patrol exists to make this zero).
    pub sweep_uncorrectable: u64,
    /// In-path refresh relocations triggered by the final sweep. The
    /// invariant pairs this with `sweep_uncorrectable`: every
    /// uncorrectable read must have produced exactly one refresh.
    pub sweep_refreshes: u64,
    /// Uncorrectable reads during the workload itself (before the sweep).
    pub run_uncorrectable: u64,
    /// Pages the background scrubber refreshed proactively.
    pub patrol_refreshes: u64,
    /// Pages the background scrubber examined.
    pub patrol_scanned_pages: u64,
    /// Complete patrol passes over the sealed population.
    pub patrol_passes: u64,
    /// Stripe rebuilds that reproduced the lost payload (parity on).
    pub rebuilds_ok: u64,
    /// Stripe rebuilds that could not — double failures inside one super
    /// word-line. True data loss; the no-silent-loss invariant requires
    /// this to be zero.
    pub rebuilds_failed: u64,
    /// Parity pages the scrubber verified against their stripe XOR.
    pub parity_verified: u64,
    /// Stripes whose parity no longer matched (degraded protection).
    pub parity_mismatch: u64,
}

/// Fleet-level soak outcome: per-device reports in device-id order plus
/// the aggregate invariant verdict.
#[derive(Debug)]
pub struct SoakReport {
    /// Per-device soak reports, in device-id order.
    pub devices: Vec<SoakDeviceReport>,
    /// Live pages across the fleet.
    pub live_lpns: u64,
    /// Unreadable live pages across the fleet (zero when no data was lost).
    pub unreadable_lpns: u64,
    /// Sweep-time uncorrectable reads across the fleet.
    pub sweep_uncorrectable: u64,
    /// Patrol refreshes across the fleet.
    pub patrol_refreshes: u64,
    /// Complete patrol passes across the fleet.
    pub patrol_passes: u64,
    /// Successful stripe rebuilds across the fleet (parity on).
    pub rebuilds_ok: u64,
    /// Failed stripe rebuilds across the fleet — double failures. Nonzero
    /// fails [`SoakReport::no_data_loss`].
    pub rebuilds_failed: u64,
    /// Parity stripes verified by patrol across the fleet.
    pub parity_verified: u64,
}

impl SoakReport {
    /// The no-silent-data-loss invariant: every live logical page on every
    /// device read back successfully, every read that crossed the
    /// uncorrectable limit was refreshed on the spot, and — with parity on
    /// — no stripe rebuild ever failed (a failed rebuild is a double
    /// failure inside one super word-line: true data loss, and it must
    /// fail the soak rather than hide behind the reactive refresh).
    #[must_use]
    pub fn no_data_loss(&self) -> bool {
        self.unreadable_lpns == 0
            && self.rebuilds_failed == 0
            && self.devices.iter().all(|d| d.sweep_refreshes == d.sweep_uncorrectable)
    }
}

/// The three-tenant QoS roster every fleet device serves — the same mix
/// the single-device `repro tenants` sweep uses.
fn fleet_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("lc", QosClass::LatencyCritical).weight(4).queue_depth(8),
        TenantSpec::new("std", QosClass::Standard).weight(2).queue_depth(16),
        TenantSpec::new("bg", QosClass::Background).weight(1).queue_depth(32),
    ]
}

/// Replays one device's shard through the host frontend: the construction
/// seed and the stream are pure functions of `(fleet_seed, device)`, so
/// the replayed frontend is too.
fn replay_shard(config: &FleetConfig, device: usize) -> ftl::Result<HostFrontend> {
    let seed = (config.fleet_seed ^ DEVICE_SEED_SALT)
        .wrapping_add((device as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let ssd = Ssd::new(config.device_config.clone(), seed)?;
    let info = ssd.geometry_info();
    let stream = config.workload.device_stream(config.fleet_seed, device, info.logical_pages);
    let mut front = HostFrontend::new(ssd, fleet_tenants(), config.arbitration);
    front.submit_traced_batched(&stream);
    front.run()?;
    Ok(front)
}

/// Runs `per_device` on every device of the fleet: workers claim device
/// ids from a shared cursor (so a slow shard never idles the pool),
/// results land in per-device slots, and the slots are read strictly in
/// device-id order, which makes the result bit-identical for any worker
/// count.
///
/// # Errors
///
/// Propagates the first device error in device-id order (every device
/// still runs; errors don't cancel the fleet).
fn run_shards<R: Send + Sync>(
    config: &FleetConfig,
    per_device: fn(&FleetConfig, usize) -> ftl::Result<R>,
) -> ftl::Result<Vec<R>> {
    let n = config.workload.devices();
    let results: Vec<OnceLock<ftl::Result<R>>> = (0..n).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let workers = if config.workers == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        config.workers
    }
    .min(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let report = per_device(config, idx);
                    results[idx].set(report).map_err(drop).expect("each device runs exactly once");
                })
            })
            .collect();
        join_all(handles);
    });
    results.into_iter().map(|slot| slot.into_inner().expect("scope joined every worker")).collect()
}

/// Joins every worker before the fleet goes on. The scope alone would
/// return once the workers' closures finish, while the threads may still
/// be exiting: glibc hands a thread's allocator arena back only as the
/// thread exits, so threads spawned next (the next fleet's workers, or a
/// device's characterization threads) would find none free and grow new
/// arenas, and peak memory would depend on the race.
fn join_all(handles: Vec<std::thread::ScopedJoinHandle<'_, ()>>) {
    for handle in handles {
        if let Err(panic) = handle.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

/// Replays one device and summarizes its tail latency and background work.
fn run_device(config: &FleetConfig, device: usize) -> ftl::Result<DeviceReport> {
    let front = replay_shard(config, device)?;
    let all = front.all_stats();
    let parts: Vec<&LatencyHistogram> =
        all.iter().flat_map(|t| [&t.write_latency, &t.read_latency]).collect();
    let latency = LatencyHistogram::fold(parts);
    let completed = all.iter().map(|t| t.completed).sum();
    let backpressured = all.iter().map(|t| t.backpressured).sum();
    let dev = front.device().stats();
    Ok(DeviceReport {
        device,
        completed,
        p99_us: latency.quantile_us(0.99),
        backpressured,
        gc_stall_us: dev.gc_stall_us,
        gc_slices: dev.gc_slices,
        makespan_us: dev.makespan_us,
        patrol_scanned_pages: dev.patrol_scanned_pages,
        parity_verified: dev.parity_verified,
        rebuilds_failed: dev.rebuilds_failed,
        latency,
    })
}

/// Soaks one device: replays its shard through the frontend on the
/// integrity-enabled configuration, then consumes the frontend and sweeps
/// every live logical page, reading each back through the full ECC/aging
/// path.
fn soak_device(config: &FleetConfig, device: usize) -> ftl::Result<SoakDeviceReport> {
    let front = replay_shard(config, device)?;
    let completed = front.all_stats().iter().map(|t| t.completed).sum();
    let mut ssd = front.into_device();
    let info = ssd.geometry_info();
    let run_uncorrectable = ssd.stats().uncorrectable_reads;
    let refreshes_before = ssd.stats().refresh_relocations;
    let mut live_lpns = 0u64;
    let mut unreadable_lpns = 0u64;
    for lpn in 0..info.logical_pages {
        if ssd.mapping().lookup(lpn).is_none() {
            continue;
        }
        live_lpns += 1;
        if ssd.read(lpn)?.is_none() {
            unreadable_lpns += 1;
        }
    }
    let stats = ssd.stats();
    Ok(SoakDeviceReport {
        device,
        completed,
        live_lpns,
        unreadable_lpns,
        sweep_uncorrectable: stats.uncorrectable_reads - run_uncorrectable,
        sweep_refreshes: stats.refresh_relocations - refreshes_before,
        run_uncorrectable,
        patrol_refreshes: stats.patrol_refreshes,
        patrol_scanned_pages: stats.patrol_scanned_pages,
        patrol_passes: stats.patrol_passes,
        rebuilds_ok: stats.rebuilds_ok,
        rebuilds_failed: stats.rebuilds_failed,
        parity_verified: stats.parity_verified,
        parity_mismatch: stats.parity_mismatch,
    })
}

/// Runs a fleet soak: every device replays its shard through the host
/// frontend on an accelerated-aging configuration, then every live logical
/// page is read back through the full error-model path. The report carries
/// the no-silent-data-loss verdict ([`SoakReport::no_data_loss`]): every
/// live page readable, every uncorrectable read refreshed on the spot.
///
/// `device_config` should enable integrity tracking with a nonzero
/// `retention_hours_per_us` — with aging off the sweep still verifies
/// readability, but no page can ever age toward the ECC limit, so the
/// soak degrades to a plain mapping-consistency check.
///
/// Same scheduling and determinism contract as [`run_fleet`]: workers
/// claim devices from a shared cursor, reduction is canonical-order, and
/// the report is bit-identical for any worker count.
///
/// # Errors
///
/// Propagates the first device error in device-id order.
pub fn run_fleet_soak(config: &FleetConfig) -> ftl::Result<SoakReport> {
    let devices = run_shards(config, soak_device)?;
    Ok(SoakReport {
        live_lpns: devices.iter().map(|d| d.live_lpns).sum(),
        unreadable_lpns: devices.iter().map(|d| d.unreadable_lpns).sum(),
        sweep_uncorrectable: devices.iter().map(|d| d.sweep_uncorrectable).sum(),
        patrol_refreshes: devices.iter().map(|d| d.patrol_refreshes).sum(),
        patrol_passes: devices.iter().map(|d| d.patrol_passes).sum(),
        rebuilds_ok: devices.iter().map(|d| d.rebuilds_ok).sum(),
        rebuilds_failed: devices.iter().map(|d| d.rebuilds_failed).sum(),
        parity_verified: devices.iter().map(|d| d.parity_verified).sum(),
        devices,
    })
}

/// Runs the whole fleet: workers claim device ids from a shared cursor
/// (so a slow shard never idles the pool), results land in per-device
/// slots, and the reduction walks the slots strictly in device-id order,
/// which makes the report bit-identical for 1, 2 or any number of workers.
///
/// # Errors
///
/// Propagates the first device error in device-id order (every device
/// still runs; errors don't cancel the fleet).
pub fn run_fleet(config: &FleetConfig) -> ftl::Result<FleetReport> {
    let devices = run_shards(config, run_device)?;
    let latency = LatencyHistogram::fold(devices.iter().map(|d| &d.latency));
    let mut device_p99s: Vec<f64> = devices.iter().map(|d| d.p99_us).collect();
    device_p99s.sort_by(f64::total_cmp);
    Ok(FleetReport {
        p99_us: latency.quantile_us(0.99),
        p999_us: latency.quantile_us(0.999),
        p9999_us: latency.quantile_us(0.9999),
        max_us: latency.max_us(),
        max_device_p99_us: device_p99s.last().copied().unwrap_or(0.0),
        median_device_p99_us: device_p99s[device_p99s.len() / 2],
        total_commands: devices.iter().map(|d| d.completed).sum(),
        devices,
        latency,
    })
}
