//! FTL configuration.

use crate::gc::{GcBudget, GcPolicy};
use crate::recovery::SporConfig;
use crate::timing::{EngineMode, QueueModel};
use flash_model::{FaultConfig, FlashConfig, RetryModel};

/// How free blocks are organized into superblocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OrganizationScheme {
    /// Arbitrary grouping (the baseline FTL).
    #[default]
    Random,
    /// Same block offset on every chip (what many production FTLs do).
    Sequential,
    /// The paper's scheme: sorted lists + eigen matching, on demand.
    QstrMed {
        /// Candidate-list depth per other chip (the paper uses 4).
        candidates: usize,
    },
}

/// Where written data is placed (§V-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementPolicy {
    /// All writes share one open superblock class.
    Unified,
    /// Function-based placement: host writes → fast superblocks,
    /// garbage-collection relocations → slow superblocks.
    #[default]
    FunctionBased,
}

/// Latency class of a host write (multi-tenant QoS).
///
/// Generalizes the paper's host/GC allocation split (§V-D): instead of one
/// "host" class steered to fast superblocks, each tenant's class picks the
/// end of the process-variation ranking its open superblock is assembled
/// from. `LatencyCritical` and `Standard` writes land on fast-ranked
/// superblocks (each in its own open superblock); `Background` writes share
/// the slow end of the ranking with garbage-collection relocations, which
/// stay pinned to the slowest pool as in the paper. Under
/// [`PlacementPolicy::Unified`] the class is ignored and every write shares
/// one open superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QosClass {
    /// Tail-latency-sensitive tenant: fast superblocks, its own open
    /// superblock so no other stream's programs sit in front of it.
    LatencyCritical,
    /// The default class — byte-identical to the classic host write path
    /// ([`crate::Ssd::write`] uses it).
    #[default]
    Standard,
    /// Batch/throughput tenant: slow superblocks, sharing the slow end of
    /// the ranking with GC relocations.
    Background,
}

impl QosClass {
    /// Every class, in the order used by per-class counters.
    pub const ALL: [QosClass; 3] =
        [QosClass::LatencyCritical, QosClass::Standard, QosClass::Background];

    /// Stable index into per-class counter arrays (matches [`Self::ALL`]).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            QosClass::LatencyCritical => 0,
            QosClass::Standard => 1,
            QosClass::Background => 2,
        }
    }

    /// Short lowercase label for tables and CSVs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            QosClass::LatencyCritical => "latency-critical",
            QosClass::Standard => "standard",
            QosClass::Background => "background",
        }
    }
}

/// Scan order of the background patrol scrubber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PatrolOrder {
    /// Sealed-list order: superblocks are scanned in the order they were
    /// sealed, blind to process variation.
    #[default]
    Blind,
    /// PV-aware: slow-pool superblocks first (the pages whose RBER grows
    /// fastest under retention and disturb are concentrated there by
    /// function-based placement), then superblocks of unknown class, then
    /// fast ones — oldest-sealed first within each group.
    SlowPoolFirst,
}

/// Background patrol-scrub configuration.
///
/// `Off` (the default) leaves every code path bit-identical to a device
/// without the subsystem. `On` schedules a resumable word-line-granular
/// scan of all sealed superblocks every `interval_us` of device time,
/// refreshing pages whose projected error bits cross
/// `refresh_fraction × uncorrectable_limit` before they rot past the retry
/// ladder.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PatrolConfig {
    /// No patrol scrubbing.
    #[default]
    Off,
    /// Periodic patrol scans.
    On {
        /// Device time between the end of one pass and the start of the
        /// next, µs. Must be finite and positive.
        interval_us: f64,
        /// Budget per patrol slice in idle gaps and ladder payments, µs.
        /// Must be finite and positive (a slice never splits a word-line
        /// step, so it may overrun by one).
        slice_us: f64,
        /// Refresh threshold as a fraction of the retry model's
        /// uncorrectable limit, in `(0, 1]`. Pages at or above it are
        /// proactively relocated.
        refresh_fraction: f64,
        /// Scan order over sealed superblocks.
        order: PatrolOrder,
    },
}

/// RAIN-style superpage parity configuration.
///
/// `Off` (the default) is bit-identical to a build without the subsystem.
/// `On` reserves the last member page of every super word-line as XOR
/// parity over its siblings: the parity page is computed and programmed
/// atomically with the data members, carries OOB marking it non-mapped
/// (recovery never aliases it into the L2P), shrinks exported logical
/// capacity by `1/superwl_pages`, and lets an uncorrectable read rebuild
/// its payload from the surviving siblings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ParityConfig {
    /// No parity protection.
    #[default]
    Off,
    /// One XOR parity page per super word-line.
    On,
}

impl ParityConfig {
    /// Whether parity protection is active.
    #[must_use]
    pub fn enabled(self) -> bool {
        matches!(self, ParityConfig::On)
    }
}

/// Data-integrity model configuration: simulated-time retention aging,
/// read-disturb tracking, and the patrol scrubber.
///
/// The default (`track = false`, zero retention acceleration, patrol off)
/// is bit-identical to a build without the subsystem: reads compute error
/// bits at zero age with zero disturbs, and `exp(0) == 1.0` exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegrityConfig {
    /// Track per-page write times and per-block read-disturb counters, and
    /// have reads consult the ECC model at the page's true data age.
    pub track: bool,
    /// Retention hours accrued per µs of device time — the accelerated-aging
    /// knob. `0.0` means data never ages even when tracked.
    pub retention_hours_per_us: f64,
    /// Background patrol scrubber (requires `track` when `On`).
    pub patrol: PatrolConfig,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig { track: false, retention_hours_per_us: 0.0, patrol: PatrolConfig::Off }
    }
}

/// Full configuration of the simulated SSD.
#[derive(Debug, Clone)]
pub struct FtlConfig {
    /// Underlying flash array.
    pub flash: FlashConfig,
    /// Fraction of physical pages *not* exported as logical capacity.
    pub overprovision: f64,
    /// Run garbage collection when fewer than this many superblocks can
    /// still be assembled from free blocks.
    pub gc_low_watermark: usize,
    /// Stop garbage collection once this many superblocks are assemblable.
    pub gc_high_watermark: usize,
    /// Garbage-collection victim selection policy.
    pub gc_policy: GcPolicy,
    /// How much relocation work each foreground GC invocation may do
    /// before yielding ([`GcBudget::Unbounded`], the default, reproduces
    /// the legacy run-to-completion collector bit for bit).
    pub gc_budget: GcBudget,
    /// Wear-leveling alarm threshold (max-min erase count).
    pub wear_threshold: u32,
    /// Superblock organization strategy.
    pub scheme: OrganizationScheme,
    /// Data placement policy.
    pub placement: PlacementPolicy,
    /// Per-page host transfer time, µs (bus + controller overhead).
    pub transfer_us: f64,
    /// Seed QSTR-MED with profiles from a pre-characterization pass instead
    /// of warming up from runtime gathering only.
    pub precharacterize: bool,
    /// Run garbage collection in idle gaps of timed runs (reduces
    /// foreground GC pauses at the cost of background work).
    pub idle_gc: bool,
    /// Timing model for [`crate::Ssd::run_timed`]. `Single` (the default)
    /// clocks the device with one scalar queue and reproduces pre-engine
    /// outputs bit-for-bit; `PerChip` gives every chip/plane group its own
    /// busy-until clock so requests overlap across chips — a superpage
    /// program occupies exactly its member chips until `max(tPROG)` while
    /// operations on other chips proceed. Untimed [`crate::Ssd::run`] is
    /// unaffected.
    pub queue_model: QueueModel,
    /// Selects nothing: timed replays and the host frontend have one
    /// engine. The field stays only because the benchmark package's
    /// workloads set `engine: EngineMode::Batched`; it goes with
    /// [`EngineMode`] in the next change to the benchmark.
    pub engine: EngineMode,
    /// Media fault injection (disabled by default: perfect media, and the
    /// read path skips its ECC consult entirely so results stay
    /// bit-identical to a fault-free build).
    pub fault: FaultConfig,
    /// Read-retry/ECC model consulted by the read path when fault injection
    /// is enabled (uncorrectable pages trigger refresh relocation).
    pub retry: RetryModel,
    /// Sudden-power-off recovery: OOB metadata, checkpoints and optional
    /// crash injection. Enabled by default; it costs zero simulated time
    /// and zero RNG draws, so every result stays bit-identical.
    pub spor: SporConfig,
    /// Data integrity: retention aging, read disturb and patrol scrubbing.
    /// Disabled by default (bit-identical to a build without it).
    pub integrity: IntegrityConfig,
    /// RAIN-style superpage parity. Disabled by default (bit-identical to
    /// a build without it).
    pub parity: ParityConfig,
}

impl FtlConfig {
    /// A small, fast configuration for tests and examples.
    #[must_use]
    pub fn small_test() -> Self {
        FtlConfig {
            flash: FlashConfig::builder()
                .chips(4)
                .planes_per_chip(1)
                .blocks_per_plane(24)
                .pwl_layers(8)
                .strings(4)
                .build(),
            overprovision: 0.25,
            gc_low_watermark: 2,
            gc_high_watermark: 3,
            gc_policy: GcPolicy::Greedy,
            gc_budget: GcBudget::Unbounded,
            wear_threshold: 32,
            scheme: OrganizationScheme::Random,
            placement: PlacementPolicy::FunctionBased,
            transfer_us: 10.0,
            precharacterize: true,
            idle_gc: false,
            queue_model: QueueModel::Single,
            engine: EngineMode::Batched,
            fault: FaultConfig::default(),
            retry: RetryModel::default(),
            spor: SporConfig::default(),
            integrity: IntegrityConfig::default(),
            parity: ParityConfig::Off,
        }
    }

    /// Pages per super word-line under this configuration: one page from
    /// every chip/plane pool at the same page-type index.
    #[must_use]
    pub fn superwl_pages(&self) -> u64 {
        let geo = &self.flash.geometry;
        u64::from(geo.chips()) * u64::from(geo.planes_per_chip()) * u64::from(geo.pages_per_lwl())
    }

    /// Physical pages reserved for parity out of `physical_pages`, before
    /// over-provisioning is applied. Zero when parity is off. The physical
    /// page count is always a whole number of super word-lines, so the
    /// reserve (one page per super word-line) divides exactly.
    #[must_use]
    pub fn parity_reserve_pages(&self, physical_pages: u64) -> u64 {
        if self.parity.enabled() {
            physical_pages / self.superwl_pages()
        } else {
            0
        }
    }

    /// Validates watermarks and ratios.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.05..0.9).contains(&self.overprovision) {
            return Err(format!(
                "overprovision must be in [0.05, 0.9), got {}",
                self.overprovision
            ));
        }
        if self.gc_low_watermark == 0 {
            return Err("gc_low_watermark must be at least 1".to_string());
        }
        if self.gc_high_watermark <= self.gc_low_watermark {
            return Err("gc_high_watermark must exceed gc_low_watermark".to_string());
        }
        if self.transfer_us < 0.0 {
            return Err("transfer_us must be non-negative".to_string());
        }
        for (name, p) in [
            ("fault.program_fail_prob", self.fault.program_fail_prob),
            ("fault.erase_fail_prob", self.fault.erase_fail_prob),
            ("fault.weak_block_prob", self.fault.weak_block_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability in [0, 1], got {p}"));
            }
        }
        if self.fault.program_fail_prob > 0.2 || self.fault.erase_fail_prob > 0.2 {
            return Err("fault rates above 20% starve the free pools; lower them".to_string());
        }
        if self.spor.crash.is_some() && !self.spor.enabled {
            return Err("crash injection requires spor.enabled".to_string());
        }
        if let GcBudget::Sliced { slice_us } = self.gc_budget {
            if !slice_us.is_finite() || slice_us <= 0.0 {
                return Err(format!(
                    "gc_budget slice_us must be finite and positive, got {slice_us}"
                ));
            }
        }
        let accel = self.integrity.retention_hours_per_us;
        if !accel.is_finite() || accel < 0.0 {
            return Err(format!(
                "integrity.retention_hours_per_us must be finite and non-negative, got {accel}"
            ));
        }
        if let PatrolConfig::On { interval_us, slice_us, refresh_fraction, .. } =
            self.integrity.patrol
        {
            if !self.integrity.track {
                return Err("patrol scrubbing requires integrity.track".to_string());
            }
            for (name, v) in [("patrol interval_us", interval_us), ("patrol slice_us", slice_us)] {
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!("{name} must be finite and positive, got {v}"));
                }
            }
            if !refresh_fraction.is_finite() || refresh_fraction <= 0.0 || refresh_fraction > 1.0 {
                return Err(format!(
                    "patrol refresh_fraction must be in (0, 1], got {refresh_fraction}"
                ));
            }
        }
        if self.parity.enabled() && self.superwl_pages() < 2 {
            return Err(
                "parity needs super word-lines of at least 2 pages (1 data + 1 parity)".to_string()
            );
        }
        // Every plane must hold: the high watermark of assemblable
        // superblocks, one block per open-superblock slot (the four
        // `Purpose` placement targets, each pinning one block per plane
        // while open), and one for an in-flight GC victim whose blocks
        // are not freed until its relocations flush. The old `+ 2` bound
        // admitted configs that passed validation but OOM-looped once all
        // slots opened mid-collection.
        const OPEN_SLOTS: usize = 4;
        let min_blocks = (self.gc_high_watermark + OPEN_SLOTS + 1) as u32;
        if self.flash.geometry.blocks_per_plane() < min_blocks {
            return Err(format!(
                "need at least {min_blocks} blocks per plane for the configured watermarks \
                 (high watermark + {OPEN_SLOTS} open-superblock slots + 1 in-flight GC victim)"
            ));
        }
        Ok(())
    }
}

impl Default for FtlConfig {
    fn default() -> Self {
        FtlConfig {
            flash: FlashConfig::paper_platform(),
            overprovision: 0.15,
            gc_low_watermark: 4,
            gc_high_watermark: 8,
            gc_policy: GcPolicy::Greedy,
            gc_budget: GcBudget::Unbounded,
            wear_threshold: 32,
            scheme: OrganizationScheme::Random,
            placement: PlacementPolicy::FunctionBased,
            transfer_us: 10.0,
            precharacterize: true,
            idle_gc: false,
            queue_model: QueueModel::Single,
            engine: EngineMode::Batched,
            fault: FaultConfig::default(),
            retry: RetryModel::default(),
            spor: SporConfig::default(),
            integrity: IntegrityConfig::default(),
            parity: ParityConfig::Off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_small_are_valid() {
        FtlConfig::default().validate().unwrap();
        FtlConfig::small_test().validate().unwrap();
    }

    #[test]
    fn bad_overprovision_rejected() {
        let cfg = FtlConfig { overprovision: 0.95, ..FtlConfig::small_test() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn bad_watermarks_rejected() {
        let cfg =
            FtlConfig { gc_low_watermark: 3, gc_high_watermark: 3, ..FtlConfig::small_test() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn bad_fault_rates_rejected() {
        let mut cfg = FtlConfig::small_test();
        cfg.fault.program_fail_prob = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = FtlConfig::small_test();
        cfg.fault.erase_fail_prob = -0.1;
        assert!(cfg.validate().is_err());
        let mut cfg = FtlConfig::small_test();
        cfg.fault = FaultConfig::with_rate(0.5);
        assert!(cfg.validate().is_err(), "50% fault rate is unserviceable");
        let mut cfg = FtlConfig::small_test();
        cfg.fault = FaultConfig::with_rate(0.02);
        cfg.validate().unwrap();
    }

    #[test]
    fn crash_without_spor_rejected() {
        use crate::recovery::CrashPoint;
        let mut cfg = FtlConfig::small_test();
        cfg.spor.enabled = false;
        cfg.spor.crash = Some(CrashPoint::from_seed(1, 100));
        assert!(cfg.validate().is_err());
        cfg.spor.enabled = true;
        cfg.validate().unwrap();
    }

    #[test]
    fn too_few_blocks_rejected() {
        let mut cfg = FtlConfig::small_test();
        cfg.flash = FlashConfig::builder().chips(2).blocks_per_plane(3).pwl_layers(4).build();
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn blocks_consumed_by_open_slots_and_gc_victim_are_reserved() {
        // high watermark 3 + 2 = 5 blocks per plane passed the old check,
        // but with all four Purpose slots open plus a GC victim in flight
        // the free pool hits zero and collection OOM-loops. The tightened
        // bound (high + 4 slots + 1 victim = 8) rejects it up front.
        let mut cfg = FtlConfig::small_test();
        cfg.flash =
            FlashConfig::builder().chips(4).blocks_per_plane(7).pwl_layers(8).strings(4).build();
        assert!(cfg.validate().is_err(), "7 < high(3) + slots(4) + victim(1)");
        cfg.flash =
            FlashConfig::builder().chips(4).blocks_per_plane(8).pwl_layers(8).strings(4).build();
        cfg.validate().unwrap();
    }

    #[test]
    fn patrol_fields_must_be_finite_positive_like_sliced_gc() {
        let on = |interval_us, slice_us, refresh_fraction| {
            let mut cfg = FtlConfig::small_test();
            cfg.integrity.track = true;
            cfg.integrity.patrol = PatrolConfig::On {
                interval_us,
                slice_us,
                refresh_fraction,
                order: PatrolOrder::Blind,
            };
            cfg
        };
        on(10_000.0, 250.0, 0.8).validate().unwrap();
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            assert!(on(bad, 250.0, 0.8).validate().is_err(), "interval_us={bad}");
            assert!(on(10_000.0, bad, 0.8).validate().is_err(), "slice_us={bad}");
        }
        for bad in [0.0, -0.1, 1.5, f64::NAN, f64::INFINITY] {
            assert!(on(10_000.0, 250.0, bad).validate().is_err(), "refresh_fraction={bad}");
        }
        // Patrol without tracking has no ages to project against.
        let mut cfg = on(10_000.0, 250.0, 0.8);
        cfg.integrity.track = false;
        assert!(cfg.validate().is_err(), "patrol requires integrity.track");
        // The aging knob itself must be a finite non-negative rate.
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let mut cfg = FtlConfig::small_test();
            cfg.integrity.retention_hours_per_us = bad;
            assert!(cfg.validate().is_err(), "retention_hours_per_us={bad}");
        }
    }

    #[test]
    fn parity_reserve_is_one_page_per_super_word_line() {
        let mut cfg = FtlConfig::small_test();
        // 4 chips × 1 plane × 3 pages/lwl (TLC) = 12-page super word-lines.
        assert_eq!(cfg.superwl_pages(), 12);
        assert_eq!(cfg.parity_reserve_pages(9216), 0, "parity off reserves nothing");
        cfg.parity = ParityConfig::On;
        cfg.validate().unwrap();
        assert_eq!(cfg.parity_reserve_pages(9216), 768);
    }

    #[test]
    fn parity_configs_keep_the_min_blocks_bound() {
        // Parity shrinks logical capacity, not the free-block pool; the
        // OOM-loop bound must hold (and reject) exactly as without parity.
        let mut cfg = FtlConfig::small_test();
        cfg.parity = ParityConfig::On;
        cfg.flash =
            FlashConfig::builder().chips(4).blocks_per_plane(7).pwl_layers(8).strings(4).build();
        assert!(cfg.validate().is_err(), "7 < high(3) + slots(4) + victim(1), parity or not");
        cfg.flash =
            FlashConfig::builder().chips(4).blocks_per_plane(8).pwl_layers(8).strings(4).build();
        cfg.validate().unwrap();
    }

    #[test]
    fn sliced_budget_must_be_finite_and_positive() {
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let cfg = FtlConfig {
                gc_budget: GcBudget::Sliced { slice_us: bad },
                ..FtlConfig::small_test()
            };
            assert!(cfg.validate().is_err(), "slice_us={bad} must be rejected");
        }
        let cfg = FtlConfig {
            gc_budget: GcBudget::Sliced { slice_us: 250.0 },
            ..FtlConfig::small_test()
        };
        cfg.validate().unwrap();
    }
}
