//! The flash choke point. [`Media`] owns the [`FlashArray`] and the touch
//! log; every erase and program the FTL issues goes through it and charges
//! its block's chip/plane group as it runs, on success only. That is the
//! paper's superpage timing under `PerChip` clocks: a multi-plane command
//! occupies each member chip for that member's latency and ends with its
//! slowest. A read costs what the caller's ECC policy chose, so the caller
//! charges it through [`Media::read`], or a [`Meter`] while it holds a
//! word-line view; a host page transfer charges the controller slot.

use flash_model::{BlockAddr, FlashArray, Geometry, PageOob, Result, SealRecord, WlAddr};

/// Per-page host transfer time, µs (bus + controller overhead).
pub(crate) const TRANSFER_US: f64 = 10.0;

/// The flash array and the occupancy its commands and charged reads log.
#[derive(Debug)]
pub(crate) struct Media {
    array: FlashArray,
    touches: TouchLog,
}

impl Media {
    /// Media over `array`, charging nothing until a `PerChip` replay.
    pub(crate) fn new(array: FlashArray) -> Media {
        let touches = TouchLog::new(array.geometry().chip_plane_groups());
        Media { array, touches }
    }

    /// The array, for everything that changes no flash state.
    pub(crate) fn array(&self) -> &FlashArray {
        &self.array
    }

    /// Turns charging on for a `PerChip` replay or off, dropping the log.
    pub(crate) fn set_timed(&mut self, on: bool) {
        self.touches.set_enabled(on);
    }

    /// Charges the log to a replay's per-group clocks ([`TouchLog::charge`]).
    pub(crate) fn charge(&mut self, not_before: f64, busy: &mut [f64], busy_us: &mut [f64]) -> f64 {
        self.touches.charge(not_before, busy, busy_us)
    }

    /// Erases `addr`; on success charges its group the latency, µs, and
    /// returns it.
    pub(crate) fn erase(&mut self, addr: BlockAddr) -> Result<f64> {
        let us = self.array.erase_block(addr)?;
        self.split().1.occupy(addr, us);
        Ok(us)
    }

    /// Programs a word-line with its payload and OOB records; on success
    /// charges its group the latency, µs, and returns it.
    pub(crate) fn program(&mut self, wl: WlAddr, data: &[u64], oob: &[PageOob]) -> Result<f64> {
        let us = self.array.program_wl_with_oob(wl, data, oob)?;
        self.split().1.occupy(wl.block, us);
        Ok(us)
    }

    /// Tears `wl`: power died mid-program, so it charges nothing.
    pub(crate) fn tear(&mut self, wl: WlAddr) -> Result<()> {
        self.array.mark_torn(wl)
    }

    /// Persists a seal record to the capacitor-backed region (no flash time).
    pub(crate) fn persist_seal(&mut self, record: SealRecord) {
        self.array.persist_seal_record(record);
    }

    /// Charges a read of `block` that cost `us` under the caller's ECC policy.
    pub(crate) fn read(&mut self, block: BlockAddr, us: f64) {
        self.split().1.occupy(block, us);
    }

    /// Charges a host page transfer to the controller slot; returns its µs.
    pub(crate) fn transfer(&mut self) -> f64 {
        let controller = self.touches.sums.len() - 1;
        self.touches.record(controller, TRANSFER_US);
        TRANSFER_US
    }

    /// The array beside the meter that charges its chips, for a scan that
    /// charges page by page while it holds a word-line view.
    pub(crate) fn split(&mut self) -> (&FlashArray, Meter<'_>) {
        (&self.array, Meter(self.array.geometry(), &mut self.touches))
    }
}

/// Charges chip time while the array is lent out beside it ([`Media::split`]).
pub(crate) struct Meter<'a>(&'a Geometry, &'a mut TouchLog);

impl Meter<'_> {
    /// Records `us` of occupancy on `block`'s chip/plane group.
    #[inline]
    pub(crate) fn occupy(&mut self, block: BlockAddr, us: f64) {
        self.1.record(self.0.chip_plane_index(block), us);
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
struct TouchLog {
    enabled: bool,
    /// Summed occupancy per group since the last charge; the controller
    /// sums in the last slot.
    sums: Vec<f64>,
    /// Groups with a recorded touch since the last charge, in first-touch
    /// order.
    touched: Vec<usize>,
}

impl TouchLog {
    /// A disabled log over `groups` chip/plane groups plus the controller.
    fn new(groups: usize) -> Self {
        TouchLog { enabled: false, sums: vec![0.0; groups + 1], touched: Vec::new() }
    }

    fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        for &g in &self.touched {
            self.sums[g] = 0.0;
        }
        self.touched.clear();
    }

    /// Records `us` of occupancy on group `g` (the controller's slot is
    /// the last).
    #[inline]
    fn record(&mut self, g: usize, us: f64) {
        if self.enabled {
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
    fn charge(&mut self, not_before: f64, busy: &mut [f64], busy_us: &mut [f64]) -> f64 {
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
    use flash_model::{BlockId, ChipId, FaultConfig, FlashConfig, LwlId, PlaneId};

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
        log.record(3, 1.0);
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

    /// Timed media over two chips of two planes (four groups plus the
    /// controller) with `fault` injected.
    fn timed(fault: FaultConfig) -> Media {
        let config = FlashConfig::builder()
            .chips(2)
            .planes_per_chip(2)
            .blocks_per_plane(4)
            .pwl_layers(2)
            .strings(2)
            .build();
        let mut media = Media::new(FlashArray::with_faults(config, 1, fault));
        media.set_timed(true);
        media
    }

    /// Drains `media`'s log into fresh clocks: each slot's charged time.
    fn drain(media: &mut Media) -> Vec<f64> {
        let (mut busy, mut total) = (vec![0.0; 5], vec![0.0; 5]);
        media.charge(0.0, &mut busy, &mut total);
        total
    }

    /// A word-line of filler pages and their OOB records.
    fn filler(media: &Media) -> (Vec<u64>, Vec<PageOob>) {
        let pages = media.array().geometry().pages_per_lwl() as usize;
        let oob = PageOob { lpn: u64::MAX, seq: 0, sb_id: 0, member_slot: 0 };
        (vec![u64::MAX; pages], vec![oob; pages])
    }

    #[test]
    fn a_successful_erase_or_program_charges_exactly_its_block_group() {
        let mut media = timed(FaultConfig::default());
        // Chip 1, plane 0: group 2 of chip-major, plane-minor groups.
        let block = BlockAddr::new(ChipId(1), PlaneId(0), BlockId(3));
        let erase = media.erase(block).unwrap();
        let (payload, oob) = filler(&media);
        let program = media.program(block.wl(LwlId(0)), &payload, &oob).unwrap();
        assert!(erase > 0.0 && program > 0.0);
        assert_eq!(drain(&mut media), vec![0.0, 0.0, erase + program, 0.0, 0.0]);
    }

    #[test]
    fn a_failed_erase_or_program_charges_nothing() {
        let block = BlockAddr::new(ChipId(0), PlaneId(1), BlockId(0));
        let fail_erases = FaultConfig { erase_fail_prob: 1.0, ..FaultConfig::default() };
        let mut media = timed(fail_erases);
        assert!(media.erase(block).unwrap_err().is_media_failure());
        assert_eq!(drain(&mut media), vec![0.0; 5]);
        let fail_programs = FaultConfig { program_fail_prob: 1.0, ..FaultConfig::default() };
        let mut media = timed(fail_programs);
        let erase = media.erase(block).unwrap();
        assert_eq!(drain(&mut media), vec![0.0, erase, 0.0, 0.0, 0.0]);
        let (payload, oob) = filler(&media);
        let err = media.program(block.wl(LwlId(0)), &payload, &oob).unwrap_err();
        assert!(err.is_media_failure());
        assert_eq!(drain(&mut media), vec![0.0; 5]);
    }

    #[test]
    fn a_transfer_charges_the_controller_slot() {
        let mut media = timed(FaultConfig::default());
        assert_eq!(media.transfer(), TRANSFER_US);
        media.read(BlockAddr::new(ChipId(1), PlaneId(1), BlockId(0)), 40.0);
        assert_eq!(drain(&mut media), vec![0.0, 0.0, 0.0, 40.0, TRANSFER_US]);
    }

    #[test]
    fn a_disabled_log_charges_nothing() {
        let mut media = timed(FaultConfig::default());
        media.set_timed(false);
        let block = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(1));
        assert!(media.erase(block).unwrap() > 0.0, "the command still runs");
        media.transfer();
        media.read(block, 40.0);
        assert_eq!(drain(&mut media), vec![0.0; 5]);
    }
}
