//! Runtime gathering of similarity data during program operations (§V-B).
//!
//! While a block is open, the flash controller records each word-line's
//! program latency. Whenever all strings of one physical word-line layer
//! have been programmed, the layer is quantized to one bit per string
//! (fastest half → 0) and appended to the block's eigen sequence; the
//! latency itself is accumulated into the block's program-latency sum and
//! then discarded. When the block closes, only the 52-byte
//! [`crate::BlockSummary`] remains.

use crate::eigen::EigenSequence;
use crate::error::PvError;
use crate::profile::BlockSummary;
use crate::rank;
use crate::Result;
use flash_model::BlockAddr;

/// Latency table of one *open* block: remembers only the current layer.
///
/// ```
/// use pvcheck::gather::BlockGatherer;
/// use flash_model::{BlockAddr, ChipId, PlaneId, BlockId};
///
/// # fn main() -> Result<(), pvcheck::PvError> {
/// let addr = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(7));
/// let mut gatherer = BlockGatherer::new(addr, 4, 2); // 4 strings x 2 layers
/// for (wl, latency) in [1917.0, 1898.6, 1898.6, 1898.6, 1880.1, 1898.6, 1898.6, 1898.6]
///     .iter()
///     .enumerate()
/// {
///     gatherer.record(wl as u32, *latency)?;
/// }
/// let summary = gatherer.finish()?;
/// assert_eq!(summary.eigen.to_string(), "1001 0011");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BlockGatherer {
    addr: BlockAddr,
    strings: u16,
    wl_total: u32,
    next_wl: u32,
    current_layer: Vec<f64>,
    pgm_sum_us: f64,
    eigen: EigenSequence,
}

impl BlockGatherer {
    /// Starts gathering for a block with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `strings` or `layers` is zero.
    #[must_use]
    pub fn new(addr: BlockAddr, strings: u16, layers: u16) -> Self {
        assert!(strings > 0 && layers > 0, "block shape must be non-zero");
        BlockGatherer {
            addr,
            strings,
            wl_total: u32::from(strings) * u32::from(layers),
            next_wl: 0,
            current_layer: Vec::with_capacity(usize::from(strings)),
            pgm_sum_us: 0.0,
            eigen: EigenSequence::zeros(0),
        }
    }

    /// Block being gathered.
    #[must_use]
    pub fn addr(&self) -> BlockAddr {
        self.addr
    }

    /// Word-lines recorded so far.
    #[must_use]
    pub fn recorded(&self) -> u32 {
        self.next_wl
    }

    /// Whether every word-line of the block has been recorded.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.next_wl == self.wl_total
    }

    /// Records the program latency of the next word-line (they must arrive
    /// in program order, which is how real blocks are written).
    ///
    /// # Errors
    ///
    /// Returns [`PvError::GatherOutOfOrder`] for out-of-order word-lines and
    /// [`PvError::GatherComplete`] if the block is already fully recorded.
    pub fn record(&mut self, lwl: u32, latency_us: f64) -> Result<()> {
        if self.is_complete() {
            return Err(PvError::GatherComplete);
        }
        if lwl != self.next_wl {
            return Err(PvError::GatherOutOfOrder { expected: self.next_wl, got: lwl });
        }
        self.current_layer.push(latency_us);
        self.pgm_sum_us += latency_us;
        self.next_wl += 1;
        if self.current_layer.len() == usize::from(self.strings) {
            self.fold_layer();
        }
        Ok(())
    }

    /// Quantizes the completed layer to bits with the offline STR-median
    /// rule (fastest half of strings → 0, ties broken by string index),
    /// then drops the layer latencies.
    fn fold_layer(&mut self) {
        let first = self.eigen.len();
        self.eigen.push_zeros(self.current_layer.len());
        rank::mark_slow_strings(&self.current_layer, self.eigen.words_mut(), first);
        self.current_layer.clear();
    }

    /// Closes the block and produces its summary.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::GatherIncomplete`] if word-lines are missing.
    pub fn finish(self) -> Result<BlockSummary> {
        if !self.is_complete() {
            return Err(PvError::GatherIncomplete {
                recorded: self.next_wl,
                needed: self.wl_total,
            });
        }
        Ok(BlockSummary { addr: self.addr, pgm_sum_us: self.pgm_sum_us, eigen: self.eigen })
    }

    /// Current memory footprint of the gatherer in bytes: the running sum,
    /// the partial layer and the eigen bits accumulated so far. Bounded by
    /// `8 + 8*strings + lwls/8`, i.e. tens of bytes — the paper's point that
    /// the latency table exists only for open blocks.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        8 + self.current_layer.capacity() * 8 + self.eigen.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_model::{BlockId, ChipId, PlaneId};

    fn addr() -> BlockAddr {
        BlockAddr::new(ChipId(0), PlaneId(0), BlockId(7))
    }

    fn gather(t: &[f64], strings: u16) -> BlockSummary {
        let layers = (t.len() / usize::from(strings)) as u16;
        let mut g = BlockGatherer::new(addr(), strings, layers);
        for (i, &lat) in t.iter().enumerate() {
            g.record(i as u32, lat).unwrap();
        }
        g.finish().unwrap()
    }

    #[test]
    fn gathers_sum_and_eigen_in_order() {
        let t = [10.0, 30.0, 20.0, 40.0, 5.0, 5.0, 50.0, 5.0];
        let s = gather(&t, 4);
        assert_eq!(s.pgm_sum_us, t.iter().sum::<f64>());
        // Must match the offline STR-median quantization.
        assert_eq!(s.eigen, rank::str_median_eigen(&t, 4));
        // Tie-heavy layers (three latency levels) across string counts:
        // gathering, the offline eigen and the rank definition (string rank
        // at or past the fastest half → 1) all agree.
        for strings in [1u16, 2, 3, 4, 8] {
            let s = usize::from(strings);
            let t: Vec<f64> =
                (0..s * 40).map(|i| 1880.1 + 18.4 * ((i * i / 3 + i) % 3) as f64).collect();
            let ranks = rank::str_ranks(&t, strings);
            let fast = (strings / 2).max(1);
            let by_rank: EigenSequence = ranks.iter().map(|&r| r >= u32::from(fast)).collect();
            let offline = rank::str_median_eigen(&t, strings);
            assert_eq!(offline, by_rank, "strings={strings}");
            assert_eq!(gather(&t, strings).eigen, offline, "strings={strings}");
        }
    }

    #[test]
    fn out_of_order_rejected() {
        let mut g = BlockGatherer::new(addr(), 4, 2);
        g.record(0, 1.0).unwrap();
        let err = g.record(2, 1.0).unwrap_err();
        assert_eq!(err, PvError::GatherOutOfOrder { expected: 1, got: 2 });
    }

    #[test]
    fn finish_before_complete_rejected() {
        let mut g = BlockGatherer::new(addr(), 4, 2);
        g.record(0, 1.0).unwrap();
        let err = g.finish().unwrap_err();
        assert_eq!(err, PvError::GatherIncomplete { recorded: 1, needed: 8 });
    }

    #[test]
    fn record_after_complete_rejected() {
        let mut g = BlockGatherer::new(addr(), 2, 1);
        g.record(0, 1.0).unwrap();
        g.record(1, 2.0).unwrap();
        assert!(g.is_complete());
        assert_eq!(g.record(2, 3.0).unwrap_err(), PvError::GatherComplete);
    }

    #[test]
    fn footprint_stays_small() {
        let mut g = BlockGatherer::new(addr(), 4, 96);
        for i in 0..384u32 {
            g.record(i, 1000.0 + f64::from(i % 7)).unwrap();
        }
        // 8 (sum) + 32 (layer buffer) + 48 (eigen bits) = well under 100 B.
        assert!(g.footprint_bytes() <= 96, "footprint {}", g.footprint_bytes());
    }

    #[test]
    fn two_string_blocks_mark_one_fast() {
        let mut g = BlockGatherer::new(addr(), 2, 2);
        for (i, lat) in [4.0, 2.0, 1.0, 3.0].iter().enumerate() {
            g.record(i as u32, *lat).unwrap();
        }
        let s = g.finish().unwrap();
        assert_eq!(s.eigen.to_string(), "1001");
    }
}
