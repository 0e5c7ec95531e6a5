//! Sudden-power-off-recovery (SPOR) media structures: per-page out-of-band
//! (OOB) metadata and capacitor-backed per-superblock seal records.
//!
//! Real SSDs reserve a few spare bytes per flash page that are programmed
//! *atomically* with the payload; the FTL uses them after a crash to rebuild
//! its RAM-resident mapping. This crate stores that spare area alongside the
//! page payload tags, subject to the same readability rules: a page whose
//! word-line never finished programming (a *torn* super word-line) exposes
//! neither payload nor OOB.

use crate::ids::BlockAddr;

/// Out-of-band metadata programmed atomically with one page payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageOob {
    /// Logical page number stored in this physical page, or
    /// [`PageOob::FILLER_LPN`] for padding written to close a word-line.
    pub lpn: u64,
    /// Monotonic write sequence number; a recovery scan resolves duplicate
    /// LPNs by keeping the highest sequence number (latest-wins).
    pub seq: u64,
    /// Identifier of the superblock this block belonged to when programmed.
    pub sb_id: u64,
    /// Index of this block within the superblock's member list.
    pub member_slot: u16,
}

impl PageOob {
    /// LPN marker for filler/padding pages that carry no host data.
    pub const FILLER_LPN: u64 = u64::MAX;

    /// LPN marker for RAIN parity pages. The payload of a parity page is the
    /// XOR of its super-word-line siblings' payload tags, which can collide
    /// with any real LPN — the OOB marker is what keeps recovery scans from
    /// aliasing parity into the L2P table.
    pub const PARITY_LPN: u64 = u64::MAX - 1;

    /// Whether this page is padding rather than host data.
    #[inline]
    #[must_use]
    pub fn is_filler(&self) -> bool {
        self.lpn == Self::FILLER_LPN
    }

    /// Whether this page holds RAIN parity rather than host data.
    #[inline]
    #[must_use]
    pub fn is_parity(&self) -> bool {
        self.lpn == Self::PARITY_LPN
    }

    /// Whether this page may appear in the L2P table (host data, as opposed
    /// to filler padding or parity).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        !self.is_filler() && !self.is_parity()
    }
}

impl Default for PageOob {
    fn default() -> Self {
        PageOob { lpn: Self::FILLER_LPN, seq: 0, sb_id: u64::MAX, member_slot: u16::MAX }
    }
}

/// Gathered characterization stats of one member block, persisted when its
/// superblock seals (the paper's QSTR-MED "gathering" output: the PGM-latency
/// sum plus the 1-bit-per-string eigen sequence).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSummaryRecord {
    /// The characterized block.
    pub addr: BlockAddr,
    /// Sum of observed word-line program latencies, µs.
    pub pgm_sum_us: f64,
    /// Eigen bit sequence (one bit per string of each physical word-line
    /// layer), stored expanded for the simulation.
    pub eigen_bits: Vec<bool>,
}

/// A per-superblock summary record written to the capacitor-backed metadata
/// region when a superblock seals. Survives power loss; lets QSTR-MED resume
/// assembly after recovery without re-characterizing any block.
#[derive(Debug, Clone, PartialEq)]
pub struct SealRecord {
    /// Identifier of the sealed superblock.
    pub sb_id: u64,
    /// Member blocks in slot order.
    pub members: Vec<BlockAddr>,
    /// Gathered per-member stats (members that failed mid-life and were
    /// dropped have no entry).
    pub summaries: Vec<BlockSummaryRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_oob_is_filler() {
        let oob = PageOob::default();
        assert!(oob.is_filler());
        assert_eq!(oob.lpn, PageOob::FILLER_LPN);
    }

    #[test]
    fn host_oob_is_not_filler() {
        let oob = PageOob { lpn: 42, seq: 7, sb_id: 3, member_slot: 1 };
        assert!(!oob.is_filler());
        assert!(!oob.is_parity());
        assert!(oob.is_mapped());
    }

    #[test]
    fn parity_oob_is_neither_filler_nor_mapped() {
        let oob = PageOob { lpn: PageOob::PARITY_LPN, seq: 0, sb_id: 3, member_slot: 2 };
        assert!(oob.is_parity());
        assert!(!oob.is_filler());
        assert!(!oob.is_mapped());
        assert!(!PageOob::default().is_mapped());
    }
}
