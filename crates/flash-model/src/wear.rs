//! Per-block wear tracking.

/// Wear state of one block: how many program/erase cycles it has endured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WearState {
    pe_cycles: u32,
}

impl WearState {
    /// A fresh block with zero P/E cycles.
    #[must_use]
    pub fn new() -> Self {
        WearState::default()
    }

    /// A block pre-aged to the given cycle count.
    #[must_use]
    pub fn with_cycles(pe_cycles: u32) -> Self {
        WearState { pe_cycles }
    }

    /// Completed program/erase cycles.
    #[inline]
    #[must_use]
    pub fn pe_cycles(&self) -> u32 {
        self.pe_cycles
    }

    /// Records one erase (one full P/E cycle boundary).
    pub fn record_erase(&mut self) {
        self.pe_cycles = self.pe_cycles.saturating_add(1);
    }

    /// Adds `cycles` of accelerated wear (the simulation counterpart of the
    /// paper's thermal-chamber cycling between measurement points).
    pub fn age(&mut self, cycles: u32) {
        self.pe_cycles = self.pe_cycles.saturating_add(cycles);
    }

    /// Whether the block has exceeded a nominal endurance budget.
    #[must_use]
    pub fn is_beyond(&self, endurance: u32) -> bool {
        self.pe_cycles > endurance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(WearState::new().pe_cycles(), 0);
    }

    #[test]
    fn erase_increments() {
        let mut w = WearState::new();
        w.record_erase();
        w.record_erase();
        assert_eq!(w.pe_cycles(), 2);
    }

    #[test]
    fn age_jumps() {
        let mut w = WearState::with_cycles(100);
        w.age(200);
        assert_eq!(w.pe_cycles(), 300);
    }

    #[test]
    fn endurance_check() {
        let w = WearState::with_cycles(3001);
        assert!(w.is_beyond(3000));
        assert!(!w.is_beyond(4000));
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut w = WearState::with_cycles(u32::MAX);
        w.record_erase();
        assert_eq!(w.pe_cycles(), u32::MAX);
    }
}
