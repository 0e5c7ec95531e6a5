//! Error type for the pvcheck crate.

use flash_model::BlockAddr;
use std::fmt;

/// Errors from characterization, gathering and extra-latency evaluation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PvError {
    /// A superblock member has no profile in the pool.
    MissingProfile {
        /// The unknown block.
        addr: BlockAddr,
    },
    /// A superblock needs at least two members to have extra latency.
    TooFewMembers {
        /// Members found.
        got: usize,
    },
    /// Member profiles disagree on the number of word-lines.
    MismatchedWlCount {
        /// Word-lines of the first member.
        expected: usize,
        /// Word-lines of the offending member.
        got: usize,
    },
    /// A gather record arrived out of word-line order.
    GatherOutOfOrder {
        /// Next word-line index the gatherer expects.
        expected: u32,
        /// Word-line index that was recorded.
        got: u32,
    },
    /// The gatherer already saw every word-line of the block.
    GatherComplete,
    /// The gatherer has not yet seen every word-line of the block.
    GatherIncomplete {
        /// Word-lines recorded so far.
        recorded: u32,
        /// Word-lines the block has.
        needed: u32,
    },
    /// An operation on the flash array failed.
    Flash(flash_model::FlashError),
    /// A profile was added to a pool index that does not exist.
    PoolOutOfRange {
        /// Offending pool index.
        pool: usize,
        /// Number of pools.
        pools: usize,
    },
}

impl fmt::Display for PvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PvError::MissingProfile { addr } => write!(f, "no profile for block {addr}"),
            PvError::TooFewMembers { got } => {
                write!(f, "superblock needs at least 2 members, got {got}")
            }
            PvError::MismatchedWlCount { expected, got } => {
                write!(f, "member word-line counts differ: {expected} vs {got}")
            }
            PvError::GatherOutOfOrder { expected, got } => {
                write!(f, "gather expects word-line {expected} next but got {got}")
            }
            PvError::GatherComplete => write!(f, "gatherer already saw the whole block"),
            PvError::GatherIncomplete { recorded, needed } => {
                write!(f, "gatherer saw {recorded} of {needed} word-lines")
            }
            PvError::Flash(e) => write!(f, "flash operation failed: {e}"),
            PvError::PoolOutOfRange { pool, pools } => {
                write!(f, "pool index {pool} out of range for {pools} pools")
            }
        }
    }
}

impl std::error::Error for PvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PvError::Flash(e) => Some(e),
            _ => None,
        }
    }
}

impl From<flash_model::FlashError> for PvError {
    fn from(e: flash_model::FlashError) -> Self {
        PvError::Flash(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_numbers() {
        let e = PvError::GatherOutOfOrder { expected: 4, got: 9 };
        let s = e.to_string();
        assert!(s.contains('4') && s.contains('9'));
    }

    #[test]
    fn flash_error_converts() {
        let fe = flash_model::FlashError::BlockFull {
            addr: flash_model::BlockAddr::new(
                flash_model::ChipId(0),
                flash_model::PlaneId(0),
                flash_model::BlockId(0),
            ),
        };
        let pe: PvError = fe.clone().into();
        assert_eq!(pe, PvError::Flash(fe));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PvError>();
    }
}
