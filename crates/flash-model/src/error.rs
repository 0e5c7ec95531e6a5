//! Error type for flash operations.

use crate::ids::{BlockAddr, LwlId, PageAddr, WlAddr};
use std::fmt;

/// Errors returned by stateful flash operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlashError {
    /// The address does not exist in the configured geometry.
    AddressOutOfRange {
        /// Offending block address.
        addr: BlockAddr,
    },
    /// The logical word-line index exceeds the block size.
    WlOutOfRange {
        /// Offending word-line address.
        wl: WlAddr,
    },
    /// A program was issued to a block that is not erased/open.
    ProgramOnUnerased {
        /// Offending block address.
        addr: BlockAddr,
    },
    /// Word-lines must be programmed in order within a block.
    ProgramOutOfOrder {
        /// Offending block address.
        addr: BlockAddr,
        /// Next word-line the block expects.
        expected: LwlId,
        /// Word-line that was requested.
        got: LwlId,
    },
    /// The block is already fully programmed.
    BlockFull {
        /// Offending block address.
        addr: BlockAddr,
    },
    /// A read was issued to a page that was never programmed.
    ReadUnwritten {
        /// Offending page address.
        page: PageAddr,
    },
    /// The data slice length does not match pages-per-word-line.
    DataLengthMismatch {
        /// Pages per word-line the geometry requires.
        expected: u32,
        /// Length of the provided slice.
        got: usize,
    },
    /// The word-line program reported status fail (media fault); the block
    /// must be retired.
    ProgramFailed {
        /// Word-line whose program failed.
        wl: WlAddr,
    },
    /// The block erase failed to verify (media fault); the block must be
    /// retired.
    EraseFailed {
        /// Block whose erase failed.
        addr: BlockAddr,
    },
    /// The word-line program was interrupted by a sudden power loss: its
    /// pages are unreadable and the block takes no further programs until
    /// erased.
    TornWordLine {
        /// Word-line that was mid-program at power loss.
        wl: WlAddr,
    },
}

impl FlashError {
    /// Whether this error is an injected media fault (as opposed to an
    /// illegal request): the caller should retire the block and remap, not
    /// treat it as a bug.
    #[must_use]
    pub fn is_media_failure(&self) -> bool {
        matches!(self, FlashError::ProgramFailed { .. } | FlashError::EraseFailed { .. })
    }
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::AddressOutOfRange { addr } => {
                write!(f, "block address {addr} is outside the configured geometry")
            }
            FlashError::WlOutOfRange { wl } => {
                write!(f, "word-line {wl} is outside the block")
            }
            FlashError::ProgramOnUnerased { addr } => {
                write!(f, "program issued to unerased block {addr}")
            }
            FlashError::ProgramOutOfOrder { addr, expected, got } => {
                write!(f, "block {addr} expects {expected} next but {got} was programmed")
            }
            FlashError::BlockFull { addr } => write!(f, "block {addr} is fully programmed"),
            FlashError::ReadUnwritten { page } => {
                write!(f, "read of unwritten page {page}")
            }
            FlashError::DataLengthMismatch { expected, got } => {
                write!(f, "word-line takes {expected} pages of data but {got} were provided")
            }
            FlashError::ProgramFailed { wl } => {
                write!(f, "program status fail on {wl}: block must be retired")
            }
            FlashError::EraseFailed { addr } => {
                write!(f, "erase failure on block {addr}: block must be retired")
            }
            FlashError::TornWordLine { wl } => {
                write!(f, "word-line {wl} was torn by a sudden power loss")
            }
        }
    }
}

impl std::error::Error for FlashError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{BlockId, ChipId, PlaneId};

    #[test]
    fn display_is_informative() {
        let addr = BlockAddr::new(ChipId(1), PlaneId(0), BlockId(3));
        let e = FlashError::ProgramOutOfOrder { addr, expected: LwlId(4), got: LwlId(9) };
        let s = e.to_string();
        assert!(s.contains("WL4") && s.contains("WL9"), "{s}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlashError>();
    }
}
