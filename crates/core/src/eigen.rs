//! Bit-packed eigen sequences and their XOR/popcount distance (§V-B).
//!
//! An eigen sequence carries one bit per logical word-line: 0 if the
//! word-line's string is among the fastest half on its physical word-line
//! layer, 1 otherwise. Similarity between two blocks is the Hamming distance
//! between their sequences — a single XOR plus popcount per machine word,
//! which is what makes QSTR-MED cheap enough for a flash controller.

use std::fmt;

/// A bit-packed sequence of fast/slow markers, one per logical word-line.
///
/// ```
/// use pvcheck::EigenSequence;
///
/// let a = EigenSequence::from_bits([true, false, false, true]);
/// let b = EigenSequence::from_bits([false, false, true, true]);
/// assert_eq!(a.to_string(), "1001");
/// assert_eq!(a.distance(&b), 2); // one XOR + popcount
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct EigenSequence {
    words: Vec<u64>,
    len: usize,
}

impl EigenSequence {
    /// An all-zero (all-fast) sequence of the given length.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        EigenSequence { words: vec![0; len.div_ceil(64)], len }
    }

    /// Builds a sequence from booleans (`true` = slow = bit 1).
    #[must_use]
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut seq = EigenSequence::zeros(0);
        for b in bits {
            seq.push(b);
        }
        seq
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Appends `n` zero bits.
    pub(crate) fn push_zeros(&mut self, n: usize) {
        self.len += n;
        self.words.resize(self.len.div_ceil(64), 0);
    }

    /// The packed words: bit `i` is `words[i / 64] >> (i % 64) & 1`, and
    /// the bits past `len` are zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[must_use]
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        self.words[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Number of slow (1) bits.
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Hamming distance to another sequence: the paper's similarity
    /// distance (number of 1 bits after XOR).
    ///
    /// # Panics
    ///
    /// Panics if the sequences have different lengths.
    #[must_use]
    pub fn distance(&self, other: &EigenSequence) -> u32 {
        assert_eq!(self.len, other.len, "eigen sequences must have equal length");
        bit_distance(&self.words, &other.words)
    }

    /// Memory footprint of the packed bits, in bytes (Equation 2's
    /// `S_Eigen`).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.len.div_ceil(8)
    }
}

/// Number of differing bits between two equally long runs of packed words:
/// [`EigenSequence::distance`] on its words, also used by tables that hold
/// many sequences' words back to back.
pub(crate) fn bit_distance(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

impl fmt::Display for EigenSequence {
    /// Formats like the paper's Figure 9: groups of four bits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            if i > 0 && i % 4 == 0 {
                f.write_str(" ")?;
            }
            f.write_str(if self.get(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for EigenSequence {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        EigenSequence::from_bits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let bits = [true, false, false, true, true, false];
        let seq = EigenSequence::from_bits(bits);
        assert_eq!(seq.len(), 6);
        for (i, b) in bits.iter().enumerate() {
            assert_eq!(seq.get(i), *b);
        }
    }

    #[test]
    fn crosses_word_boundary() {
        let bits: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let seq = EigenSequence::from_bits(bits.clone());
        assert_eq!(seq.len(), 130);
        for (i, b) in bits.iter().enumerate() {
            assert_eq!(seq.get(i), *b, "bit {i}");
        }
    }

    #[test]
    fn distance_counts_differing_bits() {
        let a = EigenSequence::from_bits([true, false, true, false]);
        let b = EigenSequence::from_bits([true, true, false, false]);
        assert_eq!(a.distance(&b), 2);
        assert_eq!(a.distance(&a), 0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = EigenSequence::from_bits((0..100).map(|i| i % 2 == 0));
        let b = EigenSequence::from_bits((0..100).map(|i| i % 5 == 0));
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn distance_rejects_length_mismatch() {
        let a = EigenSequence::zeros(3);
        let b = EigenSequence::zeros(4);
        let _ = a.distance(&b);
    }

    #[test]
    fn count_ones_matches() {
        let seq = EigenSequence::from_bits((0..70).map(|i| i < 10));
        assert_eq!(seq.count_ones(), 10);
    }

    #[test]
    fn display_groups_by_four() {
        let seq = EigenSequence::from_bits([true, false, false, true, false, false, true, true]);
        assert_eq!(seq.to_string(), "1001 0011");
    }

    #[test]
    fn footprint_matches_paper_figures() {
        // 384 LWLs -> 48 bytes of eigen bits (plus a 4-byte latency sum = 52 B).
        assert_eq!(EigenSequence::zeros(384).footprint_bytes(), 48);
    }

    #[test]
    fn collect_from_iterator() {
        let seq: EigenSequence = (0..8).map(|i| i % 2 == 1).collect();
        assert_eq!(seq.to_string(), "0101 0101");
    }
}
