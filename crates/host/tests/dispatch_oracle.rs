//! Randomized oracle for the frontend's arbiter: `Arbiter::pick_mask`, over
//! a clean readiness mask and over one with junk bits past the last queue,
//! must grant exactly what a plain modulo scan over the queues grants, pick
//! for pick. (The event drain's end-to-end oracle, the rescan drain, reads
//! the frontend's private queues and so lives in the crate's own tests,
//! `src/frontend/rescan.rs`.)

use host::{Arbiter, Arbitration};
use proptest::prelude::*;

/// xorshift64 stream for drawing one scenario from a proptest seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// The pre-bitmask arbiter: probe every queue in turn with a modulo.
struct ModuloScan {
    kind: Arbitration,
    weights: Vec<u32>,
    credits: Vec<u32>,
    cursor: usize,
}

impl ModuloScan {
    fn new(kind: Arbitration, weights: Vec<u32>) -> Self {
        let cursor = weights.len() - 1;
        ModuloScan { kind, credits: weights.clone(), weights, cursor }
    }

    fn pick(&mut self, ready: &[bool]) -> Option<usize> {
        let n = self.weights.len();
        if !ready.iter().any(|&r| r) {
            return None;
        }
        loop {
            for off in 1..=n {
                let i = (self.cursor + off) % n;
                let credit = self.kind == Arbitration::RoundRobin || self.credits[i] > 0;
                if ready[i] && credit {
                    if self.kind == Arbitration::WeightedRoundRobin {
                        self.credits[i] -= 1;
                    }
                    self.cursor = i;
                    return Some(i);
                }
            }
            self.credits.copy_from_slice(&self.weights);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bitmask_arbiter_matches_the_modulo_scan(
        seed in 0u64..u64::MAX,
        which in 0usize..6,
        wrr in any::<bool>(),
    ) {
        let n: usize = [1, 2, 63, 64, 65, 129][which];
        let kind = if wrr { Arbitration::WeightedRoundRobin } else { Arbitration::RoundRobin };
        let mut d = Draw(seed | 1);
        let weights: Vec<u32> = (0..n).map(|_| d.range(1, 8) as u32).collect();
        let mut by_bool = Arbiter::new(kind, weights.clone());
        let mut by_mask = Arbiter::new(kind, weights.clone());
        let mut oracle = ModuloScan::new(kind, weights);
        let words = n.div_ceil(64);
        for step in 0..600 {
            // Densities from "one queue in a hundred" to "all ready".
            let density = [1, 8, 50, 90, 100][d.range(0, 4) as usize];
            let ready: Vec<bool> = (0..n).map(|_| d.range(1, 100) <= density).collect();
            // Junk bits past the last queue, and a junk extra word, must
            // be ignored.
            let mut clean = vec![0u64; words];
            for (i, _) in ready.iter().enumerate().filter(|(_, &r)| r) {
                clean[i / 64] |= 1 << (i % 64);
            }
            let mut mask = clean.clone();
            if !n.is_multiple_of(64) {
                mask[words - 1] |= d.next() << (n % 64);
            }
            mask.push(d.next());
            let want = oracle.pick(&ready);
            prop_assert_eq!(by_bool.pick_mask(&clean), want, "pick, n={}, step {}", n, step);
            prop_assert_eq!(by_mask.pick_mask(&mask), want, "pick_mask, n={}, step {}", n, step);
        }
    }
}
