//! Submission-queue arbitration.
//!
//! Mirrors the NVMe controller arbitration mechanisms: plain round-robin
//! treats every queue equally, weighted round-robin grants each queue a
//! per-round credit budget proportional to its weight. Both are
//! work-conserving — an empty queue never blocks a ready one — and fully
//! deterministic.

/// Which arbitration mechanism the frontend uses to pick the next
/// submission queue to service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arbitration {
    /// Equal-share round-robin over the non-empty queues.
    #[default]
    RoundRobin,
    /// Weighted round-robin: within one round a queue with weight `w` is
    /// granted up to `w` commands, interleaved with the other queues.
    WeightedRoundRobin,
}

impl Arbitration {
    /// Short machine-readable label (used in CSV output).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Arbitration::RoundRobin => "rr",
            Arbitration::WeightedRoundRobin => "wrr",
        }
    }
}

/// Deterministic round-robin / weighted-round-robin queue picker.
///
/// Readiness and remaining WRR credit are bit words (bit `i % 64` of word
/// `i / 64` is queue `i`), so a pick jumps to the first set bit at or
/// cyclically after the queue past the cursor instead of probing queues one
/// by one. RR grants the first ready queue; WRR grants the first ready
/// queue with credit left, and when no ready queue has any, refills every
/// queue's credit to its weight and grants the first ready queue.
///
/// With unit weights under saturation (every queue ready) WRR degenerates
/// to RR exactly: every queue holds one credit per round, so the cyclic
/// credit scan visits queues in the same order the plain scan does. (Under
/// partial readiness the two can diverge — leftover credits bias WRR away
/// from queues that were served recently.)
///
/// ```
/// use host::{Arbiter, Arbitration};
///
/// let mut arb = Arbiter::new(Arbitration::WeightedRoundRobin, vec![2, 1]);
/// let ready = [true, true];
/// let picks: Vec<usize> = (0..6).map(|_| arb.pick(&ready).unwrap()).collect();
/// // Each round of 3 grants queue 0 twice and queue 1 once; the scan
/// // cursor carries across rounds, so rounds interleave differently.
/// assert_eq!(picks, [0, 1, 0, 1, 0, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct Arbiter {
    kind: Arbitration,
    weights: Vec<u32>,
    credits: Vec<u32>,
    /// Bit set while the queue has WRR credit left this round (bits past
    /// the last queue stay set and are never read).
    credited: Vec<u64>,
    cursor: usize,
}

impl Arbiter {
    /// Builds an arbiter over `weights.len()` queues. Weights are ignored
    /// by [`Arbitration::RoundRobin`].
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any weight is zero.
    #[must_use]
    pub fn new(kind: Arbitration, weights: Vec<u32>) -> Self {
        assert!(!weights.is_empty(), "arbiter needs at least one queue");
        assert!(weights.iter().all(|&w| w >= 1), "weights must be at least 1");
        let n = weights.len();
        let credits = weights.clone();
        let credited = vec![u64::MAX; n.div_ceil(64)];
        Arbiter { kind, weights, credits, credited, cursor: n - 1 }
    }

    /// Number of queues under arbitration.
    #[must_use]
    pub fn queues(&self) -> usize {
        self.weights.len()
    }

    /// Picks the next queue to service given which queues are ready
    /// (non-empty), or `None` when no queue is ready.
    ///
    /// # Panics
    ///
    /// Panics if `ready.len()` differs from the number of queues.
    pub fn pick(&mut self, ready: &[bool]) -> Option<usize> {
        assert_eq!(ready.len(), self.weights.len(), "ready mask must cover every queue");
        let packed: Vec<u64> = ready
            .chunks(64)
            .map(|c| c.iter().rev().fold(0, |w, &r| w << 1 | u64::from(r)))
            .collect();
        self.pick_mask(&packed)
    }

    /// [`Arbiter::pick`] over a packed readiness bitmask (bit `i % 64` of
    /// word `i / 64` marks queue `i` ready) — the representation the
    /// batched frontend maintains incrementally instead of rebuilding a
    /// `Vec<bool>` per dispatch. Bits past the last queue are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `ready` has fewer than `queues().div_ceil(64)` words.
    pub fn pick_mask(&mut self, ready: &[u64]) -> Option<usize> {
        let n = self.weights.len();
        let words = n.div_ceil(64);
        assert!(ready.len() >= words, "ready mask must cover every queue");
        let tail = u64::MAX >> (words * 64 - n);
        let ready_word = |j: usize| ready[j] & if j + 1 == words { tail } else { u64::MAX };
        let start = if self.cursor + 1 == n { 0 } else { self.cursor + 1 };
        let i = match self.kind {
            Arbitration::RoundRobin => next_set(words, start, ready_word)?,
            Arbitration::WeightedRoundRobin => {
                let credited = &self.credited;
                let i = match next_set(words, start, |j| ready_word(j) & credited[j]) {
                    Some(i) => i,
                    None => {
                        // Every ready queue exhausted its credits: start a
                        // new round. Work conservation: idle queues cannot
                        // bank credits across rounds, so the refill cannot
                        // starve anyone. Nothing ready: no new round.
                        let i = next_set(words, start, ready_word)?;
                        self.credits.copy_from_slice(&self.weights);
                        self.credited.fill(u64::MAX);
                        i
                    }
                };
                self.credits[i] -= 1;
                if self.credits[i] == 0 {
                    self.credited[i / 64] &= !(1 << (i % 64));
                }
                i
            }
        };
        self.cursor = i;
        Some(i)
    }
}

/// The first set bit at or cyclically after bit `start` of a `words`-long
/// bit vector read through `word`.
fn next_set(words: usize, start: usize, word: impl Fn(usize) -> u64) -> Option<usize> {
    let first = start / 64;
    let w = word(first) & (u64::MAX << (start % 64));
    if w != 0 {
        return Some(first * 64 + w.trailing_zeros() as usize);
    }
    // Wrap around; word `first` comes last and can only hold bits below
    // `start` now.
    (first + 1..words).chain(0..=first).find_map(|j| {
        let w = word(j);
        (w != 0).then(|| j * 64 + w.trailing_zeros() as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_ready_queues() {
        let mut arb = Arbiter::new(Arbitration::RoundRobin, vec![1, 1, 1]);
        let all = [true, true, true];
        let picks: Vec<usize> = (0..6).map(|_| arb.pick(&all).unwrap()).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_empty_queues() {
        let mut arb = Arbiter::new(Arbitration::RoundRobin, vec![1, 1, 1]);
        assert_eq!(arb.pick(&[false, true, true]), Some(1));
        assert_eq!(arb.pick(&[false, true, true]), Some(2));
        assert_eq!(arb.pick(&[false, false, true]), Some(2));
        assert_eq!(arb.pick(&[false, false, false]), None);
        // The cursor survives idle spells.
        assert_eq!(arb.pick(&[true, true, true]), Some(0));
    }

    #[test]
    fn wrr_grants_weight_commands_per_round() {
        let mut arb = Arbiter::new(Arbitration::WeightedRoundRobin, vec![3, 1]);
        let all = [true, true];
        // Under saturation every aligned round of weight-sum picks grants
        // each queue exactly its weight (the interleaving may differ
        // between rounds because the scan cursor carries over).
        for _ in 0..4 {
            let round: Vec<usize> = (0..4).map(|_| arb.pick(&all).unwrap()).collect();
            assert_eq!(round.iter().filter(|&&k| k == 0).count(), 3);
            assert_eq!(round.iter().filter(|&&k| k == 1).count(), 1);
        }
    }

    #[test]
    fn wrr_is_work_conserving() {
        // Queue 0 is idle; queue 1 must be served continuously even after
        // its per-round credits run out.
        let mut arb = Arbiter::new(Arbitration::WeightedRoundRobin, vec![4, 1]);
        for _ in 0..10 {
            assert_eq!(arb.pick(&[false, true]), Some(1));
        }
    }

    #[test]
    fn wrr_with_unit_weights_matches_rr_under_saturation() {
        let mut wrr = Arbiter::new(Arbitration::WeightedRoundRobin, vec![1, 1, 1]);
        let mut rr = Arbiter::new(Arbitration::RoundRobin, vec![1, 1, 1]);
        let all = [true, true, true];
        for _ in 0..12 {
            assert_eq!(wrr.pick(&all), rr.pick(&all));
        }
    }

    #[test]
    fn single_queue_arbitration_is_mechanism_independent() {
        // The degenerate case behind the frontend's determinism contract:
        // with one queue, RR and WRR make identical (trivial) choices no
        // matter the weight or readiness history.
        let mut wrr = Arbiter::new(Arbitration::WeightedRoundRobin, vec![7]);
        let mut rr = Arbiter::new(Arbitration::RoundRobin, vec![1]);
        for i in 0..20 {
            let ready = [i % 3 != 2];
            assert_eq!(wrr.pick(&ready), rr.pick(&ready));
            assert_eq!(rr.pick(&ready), if ready[0] { Some(0) } else { None });
        }
    }

    #[test]
    #[should_panic(expected = "weights must be at least 1")]
    fn zero_weight_is_rejected() {
        let _ = Arbiter::new(Arbitration::WeightedRoundRobin, vec![1, 0]);
    }

    #[test]
    fn mask_pick_matches_bool_pick_in_lockstep() {
        // Two arbiters, same weights, driven through a pseudo-random
        // readiness history — the packed and unpacked masks must agree
        // pick for pick (state carries across calls, so one divergence
        // cascades).
        for kind in [Arbitration::RoundRobin, Arbitration::WeightedRoundRobin] {
            let weights = vec![3, 1, 2, 1, 5, 1, 1, 2];
            let mut by_bool = Arbiter::new(kind, weights.clone());
            let mut by_mask = Arbiter::new(kind, weights);
            let mut state = 0x9e37_79b9_u64;
            for step in 0..2000 {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let bits = (state >> 32) & 0xff;
                let ready: Vec<bool> = (0..8).map(|i| bits & (1 << i) != 0).collect();
                assert_eq!(
                    by_bool.pick(&ready),
                    by_mask.pick_mask(&[bits]),
                    "{kind:?} diverged at step {step} (ready {bits:#010b})"
                );
            }
        }
    }

    #[test]
    fn mask_pick_ignores_bits_past_the_last_queue() {
        // Three queues: bit 3 and up of word 0 and any extra word are not
        // queues, so a mask holding only those has nothing ready.
        for kind in [Arbitration::RoundRobin, Arbitration::WeightedRoundRobin] {
            let mut arb = Arbiter::new(kind, vec![1, 2, 1]);
            assert_eq!(arb.pick_mask(&[!0b111, u64::MAX]), None);
            assert_eq!(arb.pick_mask(&[0b100 | 1 << 40]), Some(2));
            assert_eq!(arb.pick_mask(&[u64::MAX]), Some(0));
        }
    }

    #[test]
    fn mask_pick_spans_multiple_words() {
        // 70 queues forces a second mask word; only queue 69 is ready.
        let mut arb = Arbiter::new(Arbitration::RoundRobin, vec![1; 70]);
        let mut mask = [0u64; 2];
        mask[1] = 1 << (69 - 64);
        assert_eq!(arb.pick_mask(&mask), Some(69));
        assert_eq!(arb.pick_mask(&[0, 0]), None);
    }
}
