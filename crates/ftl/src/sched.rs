//! Event-core primitives for the timed replay engine
//! ([`crate::Ssd::timed_step`]) and the host frontend's event drain.
//!
//! * [`DepthTracker`] — a sorted ring of chip-completion times. The device's
//!   in-flight window is near-sorted by construction, so both insert and
//!   retire are O(1) amortized with sequential memory traffic.
//! * [`Tournament`] — a winner tree over a fixed set of `u64` keys: the
//!   minimum in O(1), a key change in O(log n). The host frontend keys it by
//!   each tenant's next arrival; [`crate::LatencyHistogram::fold`] keys it
//!   by the head of each part's sorted run.
//! * [`total_key`] / [`from_total_key`] — the [`f64::total_cmp`] order as
//!   plain unsigned integers, so trees and sorts compare `u64`s.
//!
//! The depth tracker and the tournament are held to naive oracles by the
//! proptest suite (`crates/ftl/tests/sched_equivalence.rs`); the depth
//! tracker and the frontend loop around the tournament are microbenched by
//! `crates/bench/benches/events.rs`.

use std::collections::VecDeque;

/// Depth tracker specialized for the chip-completion streams a replay
/// emits.
///
/// Per-chip busy-until clocks only move forward, so completion times arrive
/// in near-sorted order; a single sorted ring with insert-from-the-back
/// makes both [`DepthTracker::complete_at`] and [`DepthTracker::arrive`]
/// O(1) amortized with strictly sequential memory traffic, where a binary
/// heap pays an O(log n) pointer-hopping sift per event on the same stream
/// and a calendar ring scatters a deep backlog across cold buckets. Depth
/// counting needs no tie-break: `arrive` retires every completion `<=
/// arrival`, so only the multiset of times matters.
#[derive(Debug, Default)]
pub struct DepthTracker {
    /// Completion times, ascending.
    completions: VecDeque<f64>,
}

impl DepthTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of completions still outstanding.
    #[must_use]
    pub fn len(&self) -> usize {
        self.completions.len()
    }

    /// True when nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty()
    }

    /// Registers a completion event at `at`. Monotone (and equal-time)
    /// pushes append in O(1); a clock interleaving briefly out of order
    /// falls back to a binary search and a short move from the back.
    pub fn complete_at(&mut self, at: f64) {
        match self.completions.back() {
            Some(&back) if at.total_cmp(&back).is_lt() => {
                let pos = self.completions.partition_point(|c| c.total_cmp(&at).is_le());
                self.completions.insert(pos, at);
            }
            _ => self.completions.push_back(at),
        }
    }

    /// Retires events with `time <= arrival`; returns how many remain in
    /// flight.
    pub fn arrive(&mut self, arrival: f64) -> usize {
        while self.completions.front().is_some_and(|&c| c <= arrival) {
            self.completions.pop_front();
        }
        self.completions.len()
    }
}

/// `x`'s position in the IEEE 754 total order as an unsigned integer:
/// `total_key(a).cmp(&total_key(b)) == a.total_cmp(&b)` for every pair of
/// values, NaNs and signed zeros included, and [`from_total_key`] inverts
/// it bit for bit. Negative values flip every bit (a larger magnitude
/// sorts lower); the rest gain the sign bit (they sort above every
/// negative value).
#[must_use]
pub fn total_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`total_key`].
#[must_use]
pub fn from_total_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

/// Winner tree ("tournament") over `slots` keys: [`Tournament::min`] reads
/// the smallest key and its slot in O(1), and [`Tournament::set`] replays
/// only the changed slot's leaf-to-root path, O(log slots). Every slot
/// starts at `u64::MAX`. Ties go to the lower slot: a node's left subtree
/// holds only lower slots than its right one, and a tie keeps the left.
///
/// ```
/// use ftl::sched::Tournament;
///
/// let mut t = Tournament::new(3);
/// t.set(0, 30);
/// t.set(1, 10);
/// t.set(2, 10);
/// assert_eq!(t.min(), (1, 10));
/// t.set(1, 40);
/// assert_eq!(t.min(), (2, 10));
/// ```
#[derive(Debug, Clone)]
pub struct Tournament {
    /// Node `1` is the root, node `i` has children `2i` and `2i + 1`, and
    /// slot `s` is leaf `leaves + s`. Each node holds the smallest `(key,
    /// slot)` of its subtree; padding leaves past the last slot stay at
    /// `u64::MAX` and lose every tie.
    nodes: Vec<(u64, u32)>,
    /// Leaf count: `slots` rounded up to a power of two.
    leaves: usize,
    slots: usize,
}

impl Tournament {
    /// A tree of `slots` keys, all `u64::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `slots` exceeds `u32::MAX`.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        let leaves = slots.next_power_of_two();
        let mut nodes = vec![(u64::MAX, 0); 2 * leaves];
        for (s, leaf) in nodes[leaves..].iter_mut().enumerate() {
            leaf.1 = u32::try_from(s).expect("tournament slot fits u32");
        }
        // Every key ties, so each node takes its left child's leaf.
        for i in (1..leaves).rev() {
            nodes[i] = nodes[2 * i];
        }
        Tournament { nodes, leaves, slots }
    }

    /// The smallest key's slot (the lowest such slot on a tie) and the key.
    #[must_use]
    pub fn min(&self) -> (usize, u64) {
        let (key, slot) = self.nodes[1];
        (slot as usize, key)
    }

    /// Slot `slot`'s key.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn key(&self, slot: usize) -> u64 {
        assert!(slot < self.slots, "tournament slot {slot} out of range");
        self.nodes[self.leaves + slot].0
    }

    /// Sets slot `slot`'s key and replays its path to the root.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn set(&mut self, slot: usize, key: u64) {
        assert!(slot < self.slots, "tournament slot {slot} out of range");
        let mut i = self.leaves + slot;
        self.nodes[i].0 = key;
        while i > 1 {
            let (left, right) = (self.nodes[i & !1], self.nodes[i | 1]);
            i >>= 1;
            self.nodes[i] = if right.0 < left.0 { right } else { left };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_tracker_matches_heap_semantics() {
        let mut q = DepthTracker::new();
        assert_eq!(q.arrive(0.0), 0);
        q.complete_at(10.0);
        q.complete_at(20.0);
        assert_eq!(q.arrive(5.0), 2, "both still running at t=5");
        assert_eq!(q.arrive(10.0), 1, "first completed exactly at t=10");
        assert_eq!(q.arrive(25.0), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn depth_tracker_accepts_out_of_order_completions() {
        // Per-chip clocks interleave: chip A's completion can land behind
        // chip B's already-registered one. The ring must stay sorted.
        let mut q = DepthTracker::new();
        q.complete_at(30.0);
        q.complete_at(10.0);
        q.complete_at(20.0);
        q.complete_at(20.0);
        assert_eq!(q.len(), 4);
        assert_eq!(q.arrive(10.0), 3);
        assert_eq!(q.arrive(20.0), 1);
        assert_eq!(q.arrive(29.999), 1);
        assert_eq!(q.arrive(30.0), 0);
    }

    #[test]
    fn total_key_orders_like_total_cmp_and_round_trips() {
        let values = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(u64::MAX >> 1),
        ];
        for &a in &values {
            assert_eq!(from_total_key(total_key(a)).to_bits(), a.to_bits());
            for &b in &values {
                assert_eq!(total_key(a).cmp(&total_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn tournament_breaks_ties_toward_the_lower_slot() {
        let mut t = Tournament::new(5);
        for slot in [4, 2, 3] {
            t.set(slot, 7);
        }
        assert_eq!(t.min(), (2, 7));
        t.set(2, u64::MAX);
        assert_eq!(t.min(), (3, 7));
        // Real slots beat the padding leaves (8 leaves for 5 slots) when
        // every key is `u64::MAX`.
        for slot in 0..5 {
            t.set(slot, u64::MAX);
        }
        assert_eq!(t.min(), (0, u64::MAX));
    }
}
