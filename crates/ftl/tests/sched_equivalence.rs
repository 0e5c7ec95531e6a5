//! Property tests for the event core's scheduler primitives.
//!
//! The depth tracker's contract is simple: after each arrival, the number
//! of completions still in flight equals a naive scan over every
//! completion registered so far, including completions that land out of
//! order when per-chip clocks interleave. The tournament's contract is
//! that its minimum equals a linear scan over its keys, lowest slot first
//! on a tie.

use ftl::sched::{DepthTracker, Tournament};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sorted_ring_depth_tracker_matches_the_same_oracle(
        gaps in proptest::collection::vec((0u32..500, 1u32..900), 1..200),
    ) {
        // The device replay's sorted-ring tracker must honor the
        // busy-until contract of a completion heap, including completions
        // landing out of order when per-chip clocks interleave (the
        // `service < gap` case). Oracle: a plain vector of completion
        // times, scanned per arrival.
        let mut dt = DepthTracker::new();
        let mut outstanding: Vec<f64> = Vec::new();
        let mut now = 0.0_f64;
        for &(gap, service) in &gaps {
            now += f64::from(gap) * 0.5;
            outstanding.retain(|&c| c > now);
            let depth = dt.arrive(now);
            prop_assert_eq!(depth, outstanding.len(), "depth diverged at t={}", now);
            let completion = now + f64::from(service);
            dt.complete_at(completion);
            outstanding.push(completion);
        }
    }

    #[test]
    fn tournament_minimum_matches_a_linear_scan(
        slots in 1usize..140,
        updates in proptest::collection::vec((0usize..140, 0u64..24), 1..300),
    ) {
        // Keys from a small range so ties across slots are common; the
        // top of the range stands in for `u64::MAX`, which new slots hold.
        let mut tree = Tournament::new(slots);
        let mut keys = vec![u64::MAX; slots];
        for &(slot, key) in &updates {
            let slot = slot % slots;
            let key = if key == 23 { u64::MAX } else { key };
            tree.set(slot, key);
            keys[slot] = key;
            let want = (0..slots).min_by_key(|&s| (keys[s], s)).unwrap();
            prop_assert_eq!(tree.min(), (want, keys[want]));
        }
    }
}
