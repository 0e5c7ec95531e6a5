//! Property tests for the workload's sharding contract: re-sharding a
//! fleet (changing the device count) only moves users between devices —
//! it never changes any user's op sequence, and it never creates,
//! duplicates or drops an op.

use fleet::{FleetWorkload, UserOp};
use proptest::prelude::*;

const LOGICAL_PAGES: u64 = 2048;

fn workload(users: u64, devices: usize) -> FleetWorkload {
    let mut w = FleetWorkload::new(users, devices);
    // Small streams keep the property runs fast; every generator feature
    // (bursts, diurnal swing, read mix) stays on.
    w.mean_ops_per_user = 5.0;
    w
}

/// The per-user subsequence of every device stream of an N-device fleet,
/// keyed by user id.
fn per_user_subsequences(w: &FleetWorkload, seed: u64) -> Vec<(u64, Vec<UserOp>)> {
    let mut by_user: Vec<(u64, Vec<UserOp>)> = Vec::new();
    for device in 0..w.devices() {
        for op in w.shard_ops(seed, device, LOGICAL_PAGES) {
            match by_user.iter_mut().find(|(u, _)| *u == op.user) {
                Some((_, ops)) => ops.push(op),
                None => by_user.push((op.user, vec![op])),
            }
        }
    }
    by_user.sort_by_key(|&(u, _)| u);
    by_user
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn resharding_moves_users_without_changing_their_streams(
        users in 1u64..40,
        devices_a in 1usize..7,
        devices_b in 1usize..7,
        seed in any::<u64>(),
    ) {
        let a = workload(users, devices_a);
        let b = workload(users, devices_b);
        let subs_a = per_user_subsequences(&a, seed);
        let subs_b = per_user_subsequences(&b, seed);

        // Every user appears under both shardings with the same ops in the
        // same order — the device count only decides where they land.
        prop_assert_eq!(subs_a.len(), subs_b.len(), "a sharding lost or invented users");
        for ((ua, ops_a), (ub, ops_b)) in subs_a.iter().zip(&subs_b) {
            prop_assert_eq!(ua, ub);
            prop_assert_eq!(ops_a, ops_b, "user {} stream changed under re-sharding", ua);
        }

        // And each user's subsequence is exactly its directly generated
        // stream: a device stream is a pure merge, never a resample.
        for (user, ops) in &subs_a {
            let direct = a.user_ops(seed, *user, LOGICAL_PAGES);
            prop_assert_eq!(ops, &direct, "user {} merged stream != direct stream", user);
        }
    }

    #[test]
    fn every_user_lands_on_exactly_one_valid_device(
        users in 1u64..200,
        devices in 1usize..9,
        seed in any::<u64>(),
    ) {
        let w = workload(users, devices);
        for user in 0..users {
            let d = w.shard_of(seed, user);
            prop_assert!(d < devices, "user {} sharded to out-of-range device {}", user, d);
            // The hash is a function: repeated queries agree.
            prop_assert_eq!(d, w.shard_of(seed, user));
        }
    }
}
