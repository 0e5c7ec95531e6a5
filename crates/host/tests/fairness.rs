//! Property-based arbitration fairness tests.
//!
//! Two layers: the [`Arbiter`] alone (pure pick sequences over a
//! saturated ready mask) and the full [`HostFrontend`] event loop
//! (dispatch logs of saturated tenants), pinning the issue's contracts:
//! equal weights never let completed counts drift apart by more than the
//! queue depth, and WRR grants each queue exactly its weight within every
//! aligned round.

use ftl::{FtlConfig, IoRequest, QosClass, Ssd, Workload};
use host::{Arbiter, Arbitration, HostFrontend, TenantSpec};
use proptest::prelude::*;

fn saturated_streams(n: usize, per_tenant: usize) -> (Ssd, Vec<Vec<(f64, IoRequest)>>) {
    let ssd = Ssd::new(FtlConfig::small_test(), 13).unwrap();
    let info = ssd.geometry_info();
    let streams = (0..n)
        .map(|tenant| {
            Workload::random_write(0.5)
                .generate(&info, per_tenant, tenant as u64)
                .into_iter()
                .map(|r| (0.0, r))
                .collect()
        })
        .collect();
    (ssd, streams)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rr_equal_share_never_drifts_by_more_than_one(n in 2usize..6, picks in 8usize..200) {
        let mut arb = Arbiter::new(Arbitration::RoundRobin, vec![1u32; n]);
        let ready = [u64::MAX]; // every queue (bits past the last are ignored)
        let mut counts = vec![0u64; n];
        for _ in 0..picks {
            counts[arb.pick_mask(&ready).unwrap()] += 1;
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            prop_assert!(max - min <= 1, "saturated RR drifted: {counts:?}");
        }
    }

    #[test]
    fn wrr_grants_exactly_the_weights_each_round(
        weights in proptest::collection::vec(1u32..9, 2..5),
        rounds in 1usize..6,
    ) {
        let sum: u32 = weights.iter().sum();
        let mut arb = Arbiter::new(Arbitration::WeightedRoundRobin, weights.clone());
        let ready = [u64::MAX]; // every queue (bits past the last are ignored)
        for round in 0..rounds {
            let mut counts = vec![0u32; weights.len()];
            for _ in 0..sum {
                counts[arb.pick_mask(&ready).unwrap()] += 1;
            }
            // Credits drain from full to empty over exactly sum picks, so
            // every aligned round reproduces the weight vector.
            prop_assert_eq!(
                &counts, &weights,
                "round {} granted {:?} for weights {:?}", round, counts, weights
            );
        }
    }

    #[test]
    fn wrr_never_overgrants_within_a_round(
        weights in proptest::collection::vec(1u32..9, 2..5),
    ) {
        let sum: u32 = weights.iter().sum();
        let mut arb = Arbiter::new(Arbitration::WeightedRoundRobin, weights.clone());
        let ready = [u64::MAX]; // every queue (bits past the last are ignored)
        let mut counts = vec![0u32; weights.len()];
        for _ in 0..sum {
            counts[arb.pick_mask(&ready).unwrap()] += 1;
            for (i, (&c, &w)) in counts.iter().zip(&weights).enumerate() {
                prop_assert!(c <= w, "queue {i} overgranted: {c} of {w}");
            }
        }
    }
}

proptest! {
    // Frontend runs replay a real device; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn saturated_equal_tenants_stay_within_the_queue_depth(
        n in 2usize..4,
        depth in 1usize..6,
    ) {
        const PER_TENANT: usize = 60;
        let (ssd, streams) = saturated_streams(n, PER_TENANT);
        let specs = (0..n)
            .map(|i| TenantSpec::new(&format!("t{i}"), QosClass::Standard).queue_depth(depth))
            .collect();
        let mut front = HostFrontend::new(ssd, specs, Arbitration::RoundRobin);
        for (tenant, stream) in streams.iter().enumerate() {
            front.submit(tenant, stream);
        }
        front.run().unwrap();
        prop_assert!(front.drained());
        // While every queue still has work, round-robin over equally
        // weighted saturated tenants cannot let completion counts drift
        // apart by more than the queue depth.
        let mut counts = vec![0u64; n];
        for &k in front.dispatch_log() {
            counts[k] += 1;
            if counts.iter().all(|&c| c < PER_TENANT as u64) {
                let max = *counts.iter().max().unwrap();
                let min = *counts.iter().min().unwrap();
                prop_assert!(
                    max - min <= depth as u64,
                    "drift {} exceeds depth {}: {:?}", max - min, depth, counts
                );
            }
        }
        for tenant in 0..n {
            prop_assert_eq!(front.tenant_stats(tenant).completed, PER_TENANT as u64);
        }
    }

    #[test]
    fn saturated_wrr_tenants_complete_in_weight_ratio(
        w0 in 1u32..5,
        w1 in 1u32..5,
    ) {
        const PER_TENANT: usize = 60;
        let (ssd, streams) = saturated_streams(2, PER_TENANT);
        let specs = vec![
            TenantSpec::new("a", QosClass::Standard).weight(w0),
            TenantSpec::new("b", QosClass::Standard).weight(w1),
        ];
        let mut front = HostFrontend::new(ssd, specs, Arbitration::WeightedRoundRobin);
        for (tenant, stream) in streams.iter().enumerate() {
            front.submit(tenant, stream);
        }
        front.run().unwrap();
        // With both queues saturated (everything arrives at t=0 and
        // depths are unbounded), every aligned round of w0+w1 dispatches
        // grants each tenant exactly its weight — until one stream runs
        // out and work conservation hands the rest to the survivor.
        let sum = (w0 + w1) as usize;
        let log = front.dispatch_log();
        let mut seen = [0usize; 2];
        for chunk in log.chunks(sum) {
            let before = seen;
            for &k in chunk {
                seen[k] += 1;
            }
            let exhausted =
                before[0] + sum >= PER_TENANT || before[1] + sum >= PER_TENANT;
            if chunk.len() == sum && !exhausted {
                let granted0 = seen[0] - before[0];
                prop_assert_eq!(
                    granted0, w0 as usize,
                    "round granted {} to tenant 0, weight {}", granted0, w0
                );
            }
        }
        prop_assert_eq!(front.tenant_stats(0).completed, PER_TENANT as u64);
        prop_assert_eq!(front.tenant_stats(1).completed, PER_TENANT as u64);
    }
}
