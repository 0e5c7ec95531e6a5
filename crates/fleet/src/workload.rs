//! Deterministic multi-user workload generation and sharding.

use ftl::trace::TracedRequest;
use ftl::{IoOp, IoRequest};

/// Domain-separation salts for the independent splitmix64 streams: the
/// user→shard hash, each user's op stream, and each user's static traits
/// (QoS class, footprint base, op count) must not correlate.
const SHARD_SALT: u64 = 0x5348_4152_445f_5341; // "SHARD_SA"
const STREAM_SALT: u64 = 0x5354_5245_414d_5f53; // "STREAM_S"
const TRAIT_SALT: u64 = 0x5452_4149_545f_5341; // "TRAIT_SA"

/// One splitmix64 step — the same finalizer the FTL's seeded components
/// use, so a user stream is a cheap pure function of its seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One-shot hash of `(a, b, c)` through two splitmix rounds.
fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut state = a ^ b.rotate_left(24) ^ c.rotate_left(48);
    let x = splitmix64(&mut state);
    x ^ splitmix64(&mut state)
}

/// Uniform f64 in `[0, 1)` from the top 53 bits of a draw.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One operation of one user's stream, tagged with enough identity to
/// verify the sharding contract (the proptests reconstruct per-user
/// subsequences from device streams and compare them against
/// [`FleetWorkload::user_ops`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserOp {
    /// The issuing user.
    pub user: u64,
    /// Position within the user's own stream.
    pub seq: u32,
    /// Arrival time, µs.
    pub arrival_us: f64,
    /// Frontend tenant index (0 = latency-critical, 1 = standard,
    /// 2 = background) — a static per-user trait.
    pub tenant: u32,
    /// The request.
    pub request: IoRequest,
}

/// A deterministic fleet workload: `users` logical users hashed across
/// `devices` shards, each with a Zipfian hot/cold footprint, a heavy-tailed
/// op count, a configurable read mix, burst trains, and diurnal
/// arrival-rate modulation.
///
/// Every user's op sequence is a pure function of `(fleet_seed, user_id)`
/// and the generator parameters — never of `devices` — so re-sharding the
/// fleet only moves users between devices.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetWorkload {
    /// Number of logical users across the fleet.
    pub users: u64,
    /// Number of simulated devices (shards); private so it keeps the
    /// nonzero count [`FleetWorkload::new`] checked.
    devices: usize,
    /// Mean ops per user; actual counts are Pareto-distributed (α = 1.5)
    /// around this mean, so a small fraction of whales dominates volume.
    pub mean_ops_per_user: f64,
    /// Fraction of a user's ops that re-read pages it already wrote.
    pub read_fraction: f64,
    /// Zipf skew θ of accesses within a user's footprint (0 = uniform).
    pub zipf_theta: f64,
    /// Pages in each user's footprint (clamped to the logical space).
    pub footprint_pages: u64,
    /// Mean interarrival gap within a user's stream, µs.
    pub mean_gap_us: f64,
    /// Probability an op opens a burst train of tightly spaced ops.
    pub burst_prob: f64,
    /// Ops per burst train.
    pub burst_len: u32,
    /// Mean interarrival gap inside a burst, µs.
    pub burst_gap_us: f64,
    /// Diurnal modulation depth in `[0, 1)`: arrival intensity swings
    /// between `1 - amplitude` and `1 + amplitude` over a period.
    pub diurnal_amplitude: f64,
    /// Diurnal period, µs.
    pub diurnal_period_us: f64,
    /// User start times spread uniformly over this window, µs, so the
    /// fleet never sees a t = 0 stampede. Defaults to one diurnal period;
    /// populations whose per-user gap dwarfs the period should widen it
    /// to about one stream length (`mean_ops_per_user * mean_gap_us`),
    /// otherwise every user's *first* op lands inside the window and the
    /// opening burst saturates each device regardless of `mean_gap_us`.
    pub start_spread_us: f64,
}

impl FleetWorkload {
    /// A workload over `users` users and `devices` devices with the
    /// defaults the fleet sweeps use: 8 ops/user mean, 30% reads, YCSB-ish
    /// Zipf skew, 64-page footprints, bursty arrivals and a ±40% diurnal
    /// swing.
    ///
    /// # Panics
    ///
    /// Panics if `users` or `devices` is zero.
    #[must_use]
    pub fn new(users: u64, devices: usize) -> Self {
        assert!(users > 0, "fleet needs at least one user");
        assert!(devices > 0, "fleet needs at least one device");
        FleetWorkload {
            users,
            devices,
            mean_ops_per_user: 8.0,
            read_fraction: 0.3,
            zipf_theta: 0.99,
            footprint_pages: 64,
            mean_gap_us: 50_000.0,
            burst_prob: 0.1,
            burst_len: 8,
            burst_gap_us: 50.0,
            diurnal_amplitude: 0.4,
            diurnal_period_us: 2_000_000.0,
            start_spread_us: 2_000_000.0,
        }
    }

    /// Number of simulated devices (shards), at least one.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// The device a user's traffic lands on: a seeded hash, independent of
    /// the user's op stream.
    #[must_use]
    pub fn shard_of(&self, fleet_seed: u64, user: u64) -> usize {
        usize::try_from(mix3(fleet_seed, SHARD_SALT, user) % self.devices as u64)
            .expect("shard index fits usize")
    }

    /// Precomputed Zipf CDF over a footprint of `n` pages (rank 0 is the
    /// user's hottest page).
    fn zipf_cdf(&self, n: usize) -> Vec<f64> {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(self.zipf_theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        cdf
    }

    /// One user's complete op sequence — a pure function of
    /// `(fleet_seed, user)` plus the generator parameters. `logical_pages`
    /// is the per-device logical capacity the LPNs must fit (identical for
    /// every device of a homogeneous fleet).
    ///
    /// # Panics
    ///
    /// Panics if `logical_pages` is zero.
    #[must_use]
    pub fn user_ops(&self, fleet_seed: u64, user: u64, logical_pages: u64) -> Vec<UserOp> {
        let cdf = self.zipf_cdf(self.footprint(logical_pages));
        let mut out = Vec::new();
        self.push_user_ops(fleet_seed, user, logical_pages, &cdf, &mut Vec::new(), &mut out);
        out
    }

    /// Footprint size clamped to the logical space.
    fn footprint(&self, logical_pages: u64) -> usize {
        assert!(logical_pages > 0, "device exports no logical pages");
        usize::try_from(self.footprint_pages.clamp(1, logical_pages)).expect("footprint fits usize")
    }

    /// Appends [`FleetWorkload::user_ops`] to `out` with the Zipf CDF
    /// hoisted out and `written` (the footprint pages written so far)
    /// reused, so a device-stream build pays the `O(footprint)` table once
    /// and allocates nothing per user.
    fn push_user_ops(
        &self,
        fleet_seed: u64,
        user: u64,
        logical_pages: u64,
        cdf: &[f64],
        written: &mut Vec<bool>,
        out: &mut Vec<UserOp>,
    ) {
        // Static traits draw from their own stream so changing, say, the
        // op-count distribution never perturbs QoS assignment.
        let mut traits_rng = mix3(fleet_seed, TRAIT_SALT, user);
        let tenant = match splitmix64(&mut traits_rng) % 10 {
            0..=1 => 0, // 20% latency-critical
            2..=6 => 1, // 50% standard
            _ => 2,     // 30% background
        };
        let base = splitmix64(&mut traits_rng) % logical_pages;
        // Pareto(α = 1.5, xm = mean/3) has mean `3·xm = mean`; capped at
        // 64× the mean so one whale cannot absorb a whole device's run.
        let u = unit(&mut traits_rng).max(1e-12);
        let count_mean = self.mean_ops_per_user.max(1.0);
        let count =
            ((count_mean / 3.0) * u.powf(-1.0 / 1.5)).min(count_mean * 64.0).ceil().max(1.0) as u32;
        let start = unit(&mut traits_rng) * self.start_spread_us;

        let mut rng = mix3(fleet_seed, STREAM_SALT, user);
        written.clear();
        written.resize(cdf.len(), false);
        let mut wrote_any = false;
        out.reserve(count as usize);
        let mut t = start;
        let mut burst_left = 0u32;
        for seq in 0..count {
            let zipf_draw = unit(&mut rng);
            let rank = cdf.partition_point(|&c| c < zipf_draw).min(cdf.len() - 1);
            let lpn = (base + rank as u64) % logical_pages;
            // Reads only touch pages this user already wrote — a cold
            // footprint page is written first.
            let wants_read = wrote_any && unit(&mut rng) < self.read_fraction;
            let op = if wants_read && written[rank] {
                IoOp::Read
            } else {
                written[rank] = true;
                wrote_any = true;
                IoOp::Write
            };
            out.push(UserOp { user, seq, arrival_us: t, tenant, request: IoRequest { op, lpn } });
            // Advance the clock: burst trains use the tight gap, and the
            // exponential draw is rescaled by the diurnal intensity at the
            // current instant (time-rescaled inhomogeneous Poisson).
            let gap_mean = if burst_left > 0 {
                burst_left -= 1;
                self.burst_gap_us
            } else if unit(&mut rng) < self.burst_prob {
                burst_left = self.burst_len;
                self.burst_gap_us
            } else {
                self.mean_gap_us
            };
            let phase = (t / self.diurnal_period_us) * std::f64::consts::TAU;
            let intensity = (1.0 + self.diurnal_amplitude * phase.sin()).max(1e-3);
            t += -gap_mean * (1.0 - unit(&mut rng)).ln().min(0.0) / intensity;
        }
    }

    /// Every op of the users sharded to `device`, sorted by
    /// `(arrival, user, seq)` — the canonical per-device stream. The sort
    /// key is total and unique (arrival ties break by user, and a user's
    /// sequence numbers differ), so an unstable sort yields the one order
    /// and the stream is a pure function of `(fleet_seed, device)`.
    #[must_use]
    pub fn shard_ops(&self, fleet_seed: u64, device: usize, logical_pages: u64) -> Vec<UserOp> {
        let cdf = self.zipf_cdf(self.footprint(logical_pages));
        let (mut written, mut out) = (Vec::new(), Vec::new());
        for user in 0..self.users {
            if self.shard_of(fleet_seed, user) == device {
                self.push_user_ops(fleet_seed, user, logical_pages, &cdf, &mut written, &mut out);
            }
        }
        out.sort_unstable_by(|a, b| {
            let by_arrival = a.arrival_us.total_cmp(&b.arrival_us);
            by_arrival.then_with(|| a.user.cmp(&b.user)).then_with(|| a.seq.cmp(&b.seq))
        });
        out
    }

    /// The per-device stream in the host frontend's traced-submission
    /// shape: `(arrival_us, TracedRequest)` with the tenant index carrying
    /// the user's QoS class.
    #[must_use]
    pub fn device_stream(
        &self,
        fleet_seed: u64,
        device: usize,
        logical_pages: u64,
    ) -> Vec<(f64, TracedRequest)> {
        self.shard_ops(fleet_seed, device, logical_pages)
            .into_iter()
            .map(|op| (op.arrival_us, TracedRequest { tenant: op.tenant, request: op.request }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_ops_are_reproducible_and_device_independent() {
        let a = FleetWorkload::new(100, 4);
        let mut b = FleetWorkload::new(100, 7);
        b.devices = 7; // only the shard count differs
        for user in [0u64, 1, 57, 99] {
            let x = a.user_ops(42, user, 4096);
            let y = a.user_ops(42, user, 4096);
            let z = b.user_ops(42, user, 4096);
            assert_eq!(x, y, "user {user}: repeat generation drifted");
            assert_eq!(x, z, "user {user}: stream depends on device count");
            assert!(!x.is_empty());
            // Arrivals are strictly ordered within a user.
            for w in x.windows(2) {
                assert!(w[0].arrival_us <= w[1].arrival_us);
                assert_eq!(w[0].tenant, w[1].tenant, "QoS class is a static trait");
            }
            // First op must be a write (nothing readable yet).
            assert_eq!(x[0].request.op, IoOp::Write);
        }
    }

    #[test]
    #[should_panic(expected = "fleet needs at least one device")]
    fn zero_device_fleet_is_rejected_at_construction() {
        let _ = FleetWorkload::new(10, 0);
    }

    #[test]
    fn shards_cover_all_users_and_balance_roughly() {
        let w = FleetWorkload::new(10_000, 8);
        let mut counts = [0u64; 8];
        for user in 0..w.users {
            counts[w.shard_of(9, user)] += 1;
        }
        assert_eq!(counts.iter().sum::<u64>(), 10_000);
        for (d, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 1250.0).abs() < 300.0,
                "device {d} got {c} users; hash is badly skewed"
            );
        }
    }

    #[test]
    fn device_stream_is_sorted_and_reproducible() {
        let w = FleetWorkload::new(300, 3);
        for device in 0..3 {
            let s1 = w.device_stream(5, device, 2048);
            let s2 = w.device_stream(5, device, 2048);
            assert_eq!(s1, s2, "device {device}: stream not reproducible");
            for pair in s1.windows(2) {
                assert!(pair[0].0 <= pair[1].0, "device {device}: arrivals unsorted");
            }
        }
        let total: usize = (0..3).map(|d| w.shard_ops(5, d, 2048).len()).sum();
        let direct: usize = (0..300).map(|u| w.user_ops(5, u, 2048).len()).sum();
        assert_eq!(total, direct, "sharding must not create or drop ops");
    }

    #[test]
    fn heavy_tail_produces_whales_but_respects_the_cap() {
        let w = FleetWorkload::new(2_000, 2);
        let counts: Vec<usize> = (0..w.users).map(|u| w.user_ops(3, u, 4096).len()).collect();
        let max = *counts.iter().max().unwrap();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!(max as f64 > mean * 5.0, "tail too light: max {max}, mean {mean:.1}");
        assert!(max as f64 <= w.mean_ops_per_user * 64.0 + 1.0, "whale cap violated: {max}");
    }
}
