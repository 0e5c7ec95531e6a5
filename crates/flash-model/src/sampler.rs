//! Deterministic, stateless random sampling keyed by address tuples.
//!
//! Process variation is a *trait* of silicon: the same block measured twice
//! shows the same deviation. We therefore derive every random quantity by
//! hashing a `(seed, domain-tag, indices...)` tuple with splitmix64 instead
//! of drawing from a stateful RNG. This makes latency a pure function of the
//! address and lets the model skip materializing multi-gigabyte tables.

/// Stateless sampler: all draws are pure functions of `(seed, tags)`.
///
/// ```
/// use flash_model::Sampler;
///
/// let s = Sampler::new(42);
/// // Same tags, same draw — process variation is a trait, not a dice roll.
/// assert_eq!(s.normal(&[1, 2, 3]), s.normal(&[1, 2, 3]));
/// assert_ne!(s.normal(&[1, 2, 3]), s.normal(&[1, 2, 4]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sampler {
    seed: u64,
}

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Sampler {
    /// Creates a sampler for the given master seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Sampler { seed }
    }

    /// The master seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A derived sampler whose draws are independent of this one's.
    #[must_use]
    pub fn derive(&self, tag: u64) -> Sampler {
        Sampler { seed: splitmix64(self.seed ^ splitmix64(tag)) }
    }

    /// Uniform `u64` keyed by the tag tuple.
    #[must_use]
    pub fn hash(&self, tags: &[u64]) -> u64 {
        self.prefix(tags).acc
    }

    /// The hash state after absorbing `tags`: continuing it with
    /// [`TagPrefix::then`] gives the state of the concatenated tag list, so
    /// draws that share leading tags hash those tags once.
    #[must_use]
    pub(crate) fn prefix(&self, tags: &[u64]) -> TagPrefix {
        TagPrefix { acc: splitmix64(self.seed) }.then(tags)
    }

    /// Uniform draw in `[0, 1)`.
    #[must_use]
    pub fn uniform(&self, tags: &[u64]) -> f64 {
        // 53 high bits -> [0,1) double.
        (self.hash(tags) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal draw (Box-Muller over two decorrelated uniforms).
    #[must_use]
    pub fn normal(&self, tags: &[u64]) -> f64 {
        self.prefix(tags).normal()
    }

    /// Exponential draw with the given mean.
    #[must_use]
    pub fn exponential(&self, mean: f64, tags: &[u64]) -> f64 {
        let u = 1.0 - self.uniform(tags); // (0, 1]
        -mean * u.ln()
    }

    /// Uniform choice of an index in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn choice(&self, n: usize, tags: &[u64]) -> usize {
        assert!(n > 0, "cannot choose from an empty range");
        // Multiply-shift keeps the bias negligible for the small n used here.
        ((u128::from(self.hash(tags)) * n as u128) >> 64) as usize
    }

    /// Bernoulli draw with probability `p`.
    #[must_use]
    pub fn bernoulli(&self, p: f64, tags: &[u64]) -> bool {
        self.uniform(tags) < p
    }
}

/// A [`Sampler`]'s hash state partway through a tag list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TagPrefix {
    acc: u64,
}

impl TagPrefix {
    /// The state after also absorbing `tags`, one splitmix round pair per
    /// tag.
    #[must_use]
    pub(crate) fn then(self, tags: &[u64]) -> TagPrefix {
        let mut acc = self.acc;
        for &t in tags {
            acc = splitmix64(acc ^ splitmix64(t.wrapping_add(0xa076_1d64_78bd_642f)));
        }
        TagPrefix { acc }
    }

    /// [`Sampler::normal`] of the tags absorbed so far.
    #[must_use]
    pub(crate) fn normal(self) -> f64 {
        let h = self.acc;
        let u1 = ((h >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
        let h2 = splitmix64(h ^ 0xd6e8_feb8_6659_fd93);
        let u2 = (h2 >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_for_same_tags() {
        let s = Sampler::new(42);
        assert_eq!(s.hash(&[1, 2, 3]), s.hash(&[1, 2, 3]));
        assert_eq!(s.uniform(&[9]), s.uniform(&[9]));
        assert_eq!(s.normal(&[9, 9]), s.normal(&[9, 9]));
    }

    #[test]
    fn different_tags_give_different_draws() {
        let s = Sampler::new(42);
        assert_ne!(s.hash(&[1, 2, 3]), s.hash(&[1, 2, 4]));
        assert_ne!(s.hash(&[1, 2, 3]), s.hash(&[1, 3, 2]), "order matters");
        assert_ne!(s.hash(&[0]), s.hash(&[0, 0]), "length matters");
    }

    #[test]
    fn different_seeds_give_different_draws() {
        assert_ne!(Sampler::new(1).hash(&[5]), Sampler::new(2).hash(&[5]));
    }

    #[test]
    fn derive_decorrelates() {
        let s = Sampler::new(7);
        let a = s.derive(1);
        let b = s.derive(2);
        assert_ne!(a.hash(&[0]), b.hash(&[0]));
        assert_ne!(a.hash(&[0]), s.hash(&[0]));
    }

    #[test]
    fn uniform_in_unit_interval() {
        let s = Sampler::new(3);
        for i in 0..10_000u64 {
            let u = s.uniform(&[i]);
            assert!((0.0..1.0).contains(&u), "{u} out of [0,1)");
        }
    }

    #[test]
    fn uniform_mean_is_about_half() {
        let s = Sampler::new(11);
        let n = 20_000u64;
        let mean: f64 = (0..n).map(|i| s.uniform(&[i])).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments_are_standard() {
        let s = Sampler::new(5);
        let n = 40_000u64;
        let draws: Vec<f64> = (0..n).map(|i| s.normal(&[i])).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean_matches() {
        let s = Sampler::new(6);
        let n = 40_000u64;
        let mean: f64 = (0..n).map(|i| s.exponential(3.0, &[i])).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn choice_covers_range_roughly_evenly() {
        let s = Sampler::new(8);
        let mut counts = [0usize; 5];
        for i in 0..50_000u64 {
            counts[s.choice(5, &[i])] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn bernoulli_rate_matches_p() {
        let s = Sampler::new(9);
        let hits = (0..50_000u64).filter(|&i| s.bernoulli(0.2, &[i])).count();
        assert!((hits as f64 / 50_000.0 - 0.2).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn choice_of_zero_panics() {
        let _ = Sampler::new(1).choice(0, &[0]);
    }

    /// The hash and Box-Muller steps [`TagPrefix`] replaced, kept as the
    /// reference for the prefix-continued draws.
    fn reference_normal(seed: u64, tags: &[u64]) -> f64 {
        let mut h = splitmix64(seed);
        for &t in tags {
            h = splitmix64(h ^ splitmix64(t.wrapping_add(0xa076_1d64_78bd_642f)));
        }
        let u1 = ((h >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
        let h2 = splitmix64(h ^ 0xd6e8_feb8_6659_fd93);
        let u2 = (h2 >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    proptest! {
        #[test]
        fn prefix_continued_normal_equals_normal_on_the_full_tag_list(
            seed in any::<u64>(),
            tags in proptest::collection::vec(any::<u64>(), 0..8),
            split in 0usize..8,
        ) {
            let s = Sampler::new(seed);
            let (head, tail) = tags.split_at(split.min(tags.len()));
            let continued = s.prefix(head).then(tail);
            prop_assert_eq!(continued, s.prefix(&tags));
            prop_assert_eq!(continued.normal().to_bits(), s.normal(&tags).to_bits());
            prop_assert_eq!(s.normal(&tags).to_bits(), reference_normal(seed, &tags).to_bits());
        }
    }
}
