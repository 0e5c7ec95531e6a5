//! Order statistics shared by the workloads and `bench compare`.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` among `n` sorted samples —
/// `round((n - 1) * q)`, the rule `ftl::LatencyHistogram::quantile_us` uses
/// — or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it, so a
/// tail percentile is never reported from a population too small to have
/// one.
#[must_use]
pub fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let idx = ((n - 1) as f64 * q).round() as usize;
    (n - 1 - idx >= MIN_BEYOND).then_some(idx)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for an even count); NaN when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so spreads printed here match
/// the acceptance arithmetic exactly. `None` below two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark's bounds are set against. Zero below two values (no
/// spread is measurable).
#[must_use]
pub fn relative_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => {
            let m = median(values).abs();
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1) / m
            }
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_needs_ten_samples_beyond() {
        // p999 of 9,502 samples: index round(9501 * 0.999) = 9491, leaving
        // exactly 10 beyond it; one sample fewer leaves 9.
        assert_eq!(rank(9_502, 0.999), Some(9_491));
        assert_eq!(rank(9_501, 0.999), None);
        assert_eq!(rank(10_000, 0.999), Some(9_989));
        assert_eq!(rank(21, 0.5), Some(10));
        assert_eq!(rank(20, 0.5), None, "round(9.5) = 10 leaves 9 beyond");
        assert_eq!(rank(0, 0.5), None);
        assert_eq!(rank(100, 1.0), None, "the maximum has nothing beyond it");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[7.0]), 0.0);
    }
}
