//! Synthetic workload generators.

use crate::device::GeometryInfo;
use crate::request::IoRequest;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A synthetic host workload.
///
/// ```
/// use ftl::{FtlConfig, Ssd, Workload};
///
/// # fn main() -> ftl::Result<()> {
/// let mut ssd = Ssd::new(FtlConfig::small_test(), 1)?;
/// let requests = Workload::hot_cold_80_20().generate(&ssd.geometry_info(), 1_000, 7);
/// ssd.run(&requests)?;
/// assert_eq!(ssd.stats().host_writes, 1_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub enum Workload {
    /// Sequential writes wrapping around the logical space.
    SequentialWrite,
    /// Uniform random writes over `span` of the logical space (0..1], with
    /// optional interleaved reads.
    RandomWrite {
        /// Fraction of the logical space touched.
        span: f64,
        /// Fraction of requests that are reads of previously written pages.
        read_fraction: f64,
    },
    /// Skewed writes: `hot_fraction` of the span receives
    /// `hot_access_fraction` of the accesses (e.g. 0.2/0.8).
    HotCold {
        /// Fraction of pages that are hot.
        hot_fraction: f64,
        /// Fraction of accesses hitting the hot set.
        hot_access_fraction: f64,
        /// Fraction of the logical space touched.
        span: f64,
    },
}

impl Workload {
    /// Uniform random writes over a fraction of the logical space.
    #[must_use]
    pub fn random_write(span: f64) -> Self {
        Workload::RandomWrite { span, read_fraction: 0.0 }
    }

    /// The classic 80/20 hot/cold writer over half the space.
    #[must_use]
    pub fn hot_cold_80_20() -> Self {
        Workload::HotCold { hot_fraction: 0.2, hot_access_fraction: 0.8, span: 0.5 }
    }

    /// Generates `count` requests for a device of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the device exports no logical pages.
    #[must_use]
    pub fn generate(&self, info: &GeometryInfo, count: usize, seed: u64) -> Vec<IoRequest> {
        let capacity = info.logical_pages;
        assert!(capacity > 0, "device exports no logical pages");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(count);
        match *self {
            Workload::SequentialWrite => {
                for i in 0..count {
                    out.push(IoRequest::write(i as u64 % capacity));
                }
            }
            Workload::RandomWrite { span, read_fraction } => {
                let span_pages = span_pages(capacity, span);
                let mut written: Vec<u64> = Vec::new();
                for _ in 0..count {
                    if !written.is_empty() && rng.random_range(0.0..1.0) < read_fraction {
                        let idx = rng.random_range(0..written.len());
                        out.push(IoRequest::read(written[idx]));
                    } else {
                        let lpn = rng.random_range(0..span_pages);
                        if written.len() < 65_536 {
                            written.push(lpn);
                        }
                        out.push(IoRequest::write(lpn));
                    }
                }
            }
            Workload::HotCold { hot_fraction, hot_access_fraction, span } => {
                let span_pages = span_pages(capacity, span);
                let hot_pages = ((span_pages as f64 * hot_fraction) as u64).max(1);
                for _ in 0..count {
                    let lpn = if rng.random_range(0.0..1.0) < hot_access_fraction {
                        rng.random_range(0..hot_pages)
                    } else {
                        hot_pages + rng.random_range(0..(span_pages - hot_pages).max(1))
                    };
                    out.push(IoRequest::write(lpn.min(capacity - 1)));
                }
            }
        }
        out
    }
}

/// Attaches Poisson arrival times (exponential inter-arrivals with the
/// given mean, µs) to a request stream for [`Ssd::run_timed`].
///
/// [`Ssd::run_timed`]: crate::Ssd::run_timed
#[must_use]
pub fn poisson_arrivals(
    requests: &[IoRequest],
    mean_interarrival_us: f64,
    seed: u64,
) -> Vec<(f64, IoRequest)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0.0f64;
    requests
        .iter()
        .map(|&r| {
            let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            now += -mean_interarrival_us * u.ln();
            (now, r)
        })
        .collect()
}

/// Observed mean inter-arrival time of a timed request stream, in µs.
///
/// Returns `None` for an empty stream: an empty workload has no arrival
/// spacing, and callers that divided by `timed.last().unwrap()` panicked
/// on it.
#[must_use]
pub fn mean_interarrival_us(timed: &[(f64, IoRequest)]) -> Option<f64> {
    let (last_arrival, _) = timed.last()?;
    Some(last_arrival / timed.len() as f64)
}

fn span_pages(capacity: u64, span: f64) -> u64 {
    ((capacity as f64 * span.clamp(0.0, 1.0)) as u64).clamp(1, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoOp;

    fn info(pages: u64) -> GeometryInfo {
        GeometryInfo { logical_pages: pages, physical_pages: pages * 2, pages_per_superblock: 48 }
    }

    #[test]
    fn sequential_wraps_around() {
        let reqs = Workload::SequentialWrite.generate(&info(4), 6, 0);
        let lpns: Vec<u64> = reqs.iter().map(|r| r.lpn).collect();
        assert_eq!(lpns, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn random_write_stays_in_span() {
        let reqs = Workload::random_write(0.5).generate(&info(100), 1000, 1);
        assert!(reqs.iter().all(|r| r.lpn < 50));
        assert!(reqs.iter().all(|r| r.op == IoOp::Write));
    }

    #[test]
    fn read_fraction_mixes_reads() {
        let w = Workload::RandomWrite { span: 1.0, read_fraction: 0.5 };
        let reqs = w.generate(&info(100), 2000, 2);
        let reads = reqs.iter().filter(|r| r.op == IoOp::Read).count();
        assert!((800..1200).contains(&reads), "{reads} reads");
    }

    #[test]
    fn hot_cold_skews_towards_hot_set() {
        let w = Workload::HotCold { hot_fraction: 0.2, hot_access_fraction: 0.8, span: 1.0 };
        let reqs = w.generate(&info(1000), 5000, 3);
        let hot = reqs.iter().filter(|r| r.lpn < 200).count();
        assert!(hot as f64 > 0.7 * 5000.0, "{hot} hot hits");
    }

    #[test]
    fn poisson_arrivals_are_monotone_with_right_mean() {
        let reqs: Vec<IoRequest> = (0..5000).map(IoRequest::write).collect();
        let timed = poisson_arrivals(&reqs, 100.0, 3);
        assert!(timed.windows(2).all(|w| w[0].0 <= w[1].0));
        let mean = mean_interarrival_us(&timed).unwrap();
        assert!((mean - 100.0).abs() < 10.0, "mean interarrival {mean}");
    }

    #[test]
    fn empty_workload_yields_no_arrivals_and_no_mean() {
        // Regression: the mean used to be computed as
        // `timed.last().unwrap().0 / n`, which panics on an empty stream.
        let timed = poisson_arrivals(&[], 100.0, 3);
        assert!(timed.is_empty());
        assert_eq!(mean_interarrival_us(&timed), None);
        assert!(mean_interarrival_us(&poisson_arrivals(&[IoRequest::write(0)], 50.0, 1)).is_some());
    }

    #[test]
    fn generation_is_deterministic() {
        let w = Workload::random_write(1.0);
        assert_eq!(w.generate(&info(50), 100, 9), w.generate(&info(50), 100, 9));
    }
}
