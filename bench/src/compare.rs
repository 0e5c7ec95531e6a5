//! `bench compare`: parent runs against change runs, one row per
//! (workload, end-to-end metric), judged by the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::spec::{Better, Spec};
use crate::stats::{median, quartiles, relative_spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Pairs needed before a gain may be claimed.
pub const CLAIM_PAIRS: usize = 10;

/// How one (workload, metric) row compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the parent by more than the bound.
    Ok,
    /// Worse than the parent by more than the bound.
    Regression,
    /// The run-to-run spread is wider than the bound, and the change does
    /// not beat the parent on every run: no conclusion either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn beats(better: Better, a: f64, b: f64) -> bool {
    match better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    }
}

/// How much worse the change's median is than the parent's, as a share of
/// the parent's median (negative when better).
#[must_use]
pub fn worsening(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let (p, c) = (median(parent), median(change));
    let delta = match better {
        Better::Higher => p - c,
        Better::Lower => c - p,
    };
    if delta == 0.0 {
        0.0
    } else {
        delta / p.abs()
    }
}

/// The no-regression rule: a median worse by more than `bound` is a
/// regression, unless either side's spread (IQR over median) is wider than
/// the bound — then the row is unresolved, unless every change run beats
/// every parent run.
#[must_use]
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let spread = relative_spread(parent).max(relative_spread(change));
    if spread > bound {
        let all_better = change.iter().all(|&c| parent.iter().all(|&p| beats(better, c, p)));
        return if all_better { Verdict::Ok } else { Verdict::Unresolved };
    }
    if worsening(parent, change, better) > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// The gain rule, over runs paired in order: with at least
/// [`CLAIM_PAIRS`] pairs, a gain holds when the change wins at least nine
/// tenths of the pairs (ties count for neither) and the medians differ, in
/// the better direction, by more than the parent's interquartile range.
/// `None` with too few pairs to judge.
#[must_use]
pub fn claim(parent: &[f64], change: &[f64], better: Better) -> Option<bool> {
    let pairs = parent.len().min(change.len());
    if pairs < CLAIM_PAIRS {
        return None;
    }
    let wins = parent.iter().zip(change).filter(|&(&p, &c)| beats(better, c, p)).count();
    let (q1, q3) = quartiles(parent)?;
    let gap = match better {
        Better::Higher => median(change) - median(parent),
        Better::Lower => median(parent) - median(change),
    };
    Some(wins * 10 >= pairs * 9 && gap > q3 - q1)
}

/// Every run's value of each metric, keyed by (workload, metric).
type Series = BTreeMap<(String, String), Vec<f64>>;

fn collect(docs: &[Json]) -> Result<Series, String> {
    let mut out = Series::new();
    for doc in docs {
        let workload = doc.get("workload").and_then(Json::as_str).ok_or("no \"workload\" key")?;
        let metrics =
            doc.get("metrics").and_then(Json::as_object).ok_or("no \"metrics\" object")?;
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64).ok_or(format!("{name} has no value"))?;
            out.entry((workload.to_string(), name.clone())).or_default().push(v);
        }
    }
    Ok(out)
}

/// The comparison table, and whether any row regressed.
///
/// # Errors
///
/// Describes a malformed result document.
pub fn report(spec: &Spec, parent: &[Json], change: &[Json]) -> Result<(String, bool), String> {
    let (parent, change) = (collect(parent)?, collect(change)?);
    let mut out = String::new();
    let mut regressed = false;
    writeln!(
        out,
        "{:<20} {:<12} {:>6} {:>14} {:>14} {:>8} {:>8} {:>6}  {:<10} claim",
        "workload", "metric", "unit", "parent", "change", "worse%", "spread%", "bound%", "verdict"
    )
    .expect("String write");
    for ((workload, name), p) in &parent {
        let Some(decl) = spec.end_to_end.iter().find(|d| &d.name == name) else { continue };
        let Some(c) = change.get(&(workload.clone(), name.clone())) else { continue };
        let bound = decl.bound.unwrap_or(0.0);
        let v = verdict(p, c, decl.better, bound);
        regressed |= v == Verdict::Regression;
        let gain = match claim(p, c, decl.better) {
            None => "n/a",
            Some(true) => "gain",
            Some(false) => "none",
        };
        writeln!(
            out,
            "{workload:<20} {name:<12} {:>6} {:>14.6} {:>14.6} {:>8.2} {:>8.2} {:>6.1}  {:<10} {gain}",
            decl.unit,
            median(p),
            median(c),
            worsening(p, c, decl.better) * 100.0,
            relative_spread(p).max(relative_spread(c)) * 100.0,
            bound * 100.0,
            v.label(),
        )
        .expect("String write");
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_rule() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 5% slower throughput against a 10% bound: fine.
        let slower = [95.0, 95.5, 94.5, 95.2, 94.8];
        assert_eq!(verdict(&parent, &slower, Better::Higher, 0.10), Verdict::Ok);
        // 20% slower: a regression.
        let much_slower = [80.0, 80.5, 79.5, 80.2, 79.8];
        assert_eq!(verdict(&parent, &much_slower, Better::Higher, 0.10), Verdict::Regression);
        // The same 20% on a lower-is-better metric is an improvement.
        assert_eq!(verdict(&parent, &much_slower, Better::Lower, 0.10), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        let change = [50.0, 150.0, 90.0, 60.0, 120.0];
        assert_eq!(verdict(&noisy, &change, Better::Higher, 0.10), Verdict::Unresolved);
        // Every change run beats every parent run: accepted despite the spread.
        let dominant = [200.0, 210.0, 205.0, 220.0, 215.0];
        assert_eq!(verdict(&noisy, &dominant, Better::Higher, 0.10), Verdict::Ok);
        // Bit-identical deterministic values under a zero bound.
        assert_eq!(verdict(&[5.0, 5.0], &[5.0, 5.0], Better::Lower, 0.0), Verdict::Ok);
        assert_eq!(verdict(&[5.0, 5.0], &[5.1, 5.1], Better::Lower, 0.0), Verdict::Regression);
    }

    #[test]
    fn claim_rule_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        assert_eq!(claim(&parent[..9], &parent[..9], Better::Higher), None, "too few pairs");
        // Every pair wins by 20: the gap (20) exceeds the parent IQR (5.5).
        let better: Vec<f64> = parent.iter().map(|p| p + 20.0).collect();
        assert_eq!(claim(&parent, &better, Better::Higher), Some(true));
        // Every pair wins, but by 1: inside the parent's own spread.
        let barely: Vec<f64> = parent.iter().map(|p| p + 1.0).collect();
        assert_eq!(claim(&parent, &barely, Better::Higher), Some(false));
        // A large gap but two lost pairs: 8/10 wins is not enough.
        let mut mixed = better.clone();
        mixed[0] = 0.0;
        mixed[1] = 0.0;
        assert_eq!(claim(&parent, &mixed, Better::Higher), Some(false));
        // Ties count for neither side.
        let mut tied = better;
        tied[3] = parent[3];
        assert_eq!(claim(&parent, &tied, Better::Higher), Some(true), "9 wins + 1 tie");
        tied[4] = parent[4];
        assert_eq!(claim(&parent, &tied, Better::Higher), Some(false), "8 wins + 2 ties");
    }
}
