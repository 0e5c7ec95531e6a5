//! Host-time spans recorded from the benchmark's side of each public call.
//!
//! Every rep records coarse spans — name, start, end, parent — around its
//! calls into the layers; the end-to-end host metrics (`setup_s`,
//! `ops_per_s`) are read from them in every run. Per-step instrumentation
//! (one `Instant` pair per simulated command) is the expensive part and
//! runs only in traced reps: steps are aggregated into per-class totals
//! and a log-bucketed host-time histogram, never one span each.

use crate::json::{obj, Json};
use std::time::Instant;

/// One timed interval, in seconds since the rep started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `ftl.flush`.
    pub name: &'static str,
    /// Start, s.
    pub start_s: f64,
    /// End, s.
    pub end_s: f64,
    /// Index of the enclosing span in the rep's span list.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration, s.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Log-linear buckets: eight per power of two, so a reported quantile is
/// within about 9% of the true value while memory stays at a few KiB
/// however many steps a rep takes.
const SUB_BUCKETS: u32 = 8;
const BUCKETS: usize = 64 * SUB_BUCKETS as usize;

/// Host-time histogram of nanosecond durations.
#[derive(Debug, Clone)]
pub struct NsHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for NsHistogram {
    fn default() -> Self {
        NsHistogram { counts: vec![0; BUCKETS], total: 0 }
    }
}

impl NsHistogram {
    fn bucket(ns: u64) -> usize {
        if ns < u64::from(SUB_BUCKETS) {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros(); // floor(log2 ns) >= 3
        let sub = (ns >> (exp - 3)) & u64::from(SUB_BUCKETS - 1);
        (exp * SUB_BUCKETS + sub as u32) as usize - 16
    }

    /// Lower edge of a bucket, ns.
    fn floor_ns(bucket: usize) -> f64 {
        if bucket < SUB_BUCKETS as usize {
            return bucket as f64;
        }
        let b = bucket + 16;
        let exp = b / SUB_BUCKETS as usize;
        let sub = b % SUB_BUCKETS as usize;
        ((SUB_BUCKETS as usize + sub) << (exp - 3)) as f64
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Nearest-rank quantile, reported as the lower edge of the bucket
    /// holding that rank; `None` without ten samples beyond it.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        let n = usize::try_from(self.total).expect("step count fits usize");
        let idx = crate::stats::rank(n, q)? as u64;
        let mut seen = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > idx {
                return Some(Self::floor_ns(bucket));
            }
        }
        None
    }

    /// Non-empty buckets as `[lower_edge_ns, count]` pairs.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(b, &c)| Json::Arr(vec![Self::floor_ns(b).into(), c.into()]))
                .collect(),
        )
    }
}

/// Aggregate of the per-command calls of one class (e.g. write steps).
#[derive(Debug, Clone, Default)]
pub struct StepClass {
    /// Calls made.
    pub count: u64,
    /// Host seconds inside those calls.
    pub total_s: f64,
}

/// Classes of per-command calls a traced rep aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A write step that did no collection work.
    Write,
    /// A read step that did no collection work.
    Read,
    /// A step that ran garbage collection (foreground or in its idle gap).
    Gc,
}

impl Step {
    const ALL: [Step; 3] = [Step::Write, Step::Read, Step::Gc];

    fn label(self) -> &'static str {
        match self {
            Step::Write => "write",
            Step::Read => "read",
            Step::Gc => "gc",
        }
    }
}

/// Span and step recorder for one rep.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    steps: Option<([StepClass; 3], NsHistogram)>,
}

impl Tracer {
    /// A recorder whose clock starts now; `per_step` turns on per-command
    /// instrumentation.
    #[must_use]
    pub fn new(per_step: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            steps: per_step.then(Default::default),
        }
    }

    /// Whether per-command instrumentation is on.
    #[must_use]
    pub fn per_step(&self) -> bool {
        self.steps.is_some()
    }

    /// Seconds since the rep started.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_s = self.now_s();
        self.spans.push(Span { name, start_s, end_s: start_s, parent });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.now_s();
        out
    }

    /// Adds spans recorded elsewhere (a worker thread sharing this rep's
    /// clock) under the innermost open span.
    pub fn adopt(&mut self, spans: impl IntoIterator<Item = (&'static str, f64, f64)>) {
        let parent = self.open.last().copied();
        for (name, start_s, end_s) in spans {
            self.spans.push(Span { name, start_s, end_s, parent });
        }
    }

    /// The instant this rep's clock started, for worker threads that
    /// record their own spans.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records one per-command call of `class` that took `ns`.
    ///
    /// # Panics
    ///
    /// Panics if per-step instrumentation is off (a harness bug).
    pub fn step(&mut self, class: Step, ns: u64) {
        let (classes, hist) = self.steps.as_mut().expect("step() needs a per-step tracer");
        let c = &mut classes[class as usize];
        c.count += 1;
        c.total_s += ns as f64 * 1e-9;
        hist.record(ns);
    }

    /// Aggregate of one step class (zero when per-step tracing is off).
    #[must_use]
    pub fn class(&self, class: Step) -> StepClass {
        self.steps.as_ref().map(|(c, _)| c[class as usize].clone()).unwrap_or_default()
    }

    /// Host-time histogram over every step.
    #[must_use]
    pub fn step_histogram(&self) -> Option<&NsHistogram> {
        self.steps.as_ref().map(|(_, h)| h)
    }

    /// Summed seconds of every span named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
    }

    /// Longest span named `name`, s.
    #[must_use]
    pub fn max(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).fold(0.0, f64::max)
    }

    /// Share of `wall_s` covered by timed calls: every top-level span plus
    /// the aggregated per-command calls (which run between spans, not
    /// inside one).
    #[must_use]
    pub fn coverage(&self, wall_s: f64) -> f64 {
        let roots: f64 = self.spans.iter().filter(|s| s.parent.is_none()).map(Span::secs).sum();
        let steps: f64 = Step::ALL.iter().map(|&c| self.class(c).total_s).sum();
        (roots + steps) / wall_s
    }

    /// Spans and step aggregates as JSON for the trace file.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", s.name.into()),
                    ("start_s", s.start_s.into()),
                    ("end_s", s.end_s.into()),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                ])
            })
            .collect();
        let steps = match &self.steps {
            None => Json::Null,
            Some((classes, hist)) => obj(Step::ALL
                .iter()
                .map(|&c| {
                    let a = &classes[c as usize];
                    (c.label(), obj([("count", a.count.into()), ("total_s", a.total_s.into())]))
                })
                .chain([("histogram_ns", hist.to_json())])),
        };
        obj([("spans", Json::Arr(spans)), ("steps", steps)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in 0..100_000u64 {
            let b = NsHistogram::bucket(ns);
            assert!(b >= last, "bucket order broke at {ns}");
            last = b;
            let floor = NsHistogram::floor_ns(b);
            assert!(floor <= ns as f64, "{ns} below its bucket floor {floor}");
            assert!(ns as f64 - floor <= ns as f64 / 8.0 + 1.0, "bucket of {ns} too wide");
        }
        assert!(NsHistogram::bucket(u64::MAX) < BUCKETS);
    }

    #[test]
    fn histogram_quantiles_follow_the_sample_rule() {
        let mut h = NsHistogram::default();
        for ns in 1..=1_000u64 {
            h.record(ns * 100);
        }
        let p50 = h.quantile_ns(0.5).unwrap();
        assert!((p50 - 50_000.0).abs() <= 50_000.0 / 8.0, "p50 {p50}");
        assert_eq!(h.quantile_ns(0.999), None, "only 1 sample beyond p999");
    }

    #[test]
    fn spans_nest_and_cover() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| tr.span("inner", |_| ()));
        tr.step(Step::Write, 1_000);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.total("outer") >= tr.total("inner"));
        assert_eq!(tr.class(Step::Write).count, 1);
        // The root span plus the one microsecond step.
        let wall = tr.now_s();
        let expect = (tr.total("outer") + 1e-6) / wall;
        assert!((tr.coverage(wall) - expect).abs() < 1e-9);
    }
}
