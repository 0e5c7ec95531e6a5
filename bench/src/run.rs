//! The rep loop shared by every workload, and the result it reports.
//!
//! A run repeats fresh-system reps until `--seconds` is spent (at least
//! [`MIN_REPS`] after an untimed warm-up), reports host metrics as medians
//! over reps, and requires every simulated metric to be bit-identical
//! across reps. A traced run
//! interleaves untraced and per-step-traced reps, so tracing overhead is
//! measured on the same process and the per-layer numbers come from the
//! traced reps alone.

use crate::json::{obj, Json};
use crate::spec::{spec, MetricDecl};
use crate::stats::median;
use crate::trace::Tracer;
use std::time::Instant;

/// Fewest timed reps a full run takes (of each kind, in a traced run).
pub const MIN_REPS: usize = 3;

/// Fewest set-ups `setup_s` is the median of; cheap set-ups are repeated
/// beyond the reps' own to reach it.
pub const MIN_SETUPS: usize = 11;

/// Seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Host seconds the run measures for.
    pub seconds: f64,
    /// Interleave per-step-traced reps and report per-layer metrics.
    pub trace: bool,
    /// Toy sizes and one timed rep: a smoke pass of every output check.
    pub quick: bool,
}

/// Output checks of one rep: every check counts what it attempted and
/// what failed, and a failure carries a description.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations and verifications attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Checks {
    /// Records a check over `attempted` items of which `failed` failed.
    pub fn count(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems.push(format!("{what}: {failed} of {attempted} failed"));
        }
    }

    /// Records a single yes/no check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// What one rep measured.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds spent building the system under test.
    pub setup_s: f64,
    /// Host seconds inside the simulator's calls that do the workload.
    pub measured_s: f64,
    /// Work units completed: simulated commands, or blocks processed.
    pub ops: u64,
    /// Simulated end-to-end metrics; must repeat bit for bit across reps.
    pub sim: Vec<(&'static str, f64)>,
    /// Per-layer values (host times, counts, simulated statistics).
    pub layers: Vec<(&'static str, f64)>,
    /// Output checks.
    pub checks: Checks,
    /// Host seconds from the rep's first call to its last check.
    pub wall_s: f64,
    /// Share of `wall_s` inside timed calls.
    pub coverage: f64,
    /// Spans and step aggregates (traced reps only).
    pub trace: Option<Json>,
}

impl Rep {
    /// Closes a rep: stamps wall time and coverage from its tracer.
    #[must_use]
    pub fn finish(tr: &Tracer, setup_s: f64, measured_s: f64, ops: u64) -> Rep {
        let wall_s = tr.now_s();
        Rep {
            setup_s,
            measured_s,
            ops,
            sim: Vec::new(),
            layers: Vec::new(),
            checks: Checks::default(),
            wall_s,
            coverage: tr.coverage(wall_s),
            trace: tr.per_step().then(|| tr.to_json()),
        }
    }

    fn raw(&self, kind: &str) -> Json {
        let pairs = |v: &[(&'static str, f64)]| obj(v.iter().map(|&(k, x)| (k, Json::from(x))));
        obj([
            ("kind", kind.into()),
            ("setup_s", self.setup_s.into()),
            ("measured_s", self.measured_s.into()),
            ("ops", self.ops.into()),
            ("wall_s", self.wall_s.into()),
            ("sim", pairs(&self.sim)),
            ("layers", pairs(&self.layers)),
            ("attempted", self.checks.attempted.into()),
            ("failed", self.checks.failed.into()),
        ])
    }
}

/// One benchmark workload: a fresh system per rep, driven only through
/// the layers' public APIs.
pub trait Workload {
    /// Runs one rep on a fresh system; per-step tracing follows `tr`.
    fn rep(&mut self, tr: &mut Tracer) -> Rep;

    /// Builds one fresh system the way [`Workload::rep`] does and returns
    /// the seconds that took.
    fn setup_s(&self) -> f64;

    /// Per-layer values that need the whole traced run (e.g. a reference
    /// leg), computed once after the reps.
    fn finish_traced(
        &mut self,
        _untraced: &[Rep],
        _traced: &[Rep],
        _checks: &mut Checks,
    ) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Checks attempted across all reps.
    pub attempted: u64,
    /// Checks failed across all reps.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// End-to-end metrics (from untraced reps).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Raw per-rep values: the warm-up, then untraced, then traced reps.
    pub reps: Vec<Json>,
    /// Every set-up time `setup_s` is the median of, s.
    pub setup_samples: Vec<f64>,
    /// Spans of every traced rep.
    pub trace: Vec<Json>,
}

/// Peak resident set of this process, MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn medians(
    reps: &[Rep],
    pick: impl Fn(&Rep) -> &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    let Some(first) = reps.first() else { return Vec::new() };
    pick(first)
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = reps
                .iter()
                .filter_map(|r| pick(r).iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                .collect();
            (name, median(&values))
        })
        .collect()
}

/// Runs `w` under `opts`.
pub fn run(w: &mut dyn Workload, opts: &Options) -> Outcome {
    let start = Instant::now();
    let min_reps = if opts.quick { 1 } else { MIN_REPS };
    // The process's first rep pays one-off costs later reps do not (page
    // faults, allocator growth): it is checked but not timed.
    let warmup = w.rep(&mut Tracer::new(false));
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    loop {
        untraced.push(w.rep(&mut Tracer::new(false)));
        if opts.trace {
            traced.push(w.rep(&mut Tracer::new(true)));
        }
        let rounds = untraced.len();
        let spent = start.elapsed().as_secs_f64();
        // Stop before a round that would overrun the budget.
        if rounds >= min_reps && (opts.quick || spent + spent / (rounds + 1) as f64 > opts.seconds)
        {
            break;
        }
    }
    let mut setups: Vec<f64> = untraced.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(w.setup_s());
    }

    let mut checks = Checks::default();
    let all = || std::iter::once(&warmup).chain(&untraced).chain(&traced);
    for rep in all() {
        checks.attempted += rep.checks.attempted;
        checks.failed += rep.checks.failed;
        checks.problems.extend(rep.checks.problems.iter().cloned());
    }
    let reference = &warmup.sim;
    for rep in all().skip(1) {
        let same = rep.sim.len() == reference.len()
            && rep
                .sim
                .iter()
                .zip(reference)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        checks.expect(same, || {
            format!("simulated metrics differ across reps: {:?} vs {:?}", rep.sim, reference)
        });
    }

    let ops_rates: Vec<f64> = untraced.iter().map(|r| r.ops as f64 / r.measured_s).collect();
    let rss = peak_rss_mb();
    checks.expect(rss.is_some(), || "peak RSS unavailable (/proc/self/status)".to_string());
    let mut end_to_end = vec![
        ("ops_per_s", median(&ops_rates)),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", rss.unwrap_or(f64::NAN)),
    ];
    end_to_end.extend(reference.iter().copied());

    let mut per_layer = Vec::new();
    if opts.trace {
        per_layer = medians(&traced, |r| &r.layers);
        let walls = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let coverage: Vec<f64> = traced.iter().map(|r| r.coverage).collect();
        per_layer.push(("trace.coverage", median(&coverage)));
        per_layer.push(("trace.overhead_pct", (walls(&traced) / walls(&untraced) - 1.0) * 100.0));
        per_layer.extend(w.finish_traced(&untraced, &traced, &mut checks));
    }

    let kinds = std::iter::once("warmup")
        .chain(untraced.iter().map(|_| "untraced"))
        .chain(traced.iter().map(|_| "traced"));
    let reps = all().zip(kinds).map(|(r, kind)| r.raw(kind)).collect();
    let trace = traced.iter_mut().filter_map(|r| r.trace.take()).collect();
    Outcome {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        problems: checks.problems,
        end_to_end,
        per_layer,
        reps,
        setup_samples: setups,
        trace,
    }
}

/// Renders `values` against the declared list: every declared metric in
/// declaration order with its unit. A per-layer metric the workload does
/// not exercise reads 0 (no time spent, nothing counted); a missing
/// end-to-end metric or any undeclared name is an error.
///
/// # Errors
///
/// Names the first undeclared or missing metric.
pub fn render(
    declared: &[MetricDecl],
    values: &[(&'static str, f64)],
    missing_is_zero: bool,
) -> Result<Json, String> {
    if let Some((name, _)) = values.iter().find(|(n, _)| !declared.iter().any(|d| d.name == *n)) {
        return Err(format!("metric {name} is not declared in BENCHMARK.json"));
    }
    let mut members = Vec::with_capacity(declared.len());
    for d in declared {
        let value = match values.iter().find(|(n, _)| *n == d.name) {
            Some(&(_, v)) => v,
            None if missing_is_zero => 0.0,
            None => return Err(format!("metric {} was not measured", d.name)),
        };
        members.push((
            d.name.clone(),
            obj([("value", value.into()), ("unit", d.unit.as_str().into())]),
        ));
    }
    Ok(Json::Obj(members))
}

impl Outcome {
    /// The metrics this run reports: end-to-end untraced, per-layer traced.
    ///
    /// # Errors
    ///
    /// As [`render`].
    pub fn metrics(&self, trace: bool) -> Result<Json, String> {
        if trace {
            render(&spec().per_layer, &self.per_layer, true)
        } else {
            render(&spec().end_to_end, &self.end_to_end, false)
        }
    }

    /// The one-line result the benchmark prints last.
    ///
    /// # Errors
    ///
    /// As [`render`].
    pub fn summary(&self, trace: bool) -> Result<Json, String> {
        Ok(obj([
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", self.metrics(trace)?),
        ]))
    }
}
