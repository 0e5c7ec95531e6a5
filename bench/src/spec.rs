//! The benchmark's declaration, read from `BENCHMARK.json` at the repo
//! root: workloads, run length and every metric with its unit, direction
//! and regression bound. It is the one place metric names and units live;
//! the workloads emit values by name and the emitter refuses names it does
//! not declare.

use crate::json::Json;
use std::sync::OnceLock;

const SOURCE: &str = include_str!("../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricDecl {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Seconds one run measures when `--seconds` is not given.
    pub run_seconds: f64,
    /// Metrics an untraced run reports.
    pub end_to_end: Vec<MetricDecl>,
    /// Metrics a traced run reports.
    pub per_layer: Vec<MetricDecl>,
}

impl Spec {
    /// Parses a declaration document.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("missing workloads")?
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("workload without a name")?;
        let run_seconds =
            doc.get("run_seconds").and_then(Json::as_f64).ok_or("missing run_seconds")?;
        Ok(Spec {
            workloads,
            run_seconds,
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
        })
    }

    /// Looks a metric up in either list.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }
}

fn metric_list(doc: &Json, key: &str) -> Result<Vec<MetricDecl>, String> {
    let list = doc.get(key).and_then(Json::as_array).ok_or(format!("missing {key}"))?;
    list.iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Json::as_str).ok_or(format!("{key} entry without {f}"));
            let better = match field("better")? {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("unknown direction {other:?}")),
            };
            Ok(MetricDecl {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                better,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// The repository's declaration, parsed once.
///
/// # Panics
///
/// Panics if the committed `BENCHMARK.json` is malformed (the package tests
/// pin it).
#[must_use]
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| Spec::parse(SOURCE).expect("BENCHMARK.json is well-formed"))
}
