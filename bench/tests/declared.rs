//! The benchmark emits exactly what `BENCHMARK.json` declares, and a toy
//! pass of every workload passes every output check.

use std::collections::BTreeSet;
use superpage_bench::json::Json;
use superpage_bench::run::{self, render, Options};
use superpage_bench::spec::spec;
use superpage_bench::workloads;

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let s = spec();
    let mut seen = BTreeSet::new();
    let metrics = s.end_to_end.iter().chain(&s.per_layer);
    for name in s.workloads.iter().chain(metrics.clone().map(|m| &m.name)) {
        assert!(well_formed(name), "malformed name {name:?}");
        assert!(seen.insert(name.clone()), "name {name:?} used twice");
    }
    for m in metrics {
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "malformed unit {:?} of {}",
            m.unit,
            m.name
        );
    }
}

#[test]
fn declaration_keeps_the_benchmark_contract() {
    let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let s = spec();
    assert!((2..=8).contains(&s.workloads.len()));
    assert!(s.run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&s.run_seconds));
    let setup = s.metric("setup_s").expect("setup_s is declared");
    assert_eq!(setup.unit, "s");
    for m in &s.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!((0.0..=0.25).contains(&bound), "{} bound {bound}", m.name);
        assert!(bound <= setup.bound.unwrap(), "setup_s must have the largest bound");
    }
    assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
}

#[test]
fn undeclared_or_missing_metrics_are_refused() {
    let s = spec();
    assert!(render(&s.end_to_end, &[("no_such_metric", 1.0)], true).is_err());
    assert!(render(&s.end_to_end, &[("ops_per_s", 1.0)], false).is_err(), "setup_s is missing");
    let zeros = render(&s.per_layer, &[], true).expect("per-layer gaps read 0");
    assert_eq!(zeros.as_object().unwrap().len(), s.per_layer.len());
}

#[test]
fn quick_pass_of_every_workload_checks_out_and_emits_the_declared_metrics() {
    let s = spec();
    let declared_e2e: BTreeSet<&str> = s.end_to_end.iter().map(|m| m.name.as_str()).collect();
    let declared_layers: BTreeSet<&str> = s.per_layer.iter().map(|m| m.name.as_str()).collect();
    let mut measured_layers = BTreeSet::new();
    for name in &s.workloads {
        let mut w = workloads::by_name(name, 1, true).expect("declared workloads exist");
        let opts = Options { seed: 1, seconds: 1.0, trace: true, quick: true };
        let out = run::run(w.as_mut(), &opts);
        assert!(out.correct, "{name}: {:?}", out.problems);
        assert!(out.attempted > 0);

        let e2e: BTreeSet<&str> = out.end_to_end.iter().map(|&(n, _)| n).collect();
        assert_eq!(e2e, declared_e2e, "{name} end-to-end metrics");
        for &(metric, v) in &out.end_to_end {
            assert!(
                v.is_finite() && v > 0.0,
                "{name} {metric} = {v}: end-to-end metrics are never 0"
            );
        }
        for &(metric, v) in &out.per_layer {
            assert!(declared_layers.contains(metric), "{name} emits undeclared {metric}");
            assert!(v.is_finite(), "{name} {metric} = {v}");
            measured_layers.insert(metric);
        }
        let coverage = out.per_layer.iter().find(|(n, _)| *n == "trace.coverage").unwrap().1;
        assert!(coverage > 0.5 && coverage <= 1.0 + 1e-9, "{name} coverage {coverage}");
        for trace in [false, true] {
            let line = out.summary(trace).expect("renders").to_json();
            let back = Json::parse(&line).expect("the result line is JSON");
            let keys: Vec<&str> =
                back.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
    let unmeasured: Vec<_> = declared_layers.difference(&measured_layers).collect();
    assert!(unmeasured.is_empty(), "declared but measured by no workload: {unmeasured:?}");
}
