//! End-to-end and per-layer benchmark of the superpage simulator.
//!
//! Four workloads, each driving the layers only through their public APIs
//! and timing those calls from outside (see `README.md`). `BENCHMARK.json`
//! at the repository root declares the workloads and every metric; this
//! crate measures them, checks the simulator's outputs, and compares runs.

#![forbid(unsafe_code)]

pub mod compare;
pub mod json;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use json::{obj, Json};
use std::path::PathBuf;

/// Where results and traces are written: `bench/results/`.
#[must_use]
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// The commit the benchmark runs on, when the checkout is a git work tree.
fn git_rev() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// What a result was measured on, so a claim can be re-checked.
#[must_use]
pub fn provenance(opts: &run::Options, reps: usize) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    obj([
        ("git_rev", git_rev().into()),
        ("available_parallelism", cores.into()),
        ("rustc", env!("BENCH_RUSTC_VERSION").into()),
        ("seed", opts.seed.into()),
        ("seconds", opts.seconds.into()),
        ("quick", opts.quick.into()),
        ("reps", reps.into()),
    ])
}
