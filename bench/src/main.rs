//! `bench` — runs the benchmark's workloads and compares result files.
//!
//! ```text
//! bench run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! bench compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! `run` without `--workload` runs every workload, each in its own process
//! so peak memory is per workload. The last line of a single-workload run's
//! standard output is its one-line JSON result.

use std::process::{Command, ExitCode, Stdio};
use superpage_bench::json::{obj, Json};
use superpage_bench::run::{self, Options, DEFAULT_SEED};
use superpage_bench::spec::spec;
use superpage_bench::{compare, provenance, results_dir, workloads};

const USAGE: &str = "usage:
  bench run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
  bench compare PARENT.json... -- CHANGE.json...";

struct RunArgs {
    workload: Option<String>,
    opts: Options,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut opts =
        Options { seed: DEFAULT_SEED, seconds: spec().run_seconds, trace: false, quick: false };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?.clone()),
            "--seed" => {
                opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                opts.seconds = s;
            }
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        opts.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "--quick" => opts.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &workload {
        if !spec().workloads.contains(w) {
            return Err(format!("unknown workload {w:?}; declared: {:?}", spec().workloads));
        }
    }
    Ok(RunArgs { workload, opts })
}

fn write_result(name: &str, doc: &Json) {
    let dir = results_dir();
    let path = dir.join(name);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, format!("{}\n", doc.to_json())));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// One workload in this process: measure, check, record, print.
fn run_one(name: &str, opts: &Options) -> Result<bool, String> {
    let mut w = workloads::by_name(name, opts.seed, opts.quick).ok_or("unknown workload")?;
    let outcome = run::run(w.as_mut(), opts);
    let metrics = outcome.metrics(opts.trace)?;
    for (metric, m) in metrics.as_object().expect("metrics render as an object") {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        eprintln!("{name:<20} {metric:<32} {value:>16.6} {unit}");
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    eprintln!(
        "{name:<20} checks: {} attempted, {} failed (failed_frac {failed_frac})",
        outcome.attempted, outcome.failed
    );
    for problem in &outcome.problems {
        eprintln!("{name:<20} FAILED: {problem}");
    }

    let reps = outcome.reps.len();
    let suffix = if opts.trace { "-trace" } else { "" };
    write_result(
        &format!("result-{name}-{}{suffix}.json", opts.seed),
        &obj([
            ("workload", name.into()),
            ("trace", opts.trace.into()),
            ("provenance", provenance(opts, reps)),
            ("correct", outcome.correct.into()),
            ("attempted", outcome.attempted.into()),
            ("failed", outcome.failed.into()),
            ("failed_frac", failed_frac.into()),
            ("problems", Json::Arr(outcome.problems.iter().map(|p| p.as_str().into()).collect())),
            ("metrics", metrics),
            ("reps", Json::Arr(outcome.reps.clone())),
            (
                "setup_s_samples",
                Json::Arr(outcome.setup_samples.iter().map(|&s| s.into()).collect()),
            ),
        ]),
    );
    if opts.trace {
        write_result(
            &format!("trace-{name}-{}.json", opts.seed),
            &obj([
                ("workload", name.into()),
                ("provenance", provenance(opts, reps)),
                ("layers", outcome.metrics(true)?),
                ("traced_reps", Json::Arr(outcome.trace.clone())),
            ]),
        );
    }
    println!("{}", outcome.summary(opts.trace)?.to_json());
    Ok(outcome.correct)
}

/// Every workload, one child process each; prints every metric by name
/// and unit and fails if any workload's checks did.
fn run_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut all_ok = true;
    for name in &spec().workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", name, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if opts.quick {
            cmd.arg("--quick");
        }
        let out = cmd.output().map_err(|e| format!("cannot run {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        let correct = result.as_ref().and_then(|r| r.get("correct")) == Some(&Json::Bool(true));
        all_ok &= out.status.success() && correct;
        println!("== {name}: {}", if correct { "outputs correct" } else { "FAILED" });
        let metrics = result.as_ref().and_then(|r| r.get("metrics")).and_then(Json::as_object);
        for (metric, m) in metrics.unwrap_or_default() {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("{name:<20} {metric:<32} {value:>16.6} {unit}");
        }
    }
    Ok(all_ok)
}

fn read_docs(paths: &[String]) -> Result<Vec<Json>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| match &a.workload {
            Some(w) => run_one(w, &a.opts),
            None => run_all(&a.opts),
        }),
        Some("compare") => {
            let rest = &args[1..];
            match rest.iter().position(|a| a == "--") {
                Some(split) if split > 0 && split + 1 < rest.len() => read_docs(&rest[..split])
                    .and_then(|parent| {
                        let change = read_docs(&rest[split + 1..])?;
                        let (table, regressed) = compare::report(spec(), &parent, &change)?;
                        print!("{table}");
                        Ok(!regressed)
                    }),
                _ => Err("compare needs parent files, then --, then change files".to_string()),
            }
        }
        _ => Err("missing command".to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
