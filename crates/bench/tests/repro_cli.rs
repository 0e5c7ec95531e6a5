//! `repro` rejects bad command lines with a usage error (exit status 2)
//! instead of panicking, and does so before running anything.

use std::process::Command;

/// Runs `repro` with `args` and asserts the usage-error contract; returns
/// its standard error for message checks.
fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
    stderr
}

#[test]
fn unknown_command_is_a_usage_error() {
    assert!(usage_error(&["bogus"]).contains("unknown command \"bogus\""));
    assert!(usage_error(&["table1", "--quick", "tabel5"]).contains("\"tabel5\""));
}

#[test]
fn non_numeric_groups_is_a_usage_error() {
    assert!(usage_error(&["--groups", "x", "table1"]).contains("--groups takes a number"));
}

#[test]
fn non_numeric_blocks_is_a_usage_error() {
    assert!(usage_error(&["--blocks", "-3", "table1"]).contains("--blocks takes a number"));
}

#[test]
fn non_numeric_pe_step_is_a_usage_error() {
    assert!(usage_error(&["--pe-step", "1.5", "fig15"]).contains("--pe-step takes a number"));
}

#[test]
fn zero_pe_step_is_a_usage_error() {
    assert!(usage_error(&["--pe-step", "0", "fig15"]).contains("--pe-step must be at least 1"));
}

#[test]
fn zero_groups_or_blocks_is_a_usage_error() {
    for flag in ["--groups", "--blocks"] {
        let stderr = usage_error(&[flag, "0", "fig5"]);
        assert!(stderr.contains(&format!("{flag} must be at least 1")), "{stderr}");
    }
}

#[test]
fn flag_without_a_value_is_a_usage_error() {
    for flag in ["--groups", "--blocks", "--pe-step", "--gc", "--out"] {
        assert!(usage_error(&["table1", flag]).contains(&format!("{flag} needs a value")));
    }
}

#[test]
fn bad_engine_is_a_usage_error() {
    // There is one replay engine, so `--engine` is no longer a flag.
    for args in [&["--engine", "batched", "queueing"][..], &["queueing", "--engine"]] {
        assert!(usage_error(args).contains("unknown command \"--engine\""));
    }
}

#[test]
fn bad_gc_mode_is_a_usage_error() {
    assert!(usage_error(&["tenants", "--gc", "maybe"]).contains("--gc takes"));
}
