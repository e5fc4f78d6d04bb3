//! The `bench_trend` command line: anything outside
//! `<baseline-dir> <fresh-dir>` or `--table [dir]` is a usage error
//! (exit 2) naming the argument, and a committed record with no fresh
//! counterpart fails the gate.

use bench_support::report::BenchRecord;
use std::process::{Command, Output};

fn bench_trend(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_trend"))
        .args(args)
        .output()
        .expect("the bench_trend binary starts")
}

/// Asserts a usage error whose message mentions `named`.
fn rejects(args: &[&str], named: &str) {
    let out = bench_trend(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(named),
        "{args:?} must name {named:?}: {stderr}"
    );
    assert!(stderr.contains("usage: bench_trend"), "{args:?}: {stderr}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    rejects(&[".", "fresh", "--max-ratio", "--bogus"], "\"--max-ratio\"");
    rejects(
        &[".", "fresh", "--max-conflict-ratio", "1.5"],
        "\"--max-conflict-ratio\"",
    );
    rejects(&["--table", "--bogus"], "\"--bogus\"");
}

#[test]
fn stray_operand_is_a_usage_error() {
    rejects(&["base", "fresh", "extra"], "\"extra\"");
    rejects(&["--table", "dir", "extra"], "\"extra\"");
    rejects(&["base"], "<fresh-dir>");
}

#[test]
fn missing_fresh_record_fails_the_gate() {
    let root = std::env::temp_dir().join(format!("bench-trend-cli-{}", std::process::id()));
    let (base, fresh) = (root.join("base"), root.join("fresh"));
    for (dir, names) in [(&base, &["a", "b"][..]), (&fresh, &["a"][..])] {
        std::fs::create_dir_all(dir).unwrap();
        for name in names {
            let record = BenchRecord {
                name: (*name).into(),
                wall_ms: 1.0,
                conflicts: 10,
                propagations: 100,
                proof_checked: None,
            };
            record.write_to(dir).unwrap();
        }
    }
    let gate =
        |fresh: &std::path::Path| bench_trend(&[base.to_str().unwrap(), fresh.to_str().unwrap()]);
    let out = gate(&fresh);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("FAIL BENCH_b.json: not emitted"),
        "{stdout}"
    );
    assert!(gate(&base).status.success(), "a record matches itself");
    let _ = std::fs::remove_dir_all(&root);
}
