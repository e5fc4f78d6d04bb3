//! The `paper` binary's command line: every malformed invocation is a
//! usage error (exit 2) naming the offending argument, and a valid one
//! runs. The happy path only encodes (`fig18` solves only under
//! `--solve`), so the whole file runs in seconds.

use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("the paper binary starts")
}

/// Asserts a usage error whose message mentions `named`.
fn rejects(args: &[&str], named: &str) {
    let out = paper(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(named),
        "{args:?} must name {named:?}: {stderr}"
    );
    assert!(stderr.contains("usage: paper"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran rows before failing");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    rejects(&["--timeout", "5", "--bogus"], "--bogus");
}

#[test]
fn repeated_flag_is_a_usage_error() {
    rejects(&["--seeds", "2", "--seeds", "3"], "--seeds");
    rejects(&["--solve", "--solve"], "--solve");
}

#[test]
fn missing_value_is_a_usage_error() {
    rejects(&["--rows", "fig18", "--timeout"], "--timeout");
    rejects(&["--out", "--solve"], "--out");
}

#[test]
fn unparseable_value_is_a_usage_error() {
    rejects(&["--timeout", "abc"], "\"abc\" for --timeout");
    rejects(&["--seeds", "x"], "\"x\" for --seeds");
    rejects(&["--seeds", "0"], "\"0\" for --seeds");
}

#[test]
fn unknown_row_is_a_usage_error() {
    rejects(&["--rows", "fig18,fig99"], "\"fig99\"");
}

#[test]
fn encode_only_row_prints_stats_beside_the_paper() {
    let out_dir = std::env::temp_dir().join(format!("paper-cli-{}", std::process::id()));
    let out = paper(&["--rows", "fig18", "--out", out_dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // V·nstab, vars and clauses of the 99-factory encoding, the paper's
    // volume and Kissat time beside them, and no solve.
    for expected in [
        "99-factory",
        "1584",
        "17350",
        "77940",
        "(paper 99)",
        "(Kissat 20.6 s)",
    ] {
        assert!(
            stdout.contains(expected),
            "missing {expected:?} in:\n{stdout}"
        );
    }
    assert!(stdout.contains("(encode only)"), "{stdout}");
    assert!(!out_dir.exists(), "an encode-only run writes no glTF");
}
