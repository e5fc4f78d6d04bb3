//! CLI smoke tests: drive the `lassynth` binary end to end, the way a
//! user would (paper Fig. 12a workflow from the shell).

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lassynth"))
}

fn cnot_spec_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/specs/cnot.json")
}

#[test]
fn dimacs_emits_well_formed_cnf() {
    let out = bin()
        .arg("dimacs")
        .arg(cnot_spec_path())
        .output()
        .expect("run lassynth");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 dimacs");
    let mut lines = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('c'));
    let header: Vec<&str> = lines
        .next()
        .expect("header line")
        .split_whitespace()
        .collect();
    assert_eq!(&header[..2], &["p", "cnf"], "DIMACS problem line");
    let num_vars: i64 = header[2].parse().expect("var count");
    let num_clauses: usize = header[3].parse().expect("clause count");
    assert!(
        num_vars > 0 && num_clauses > 0,
        "CNOT encodes to a non-trivial CNF"
    );
    let mut clauses = 0;
    for line in lines {
        let lits: Vec<i64> = line
            .split_whitespace()
            .map(|t| t.parse().expect("integer literal"))
            .collect();
        assert_eq!(lits.last(), Some(&0), "clause terminated by 0: {line:?}");
        for &lit in &lits[..lits.len() - 1] {
            assert!(lit != 0 && lit.abs() <= num_vars, "literal in range: {lit}");
        }
        clauses += 1;
    }
    assert_eq!(
        clauses, num_clauses,
        "clause count matches the problem line"
    );
}

#[test]
fn synth_writes_artifacts_that_verify_and_render() {
    let dir = std::env::temp_dir().join(format!("lassynth-cli-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let out = bin()
        .arg("synth")
        .arg(cnot_spec_path())
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("run lassynth synth");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SAT"), "synth reports SAT: {stdout}");
    assert!(
        stdout.contains("verified: true"),
        "synth self-verifies: {stdout}"
    );

    let lasre = dir.join("cnot.lasre");
    let gltf = dir.join("cnot.gltf");
    assert!(lasre.exists(), "wrote {}", lasre.display());
    assert!(
        std::fs::metadata(&gltf).expect("gltf written").len() > 0,
        "non-empty glTF"
    );

    // `verify` accepts the synthesized design.
    let v = bin()
        .arg("verify")
        .arg(&lasre)
        .output()
        .expect("run lassynth verify");
    assert!(
        v.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&v.stderr)
    );
    assert!(
        String::from_utf8_lossy(&v.stdout).contains("VERIFIED"),
        "verify accepts the design"
    );

    // `render` reproduces the time slices.
    let r = bin()
        .arg("render")
        .arg(&lasre)
        .output()
        .expect("run lassynth render");
    assert!(r.status.success());
    assert!(
        String::from_utf8_lossy(&r.stdout).contains("k=2"),
        "render shows every layer"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn synth_stats_prints_solver_counters() {
    let dir = std::env::temp_dir().join(format!("lassynth-cli-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = bin()
        .arg("synth")
        .arg(cnot_spec_path())
        .arg("--out")
        .arg(&dir)
        .arg("--stats")
        .output()
        .expect("run lassynth synth --stats");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("solver stats"), "stats header: {stdout}");
    for counter in ["decisions=", "conflicts=", "propagations=", "gc_passes="] {
        assert!(stdout.contains(counter), "{counter} missing: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn synth_seeds_auto_solves_small_specs_directly() {
    let dir = std::env::temp_dir().join(format!("lassynth-cli-auto-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = bin()
        .arg("synth")
        .arg(cnot_spec_path())
        .arg("--out")
        .arg(&dir)
        .arg("--seeds")
        .arg("auto")
        .output()
        .expect("run lassynth synth --seeds auto");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SAT"), "auto mode still solves: {stdout}");
    // The CNOT encoding is far below the portfolio threshold, so no
    // portfolio banner appears.
    assert!(
        !stdout.contains("portfolio"),
        "small spec solves directly: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn depth_search_incremental_and_scratch_agree() {
    // Default (incremental) run, with per-probe stats.
    let inc = bin()
        .arg("depth")
        .arg(cnot_spec_path())
        .args(["--lo", "2", "--hi", "4", "--start", "3", "--stats"])
        .output()
        .expect("run lassynth depth");
    assert!(
        inc.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&inc.stderr)
    );
    let inc_out = String::from_utf8_lossy(&inc.stdout).to_string();
    assert!(inc_out.contains("optimal depth: 3"), "{inc_out}");
    assert!(
        inc_out.contains("conflicts=") && inc_out.contains("propagations="),
        "--stats prints per-probe counters: {inc_out}"
    );

    // The escape hatch probes the same depths with the same verdicts.
    let scratch = bin()
        .arg("depth")
        .arg(cnot_spec_path())
        .args(["--lo", "2", "--hi", "4", "--start", "3", "--no-incremental"])
        .output()
        .expect("run lassynth depth --no-incremental");
    assert!(scratch.status.success());
    let scratch_out = String::from_utf8_lossy(&scratch.stdout);
    assert!(scratch_out.contains("optimal depth: 3"), "{scratch_out}");
    let verdicts = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("max_k"))
            .map(|l| l.split(" (").next().unwrap_or(l).to_string())
            .collect()
    };
    assert_eq!(
        verdicts(&inc_out),
        verdicts(&scratch_out),
        "probe sequences must agree across modes"
    );
}

/// `--restart-policy` and `--chrono` override the solver configuration
/// on both `synth` and `depth` without changing verdicts, and reject
/// malformed values with a usage error.
#[test]
fn solver_override_flags_work_on_synth_and_depth() {
    let dir = std::env::temp_dir().join(format!("lassynth-cli-overrides-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for policy in ["luby", "ema"] {
        let out = bin()
            .arg("synth")
            .arg(cnot_spec_path())
            .args(["--out"])
            .arg(&dir)
            .args(["--restart-policy", policy, "--chrono", "off", "--stats"])
            .output()
            .expect("run lassynth synth with overrides");
        assert!(
            out.status.success(),
            "policy {policy}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(text.contains("SAT"), "{text}");
        // (The CNOT instance finishes below every activation gate, so
        // counters cannot distinguish the override here — the
        // `solver_config_applies_overrides` unit test in
        // `crates/core/src/synthesize.rs` covers the plumbing; this
        // smoke test covers flag acceptance end to end.)
        assert!(text.contains("chrono_backtracks="), "{text}");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let depth = bin()
        .arg("depth")
        .arg(cnot_spec_path())
        .args(["--lo", "2", "--hi", "4", "--start", "3"])
        .args(["--restart-policy", "ema", "--chrono", "on"])
        .output()
        .expect("run lassynth depth with overrides");
    assert!(
        depth.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&depth.stderr)
    );
    let text = String::from_utf8_lossy(&depth.stdout);
    assert!(text.contains("optimal depth: 3"), "{text}");

    // Malformed values exit with a usage error before any solving.
    for bad in [["--restart-policy", "glucose"], ["--chrono", "maybe"]] {
        let out = bin()
            .arg("synth")
            .arg(cnot_spec_path())
            .args(bad)
            .output()
            .expect("run lassynth synth with a bad override");
        assert_eq!(out.status.code(), Some(2), "{bad:?} must exit 2");
    }
}

/// `lint-cnf` analyzes both spec files (flat and layered) and raw
/// DIMACS, exits 0 on informational lints, and exits 1 only when a
/// fatal lint (contradictory root units / empty clause) fires.
#[test]
fn lint_cnf_reports_and_exit_codes() {
    // Flat spec encoding: real encodings legitimately carry
    // unconstrained (constant-folded) variables, which is
    // informational, not fatal.
    let out = bin()
        .arg("lint-cnf")
        .arg(cnot_spec_path())
        .output()
        .expect("run lassynth lint-cnf");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.starts_with("cnf: "), "report header: {text}");
    assert!(text.contains("component"), "component summary: {text}");
    assert!(
        !text.contains("contradictory-root-units") && !text.contains("empty-clause"),
        "no fatal lints on a real encoding: {text}"
    );

    // Layered encoding: the activation chain must fully gate.
    let layered = bin()
        .arg("lint-cnf")
        .arg(cnot_spec_path())
        .args(["--lo", "2", "--hi", "4"])
        .output()
        .expect("run lassynth lint-cnf --lo --hi");
    assert!(layered.status.success());
    let text = String::from_utf8_lossy(&layered.stdout);
    assert!(
        !text.contains("ungated-activation"),
        "every activation literal gates a payload: {text}"
    );

    // Raw DIMACS with contradictory root units is fatal (exit 1).
    let dir = std::env::temp_dir().join(format!("lassynth-cli-lint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let bad = dir.join("contradict.cnf");
    std::fs::write(&bad, "p cnf 2 3\n1 0\n-1 0\n1 2 0\n").expect("write cnf");
    let fatal = bin()
        .arg("lint-cnf")
        .arg(&bad)
        .output()
        .expect("run lassynth lint-cnf on a contradictory CNF");
    assert_eq!(fatal.status.code(), Some(1), "fatal lints exit 1");
    let text = String::from_utf8_lossy(&fatal.stdout);
    assert!(text.contains("contradictory-root-units"), "{text}");

    // A clean DIMACS file passes silently.
    let good = dir.join("clean.cnf");
    std::fs::write(&good, "p cnf 2 2\n1 2 0\n-1 2 0\n").expect("write cnf");
    let clean = bin()
        .arg("lint-cnf")
        .arg(&good)
        .output()
        .expect("run lassynth lint-cnf on a clean CNF");
    assert!(clean.status.success());
    assert!(
        String::from_utf8_lossy(&clean.stdout).contains("clean: no encoder lints fired"),
        "clean verdict printed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--audit-cnf` prints the encoder-lint report before solving and does
/// not change the verdict.
/// `depth --audit-cnf` lints the depths the search can reach, so a
/// range whose floor is invalid but never probed (the CNOT at the
/// default `--lo 1`) still audits and solves.
#[test]
fn audit_cnf_flag_reports_before_solving() {
    for range in [&["--lo", "2", "--hi", "4", "--start", "3"][..], &[]] {
        let out = bin()
            .arg("depth")
            .arg(cnot_spec_path())
            .args(range)
            .arg("--audit-cnf")
            .output()
            .expect("run lassynth depth --audit-cnf");
        assert!(
            out.status.success(),
            "{range:?} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(text.starts_with("cnf: "), "lint report leads: {text}");
        assert!(
            text.contains("optimal depth: 3"),
            "verdict unchanged: {text}"
        );
    }
}

/// The certification surface end to end: `depth --certify` marks its
/// UNSAT probe as proof-checked, `synth --certify --drat` writes a DRAT
/// file that `check-proof` accepts against the `dimacs` output, and a
/// corrupted proof is rejected.
#[test]
fn certify_and_check_proof_round_trip() {
    let dir = std::env::temp_dir().join(format!("lassynth-cli-certify-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    let depth = bin()
        .arg("depth")
        .arg(cnot_spec_path())
        .args(["--lo", "2", "--hi", "4", "--start", "3", "--certify"])
        .output()
        .expect("run lassynth depth --certify");
    assert!(
        depth.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&depth.stderr)
    );
    let text = String::from_utf8_lossy(&depth.stdout).to_string();
    assert!(text.contains("optimal depth: 3"), "{text}");
    assert!(
        text.contains("UNSAT [proof checked]"),
        "the UNSAT probe carries the certification marker: {text}"
    );

    // An unsatisfiable CNOT variant: forbid both interior columns so
    // the qubits can never interact (same construction as the
    // `impossible_spec_is_unsat` unit test).
    let spec = std::fs::read_to_string(cnot_spec_path())
        .expect("read cnot spec")
        .replace("\"name\": \"cnot\"", "\"name\": \"cnot-unsat\"")
        .replace(
            "\"forbidden_cubes\": [[0, 0, 0], [1, 1, 0]]",
            "\"forbidden_cubes\": [[0,0,0],[0,0,1],[0,0,2],[1,1,0],[1,1,1],[1,1,2]]",
        );
    assert!(spec.contains("cnot-unsat"), "spec rewrite applied");
    let spec_path = dir.join("cnot_unsat.json");
    std::fs::write(&spec_path, spec).expect("write spec");

    let cnf = bin()
        .arg("dimacs")
        .arg(&spec_path)
        .output()
        .expect("run lassynth dimacs");
    assert!(cnf.status.success());
    let cnf_path = dir.join("cnot_unsat.cnf");
    std::fs::write(&cnf_path, &cnf.stdout).expect("write cnf");

    for drat_name in ["proof.drat", "proof.bdrat"] {
        let drat_path = dir.join(drat_name);
        let synth = bin()
            .arg("synth")
            .arg(&spec_path)
            .arg("--certify")
            .arg("--drat")
            .arg(&drat_path)
            .output()
            .expect("run lassynth synth --certify --drat");
        // UNSAT exits 1 by design; the proof must still be written and
        // the verdict marked as checked.
        assert_eq!(synth.status.code(), Some(1), "UNSAT verdict exits 1");
        let text = String::from_utf8_lossy(&synth.stdout).to_string();
        assert!(text.contains("UNSAT (DRAT proof checked)"), "{text}");
        assert!(drat_path.exists(), "wrote {}", drat_path.display());

        let check = bin()
            .arg("check-proof")
            .arg(&cnf_path)
            .arg(&drat_path)
            .output()
            .expect("run lassynth check-proof");
        assert!(
            check.status.success(),
            "{drat_name}: {}",
            String::from_utf8_lossy(&check.stdout)
        );
        assert!(
            String::from_utf8_lossy(&check.stdout).contains("PROOF OK"),
            "{drat_name} accepted"
        );
    }

    // Text DRAT may carry comment lines; a commented text proof must
    // not be mistaken for binary.
    let tiny_cnf_path = dir.join("tiny.cnf");
    std::fs::write(&tiny_cnf_path, "p cnf 1 2\n1 0\n-1 0\n").expect("write tiny cnf");
    let text_proof = std::fs::read_to_string(dir.join("proof.drat")).expect("read text drat");
    let commented_path = dir.join("commented.drat");
    for (cnf, drat) in [
        (&tiny_cnf_path, "c produced by hand\n0\n".to_string()),
        (&cnf_path, format!("c written by lassynth\n{text_proof}")),
    ] {
        std::fs::write(&commented_path, &drat).expect("write commented drat");
        let check = bin()
            .arg("check-proof")
            .arg(cnf)
            .arg(&commented_path)
            .output()
            .expect("run lassynth check-proof on a commented proof");
        assert!(
            check.status.success() && String::from_utf8_lossy(&check.stdout).contains("PROOF OK"),
            "commented text proof rejected: {}{}",
            String::from_utf8_lossy(&check.stdout),
            String::from_utf8_lossy(&check.stderr)
        );
    }

    // A deletion of a clause that was never added cannot check: the
    // checker's deletions are strict.
    let bad_path = dir.join("bad.drat");
    std::fs::write(&bad_path, "d 99 0\n").expect("write bad drat");
    let check = bin()
        .arg("check-proof")
        .arg(&cnf_path)
        .arg(&bad_path)
        .output()
        .expect("run lassynth check-proof on a corrupt proof");
    assert_eq!(check.status.code(), Some(1), "corrupt proof exits 1");
    assert!(
        String::from_utf8_lossy(&check.stdout).contains("PROOF REJECTED"),
        "rejection reported"
    );

    // `--drat` without `--certify` (or with a portfolio) is a usage
    // error before any solving.
    let out = bin()
        .arg("synth")
        .arg(&spec_path)
        .arg("--drat")
        .arg(dir.join("x.drat"))
        .output()
        .expect("run lassynth synth --drat without --certify");
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .arg("synth")
        .arg(&spec_path)
        .args(["--certify", "--seeds", "2", "--drat"])
        .arg(dir.join("x.drat"))
        .output()
        .expect("run lassynth synth --drat with --seeds");
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The resource-governor flags: malformed values and `--varisat`
/// combinations are usage errors before any solving; valid values are
/// accepted and `--stats` reports the per-axis exhaustion counters.
#[test]
fn governor_flags_validate_and_report() {
    for bad in [
        ["--timeout", "0"],
        ["--timeout", "soon"],
        ["--timeout", "-3"],
        ["--max-memory", "0"],
        ["--max-memory", "lots"],
    ] {
        for cmd in ["synth", "depth"] {
            let out = bin()
                .arg(cmd)
                .arg(cnot_spec_path())
                .args(bad)
                .output()
                .expect("run lassynth with a bad governor flag");
            assert_eq!(out.status.code(), Some(2), "{cmd} {bad:?} must exit 2");
        }
    }
    for bad in [["--deadline", "0"], ["--deadline", "never"]] {
        let out = bin()
            .arg("depth")
            .arg(cnot_spec_path())
            .args(bad)
            .output()
            .expect("run lassynth depth with a bad deadline");
        assert_eq!(out.status.code(), Some(2), "depth {bad:?} must exit 2");
    }

    // The varisat shim cannot honour the governor: combining them is a
    // usage error (and so is `--varisat` itself in a build without the
    // feature — exit 2 either way).
    for conflicting in [
        vec!["synth", "--timeout", "5", "--varisat"],
        vec!["synth", "--max-memory", "64", "--varisat"],
        vec!["depth", "--deadline", "5", "--varisat"],
    ] {
        let out = bin()
            .arg(conflicting[0])
            .arg(cnot_spec_path())
            .args(&conflicting[1..])
            .output()
            .expect("run lassynth with governor + varisat");
        assert_eq!(out.status.code(), Some(2), "{conflicting:?} must exit 2");
    }

    // Generous limits leave the verdict alone and surface the counters.
    let dir = std::env::temp_dir().join(format!("lassynth-cli-governor-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = bin()
        .arg("synth")
        .arg(cnot_spec_path())
        .arg("--out")
        .arg(&dir)
        .args(["--timeout", "600", "--max-memory", "512", "--stats"])
        .output()
        .expect("run lassynth synth with a generous governor");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("SAT"), "{text}");
    assert!(
        text.contains("exhausted_conflicts=0") && text.contains("exhausted_deadline=0"),
        "--stats reports the exhaustion counters: {text}"
    );
    assert!(
        !text.contains("gave up on:"),
        "a resolved solve names no exhaustion reason: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deterministically injected arena-OOM (`LASSYNTH_FAULT`) exhausts
/// the first depth probe: the search reports the anytime window —
/// certified lower bound plus best-known SAT depth — instead of
/// erroring out.
#[test]
fn depth_reports_anytime_window_when_exhausted() {
    let out = bin()
        .arg("depth")
        .arg(cnot_spec_path())
        .args(["--lo", "2", "--hi", "4", "--start", "3"])
        .env("LASSYNTH_FAULT", "arena-oom@0")
        .output()
        .expect("run lassynth depth under an injected arena-OOM");
    assert_eq!(
        out.status.code(),
        Some(1),
        "no SAT depth in hand exits 1: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains("UNKNOWN [memory ceiling]"),
        "the exhausted probe names its axis: {text}"
    );
    assert!(
        text.contains("search stopped early (memory ceiling)"),
        "the search explains why it gave up: {text}"
    );
    assert!(
        text.contains("anytime window: certified lower bound 2"),
        "the anytime window is reported: {text}"
    );
}

/// Portfolio workers are always diversified CDCL solvers, so a
/// portfolio under `--varisat` is a usage error rather than a silent
/// switch of backend; sharing clauses needs a portfolio.
#[test]
fn portfolio_flag_conflicts_are_usage_errors() {
    for conflicting in [
        &["--varisat", "--seeds", "2"][..],
        &["--varisat", "--seeds", "auto"],
        &["--share-clauses"],
    ] {
        let out = bin()
            .arg("synth")
            .arg(cnot_spec_path())
            .args(conflicting)
            .output()
            .expect("run lassynth synth with conflicting portfolio flags");
        assert_eq!(out.status.code(), Some(2), "{conflicting:?} must exit 2");
    }
}

#[test]
fn usage_errors_exit_nonzero() {
    let out = bin().output().expect("run lassynth");
    assert_eq!(
        out.status.code(),
        Some(2),
        "no-args prints usage and exits 2"
    );
    let out = bin().arg("synth").output().expect("run lassynth synth");
    assert_eq!(out.status.code(), Some(2), "missing spec path exits 2");
    let out = bin()
        .arg("synth")
        .arg("/nonexistent/spec.json")
        .output()
        .expect("run lassynth synth");
    assert_eq!(out.status.code(), Some(1), "unreadable spec exits 1");
}
