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

fn wire_spec_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/specs/wire.json")
}

fn majority_w5_spec_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/specs/majority_w5.json")
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
    // `--seeds 1` is a single solve too.
    for seeds in ["auto", "1"] {
        let out = bin()
            .arg("synth")
            .arg(cnot_spec_path())
            .arg("--out")
            .arg(&dir)
            .arg("--seeds")
            .arg(seeds)
            .output()
            .expect("run lassynth synth --seeds");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("SAT"),
            "--seeds {seeds} still solves: {stdout}"
        );
        // The CNOT encoding is far below the portfolio threshold, so no
        // portfolio banner appears.
        assert!(
            !stdout.contains("portfolio"),
            "--seeds {seeds} solves directly: {stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec with a zero extent is an `invalid spec` error, exit 1, in
/// every subcommand that reads it, including through a `.lasre` design.
#[test]
fn zero_extent_specs_are_invalid() {
    let dir = std::env::temp_dir().join(format!("lassynth-cli-zero-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let text = std::fs::read_to_string(cnot_spec_path()).expect("read cnot spec");
    for (extent, edit) in [
        ("\"max_k\": 3", "\"max_k\": 0"),
        ("\"max_i\": 2", "\"max_i\": 0"),
    ] {
        let spec = text.replace(extent, edit);
        assert_ne!(spec, text, "{edit}");
        let spec_path = dir.join("zero.json");
        std::fs::write(&spec_path, &spec).expect("write spec");
        let lasre_path = dir.join("zero.lasre");
        let design = format!(
            "{{\"spec\": {spec}, \"values\": \"\", \"k_colors\": [], \
             \"domain_walls\": [], \"verified\": false}}"
        );
        std::fs::write(&lasre_path, design).expect("write lasre");
        for cmd in ["synth", "depth", "dimacs", "lint-cnf", "verify", "render"] {
            let path = if matches!(cmd, "verify" | "render") {
                &lasre_path
            } else {
                &spec_path
            };
            let out = bin().arg(cmd).arg(path).output().expect("run lassynth");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {edit}: {stderr}");
            let named = stderr.contains("spec invalid") || stderr.contains("invalid spec");
            assert!(named, "{cmd} {edit}: {stderr}");
            assert!(!stderr.contains("panicked"), "{cmd} {edit}: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `depth --stats` prints every probe's counters through the same block
/// as `synth --stats`.
#[test]
fn depth_stats_prints_each_probes_counters() {
    let out = bin()
        .arg("depth")
        .arg(cnot_spec_path())
        .args(["--lo", "2", "--hi", "4", "--start", "3", "--stats"])
        .output()
        .expect("run lassynth depth");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("optimal depth: 3"), "{text}");
    assert_eq!(
        text.matches("solver stats:").count(),
        text.lines().filter(|l| l.starts_with("max_k")).count(),
        "one stats block per probe: {text}"
    );
    for counter in [
        "conflicts=",
        "propagations=",
        "gc_passes=",
        "exhausted_conflicts=",
        "analyzed_conflicts=",
        "repaired_missed_implications=",
    ] {
        assert!(
            text.contains(counter),
            "--stats prints per-probe {counter}: {text}"
        );
    }
}

/// The wire's depth 1 is malformed: the default range `--lo 1` covers
/// it, but the descent stops at the valid floor 2 and certifies it,
/// from the spec's depth and from `--start 2`.
#[test]
fn depth_searches_only_the_valid_window() {
    for extra in [&[][..], &["--start", "2"]] {
        let out = bin()
            .arg("depth")
            .arg(wire_spec_path())
            .args(extra)
            .output()
            .expect("run lassynth depth");
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(
            out.status.success(),
            "{extra:?} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(text.contains("optimal depth: 2"), "{extra:?}: {text}");
    }
}

/// A portfolio's `--stats` adds the whole fleet's bill: every counter
/// but the exhaustion ones under `portfolio total`, those (prefix
/// dropped) and the quarantine count under `portfolio exhaustion`.
#[test]
fn portfolio_stats_print_the_fleet_total() {
    let dir = std::env::temp_dir().join(format!("lassynth-cli-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = bin()
        .arg("synth")
        .arg(cnot_spec_path())
        .arg("--out")
        .arg(&dir)
        .args(["--seeds", "2", "--share-clauses", "--stats"])
        .output()
        .expect("run lassynth synth --seeds 2 --stats");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let (_, fleet) = text
        .split_once("portfolio total (2 workers):")
        .unwrap_or_else(|| panic!("portfolio total block: {text}"));
    let (total, exhaustion) = fleet
        .split_once("portfolio exhaustion:")
        .unwrap_or_else(|| panic!("portfolio exhaustion block: {text}"));
    for counter in [
        " conflicts=",
        "propagations=",
        "exported_clauses=",
        "imported_kept=",
    ] {
        assert!(total.contains(counter), "{counter} in the total: {text}");
    }
    assert!(!total.contains("exhausted_"), "{text}");
    for counter in [
        " conflicts=0",
        " deadline=0",
        " memory=0",
        "quarantined_workers=0",
    ] {
        assert!(
            exhaustion.contains(counter),
            "{counter} in the exhaustion: {text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
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

    // Layered encoding: the activation chain must fully gate. With the
    // default `--lo 1` the CNOT's depth-1 floor is invalid, but a depth
    // search never probes it: the lint covers the same valid-depth
    // window the search solves, so it reports instead of failing.
    for range in [&["--lo", "2", "--hi", "4"][..], &["--hi", "4"]] {
        let layered = bin()
            .arg("lint-cnf")
            .arg(cnot_spec_path())
            .args(range)
            .output()
            .expect("run lassynth lint-cnf --lo --hi");
        assert!(
            layered.status.success(),
            "{range:?} stderr: {}",
            String::from_utf8_lossy(&layered.stderr)
        );
        let text = String::from_utf8_lossy(&layered.stdout);
        assert!(text.starts_with("cnf: "), "{range:?} report header: {text}");
        assert!(
            !text.contains("ungated-activation"),
            "every activation literal gates a payload: {text}"
        );
    }

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

/// The resource-governor flags: malformed values are usage errors
/// before any solving; valid values are accepted and `--stats` reports
/// the per-axis exhaustion counters.
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
    for bad in [["--timeout", "0"], ["--timeout", "never"]] {
        let out = bin()
            .arg("depth")
            .arg(cnot_spec_path())
            .args(bad)
            .output()
            .expect("run lassynth depth with a bad timeout");
        assert_eq!(out.status.code(), Some(2), "depth {bad:?} must exit 2");
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

/// The width-5 majority gate searches as a depth fleet. A fault that
/// panics every solver at conflict 10 crashes each depth worker before
/// any decides, so the run fails closed: exit 1 naming the first crash.
#[test]
fn depth_fleet_with_no_survivors_fails_closed() {
    let out = bin()
        .arg("depth")
        .arg(majority_w5_spec_path())
        .env("LASSYNTH_FAULT", "panic@10")
        .output()
        .expect("run lassynth depth with every worker crashing");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(
            "error: every solver worker crashed; first crash: depth 4 worker: injected fault"
        ),
        "{stderr}"
    );
}

/// `examples/specs/majority_w5.json` is the Fig. 15 width-5 majority
/// gate of the workloads crate, as the JSON layer pretty-prints it.
#[test]
fn majority_w5_example_is_the_workloads_spec() {
    let text = std::fs::read_to_string(majority_w5_spec_path()).expect("read majority_w5.json");
    let spec = lassynth::workloads::specs::majority_gate_spec(5);
    let pretty = serde_json::to_string_pretty(&spec).expect("spec prints");
    assert_eq!(text.trim_end(), pretty);
}

/// Sharing clauses needs a portfolio to share between.
#[test]
fn portfolio_flag_conflicts_are_usage_errors() {
    let out = bin()
        .arg("synth")
        .arg(cnot_spec_path())
        .arg("--share-clauses")
        .output()
        .expect("run lassynth synth --share-clauses without a portfolio");
    assert_eq!(out.status.code(), Some(2), "--share-clauses must exit 2");
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
    // A value flag without its value, or with one that does not parse,
    // is a usage error naming the flag — never silently ignored.
    for (args, flag) in [
        (&["synth", "--timeout"][..], "--timeout"),
        (&["synth", "--quantum"], "--quantum"),
        (&["synth", "--seeds"], "--seeds"),
        (&["synth", "--seeds", "0"], "--seeds"),
        (
            &["depth", "--lo", "two", "--hi", "5", "--start", "x"],
            "--lo",
        ),
        (
            &["depth", "--lo", "2", "--hi", "5", "--start", "x"],
            "--start",
        ),
        (&["depth", "--lo", "2", "--hi"], "--hi"),
        (&["lint-cnf", "--lo", "2", "--hi", "q"], "--hi"),
        // Depth 0 never validates: a zero bound is refused as given.
        (&["depth", "--lo", "0"], "--lo"),
        (&["depth", "--hi", "0"], "--hi"),
        (&["lint-cnf", "--lo", "0"], "--lo"),
        // Fleet flags without a fleet to act on: the CNOT's depth
        // search runs as a walk, and the message says so.
        (&["synth", "--quantum", "5"], "--quantum"),
        (
            &["depth", "--quantum", "5"],
            "--quantum needs a depth fleet, but this spec searches as a sequential walk",
        ),
        (
            &["depth", "--share-clauses"],
            "--share-clauses needs a depth fleet, but this spec searches as a sequential walk",
        ),
    ] {
        let out = bin()
            .arg(args[0])
            .arg(cnot_spec_path())
            .args(&args[1..])
            .output()
            .expect("run lassynth");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} exits 2: {stderr}");
        assert!(stderr.contains(flag), "{args:?} names {flag}: {stderr}");
    }
}

/// Every subcommand accepts only the arguments in its flag table: a
/// misspelt flag, another subcommand's flag, a repeated flag, a removed
/// spelling or a stray operand is a usage error naming it, never
/// silently ignored.
#[test]
fn arguments_outside_the_flag_table_are_usage_errors() {
    let spec = cnot_spec_path();
    let spec = spec.to_str().expect("utf-8 path");
    // A design `verify` accepts on its own, so only the stray second
    // operand can fail the run.
    let dir = std::env::temp_dir().join(format!("lassynth-cli-strict-{}", std::process::id()));
    let synth = bin()
        .args(["synth", spec, "--out"])
        .arg(&dir)
        .output()
        .expect("run lassynth synth");
    assert!(synth.status.success());
    let design = dir.join("cnot.lasre");
    let design = design.to_str().expect("utf-8 path");
    for (args, offender) in [
        (&["synth", spec, "--certfy"][..], "--certfy"),
        (&["synth", spec, "--depth-parallel"], "--depth-parallel"),
        // The spec picks walk or fleet; there is no strategy flag.
        (&["depth", spec, "--depth-parallel"], "--depth-parallel"),
        (&["depth", spec, "--seeds", "2"], "--seeds"),
        (&["lint-cnf", spec, "--certify"], "--certify"),
        (
            &["synth", spec, "--timeout", "5", "--timeout", "6"],
            "--timeout",
        ),
        (&["depth", spec, "--deadline", "5"], "--deadline"),
        (&["depth", spec, "--no-incremental"], "--no-incremental"),
        // The CLI solves with the in-tree CDCL solver only; other
        // solvers take the `dimacs` output.
        (
            &["synth", spec, "--varisat"],
            "unexpected argument --varisat",
        ),
        (
            &["depth", spec, "--varisat"],
            "unexpected argument --varisat",
        ),
        (&["verify", design, "b.lasre"], "b.lasre"),
        // `--lo`/`--hi` layer a spec's encoding; a DIMACS file has none.
        (&["lint-cnf", "clean.cnf", "--lo", "2"], "--lo"),
    ] {
        let out = bin().args(args).output().expect("run lassynth");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} exits 2: {stderr}");
        assert!(
            stderr.contains(offender),
            "{args:?} names {offender}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that closes stdout early (`synth … | true`) ends the run
/// quietly: no panic text, no panic exit status.
#[test]
fn closed_stdout_ends_the_run_quietly() {
    let dir = std::env::temp_dir().join(format!("lassynth-cli-pipe-{}", std::process::id()));
    let mut child = bin()
        .arg("synth")
        .arg(cnot_spec_path())
        .arg("--out")
        .arg(&dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn lassynth synth");
    // Close the read end before the solve can print anything.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for lassynth synth");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An `--out` directory or `--drat` file that cannot be written is an
/// `error: …` exit 1, not a panic.
#[test]
fn unwritable_output_paths_fail_cleanly() {
    let dir = std::env::temp_dir().join(format!("lassynth-cli-unwritable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    // A path below a regular file can be neither created nor written.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "").expect("write blocker file");
    for extra in [
        vec!["--out".into(), blocker.join("out")],
        vec![
            "--certify".into(),
            "--drat".into(),
            blocker.join("proof.drat"),
            "--out".into(),
            dir.clone(),
        ],
    ] {
        let out = bin()
            .arg("synth")
            .arg(cnot_spec_path())
            .args(&extra)
            .output()
            .expect("run lassynth synth");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{extra:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every failed run, whatever its cause, exits 1 with stderr starting
/// `error: `: a missing or malformed spec, an invalid one, a design whose
/// values give a K pipe end two colors, and a malformed DIMACS file.
#[test]
fn failures_share_one_error_prefix() {
    let dir = std::env::temp_dir().join(format!("lassynth-cli-prefix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let text = std::fs::read_to_string(cnot_spec_path()).expect("read cnot spec");
    let truncated = dir.join("truncated.json");
    std::fs::write(&truncated, &text[..text.len() / 2]).expect("write truncated spec");
    let zero = dir.join("zero.json");
    std::fs::write(&zero, text.replace("\"max_k\": 3", "\"max_k\": 0")).expect("write zero spec");
    // Values bit 13 of the synthesized CNOT gives a K pipe end two colors.
    let synth = bin()
        .arg("synth")
        .arg(cnot_spec_path())
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("run lassynth synth");
    assert!(synth.status.success(), "synth: {:?}", synth);
    let design = std::fs::read_to_string(dir.join("cnot.lasre")).expect("read cnot.lasre");
    let bit = design.find("\"values\": \"").expect("values string") + "\"values\": \"".len() + 13;
    let flip = if &design[bit..=bit] == "0" { "1" } else { "0" };
    let flipped = dir.join("flipped.lasre");
    let mut tampered = design.clone();
    tampered.replace_range(bit..=bit, flip);
    std::fs::write(&flipped, tampered).expect("write flipped design");
    let cnf = dir.join("bad.cnf");
    std::fs::write(&cnf, "p cnf 2 1\n1 x 0\n").expect("write cnf");
    let drat = dir.join("empty.drat");
    std::fs::write(&drat, "").expect("write drat");
    let missing = dir.join("missing.json");
    let runs: [&[&std::path::Path]; 7] = [
        &["synth".as_ref(), &missing],
        &["synth".as_ref(), &truncated],
        &["dimacs".as_ref(), &truncated],
        &["depth".as_ref(), &zero],
        &["verify".as_ref(), &flipped],
        &["render".as_ref(), &flipped],
        &["check-proof".as_ref(), &cnf, &drat],
    ];
    for args in runs {
        let out = bin().args(args).output().expect("run lassynth");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
