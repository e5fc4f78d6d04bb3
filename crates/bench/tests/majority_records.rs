//! Majority-gate records (paper Fig. 15, width 3, a 3x3x5 array): the
//! encode time, one solve, and the min-depth search in both modes, each
//! written as a `BENCH_*.json` record that `bench_trend` gates.
//!
//! `#[ignore]`d locally (timing loops); the CI bench-smoke job runs it
//! with `--ignored`. One test measures all four in turn, so no timing
//! loop shares the machine with another.

use bench_support::report::BenchRecord;
use lasre::LasSpec;
use sat::{Backend, Budget, CdclSolver};
use std::hint::black_box;
use synth::encode::encode;
use synth::optimize::{find_min_depth, find_min_depth_scratch, DepthSearch};
use synth::{SynthError, SynthOptions, Synthesizer};
use workloads::specs::majority_gate_spec;

/// Mean wall milliseconds of `samples` timed calls of `f`.
fn mean_ms(samples: u32, mut f: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..samples {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / f64::from(samples)
}

#[test]
#[ignore = "majority-gate timing loops: run by the CI bench-smoke job"]
fn majority_records() {
    let spec = majority_gate_spec(3);
    emit_encode_record(&spec);
    emit_solve_record(&spec);
    emit_min_depth_record(&spec, "incremental", find_min_depth);
    emit_min_depth_record(&spec, "scratch", find_min_depth_scratch);
}

/// Encoding alone, so the solver counters are zero.
fn emit_encode_record(spec: &LasSpec) {
    let _ = encode(spec).unwrap(); // warm-up, unrecorded
    BenchRecord {
        name: "encode_majority_3x3x5".into(),
        wall_ms: mean_ms(20, || {
            black_box(encode(black_box(spec)).unwrap());
        }),
        conflicts: 0,
        propagations: 0,
        proof_checked: None,
    }
    .emit();
}

/// The solver alone, on a pre-built encoding.
fn emit_solve_record(spec: &LasSpec) {
    let synth = Synthesizer::new(spec.clone()).expect("valid majority spec");
    let cnf = synth.cnf();
    let mut solver = CdclSolver::default();
    // Warm-up, unrecorded.
    assert!(solver.solve_with(cnf, &[], &Budget::default()).is_sat());
    let wall_ms = mean_ms(10, || {
        let out = solver.solve_with(cnf, &[], &Budget::default());
        assert!(out.is_sat(), "majority gate must stay SAT");
    });
    BenchRecord {
        name: "solve_majority_3x3x5".into(),
        wall_ms,
        conflicts: solver.stats.conflicts,
        propagations: solver.stats.propagations,
        // SAT instance: nothing to certify.
        proof_checked: None,
    }
    .emit();
}

/// One depth-search mode: `find_min_depth` or its from-scratch oracle.
type Search = fn(&LasSpec, usize, usize, usize, &SynthOptions) -> Result<DepthSearch, SynthError>;

/// The full min-depth probe sequence in one mode. The paper's workflow
/// starts at the spec's depth (5) and descends to the minimum; `hi` 6
/// leaves ascending headroom a descending search never pays for. That
/// both modes agree probe for probe is `tests/min_depth.rs`'s check.
fn emit_min_depth_record(spec: &LasSpec, mode: &str, search: Search) {
    let run =
        |options: &SynthOptions| search(spec, 4, 6, 5, options).expect("majority depth search");
    let mut last = None;
    let wall_ms = mean_ms(5, || last = Some(run(&SynthOptions::default())));
    let probes = last.expect("five samples ran").probes;
    let total = |counter: fn(sat::SolverStats) -> u64| -> u64 {
        probes.iter().filter_map(|p| p.stats).map(counter).sum()
    };
    // Untimed certified rerun: the search errors if any UNSAT probe's
    // DRAT proof fails the in-tree checker, and every UNSAT probe must
    // say it was checked. (Depth 4 is SAT and 3 structurally invalid,
    // so this is vacuous unless the search regresses; the pigeonhole
    // family in `crates/sat/tests/certify.rs` covers real refutations.)
    let certify = SynthOptions {
        certify: true,
        ..SynthOptions::default()
    };
    let proof_checked = run(&certify)
        .probes
        .iter()
        .all(|p| p.certified == (p.sat == Some(false)));
    BenchRecord {
        name: format!("min_depth_majority_3x3x5_{mode}"),
        wall_ms,
        conflicts: total(|s| s.conflicts),
        propagations: total(|s| s.propagations),
        proof_checked: Some(proof_checked),
    }
    .emit();
}
