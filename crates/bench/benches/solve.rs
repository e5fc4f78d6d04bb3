//! End-to-end synthesis of small subroutines (encode + solve + decode +
//! verify), the per-instance cost behind Fig. 13, plus the solver-only
//! majority-gate measurement tracked across commits via
//! `BENCH_solve_majority_3x3x5.json`.

use bench_support::report::BenchRecord;
use criterion::{criterion_group, criterion_main, Criterion};
use lasre::LasSpec;
use sat::{Backend, Budget, CdclSolver};
use synth::optimize::{find_min_depth, find_min_depth_scratch, DepthSearch};
use synth::{SynthError, SynthOptions, Synthesizer};
use workloads::graphs::Graph;
use workloads::specs::graph_state_spec;

fn bench_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve");
    group.sample_size(10);
    group.bench_function("cnot", |b| {
        b.iter(|| {
            let r = Synthesizer::new(lasre::fixtures::cnot_spec())
                .unwrap()
                .run()
                .unwrap();
            assert!(r.is_sat());
        })
    });
    for n in [4usize, 6] {
        let g = Graph::cycle(n);
        group.bench_function(format!("graph_state_ring{n}_d2"), |b| {
            b.iter(|| {
                let r = Synthesizer::new(graph_state_spec(&g, 2))
                    .unwrap()
                    .run()
                    .unwrap();
                assert!(r.is_sat());
            })
        });
    }
    group.bench_function("majority_3x3x5", |b| {
        b.iter(|| {
            let spec = workloads::specs::majority_gate_spec(3);
            let r = Synthesizer::new(spec).unwrap().run().unwrap();
            assert!(r.is_sat());
        })
    });
    group.finish();
    emit_majority_record();
    emit_min_depth_records();
}

/// Measures the solver (alone, on a pre-built encoding) on the
/// majority-gate CNF and writes the tracked `BENCH_*.json` record.
fn emit_majority_record() {
    let spec = workloads::specs::majority_gate_spec(3);
    let synth = Synthesizer::new(spec).expect("valid majority spec");
    let cnf = synth.cnf();
    const SAMPLES: u32 = 10;
    let mut solver = CdclSolver::default();
    // Warm-up, unrecorded.
    assert!(solver.solve_with(cnf, &[], &Budget::default()).is_sat());
    let start = std::time::Instant::now();
    for _ in 0..SAMPLES {
        let out = solver.solve_with(cnf, &[], &Budget::default());
        assert!(out.is_sat(), "majority gate must stay SAT");
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(SAMPLES);
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

/// Measures the full min-depth probe sequence on the majority gate in
/// both modes and writes one tracked record each: the incremental
/// session (depth-layered CNF, learnt clauses shared across probes)
/// against from-scratch re-encoding per probe. The two searches must
/// agree probe-for-probe — the differential half of the ISSUE's
/// acceptance criterion — before either record is written.
fn emit_min_depth_records() {
    // The paper's workflow: start at the spec's depth (5), descend to
    // the minimum; `HI` leaves ascending headroom that a descending
    // search never pays for.
    const LO: usize = 4;
    const HI: usize = 6;
    const START: usize = 5;
    const SAMPLES: u32 = 5;
    /// One depth-search mode: `find_min_depth` or its from-scratch
    /// oracle.
    type Search =
        fn(&LasSpec, usize, usize, usize, &SynthOptions) -> Result<DepthSearch, SynthError>;
    let spec = workloads::specs::majority_gate_spec(3);
    let run = |search: Search| -> DepthSearch {
        search(&spec, LO, HI, START, &SynthOptions::default()).expect("majority depth search")
    };
    // Untimed certified rerun: every UNSAT probe must carry a DRAT
    // proof the in-tree checker accepts, without perturbing the timed
    // (proof-logging-off) measurements above. `find_min_depth` errors
    // if any proof fails to check, so reaching the flag computation at
    // all means no uncertified UNSAT slipped through. (On this
    // instance depth `LO` is SAT and `LO - 1` is structurally invalid,
    // so the certified sweep is vacuous unless the search regresses —
    // the pigeonhole family in `crates/sat/tests/certify.rs` covers
    // non-trivial refutations.)
    let certify = |search: Search| -> bool {
        let options = SynthOptions {
            certify: true,
            ..SynthOptions::default()
        };
        search(&spec, LO, HI, START, &options)
            .expect("certified depth search")
            .probes
            .iter()
            .all(|p| p.certified == (p.sat == Some(false)))
    };
    // Measures one mode and returns (record, probe verdicts) — the
    // verdicts come from the sampled runs themselves, so the
    // cross-mode agreement check below costs no extra solves. (The
    // same property is unit-gated by `tests/min_depth.rs`.)
    let measure = |name: &str, mode: Search| -> (BenchRecord, Vec<(usize, Option<bool>)>) {
        let mut wall_ms = 0.0;
        let mut conflicts = 0;
        let mut propagations = 0;
        let mut verdicts = Vec::new();
        for _ in 0..SAMPLES {
            let start = std::time::Instant::now();
            let search = run(mode);
            wall_ms += start.elapsed().as_secs_f64() * 1e3;
            conflicts = search
                .probes
                .iter()
                .filter_map(|p| p.stats)
                .map(|s| s.conflicts)
                .sum();
            propagations = search
                .probes
                .iter()
                .filter_map(|p| p.stats)
                .map(|s| s.propagations)
                .sum();
            verdicts = search.probes.iter().map(|p| (p.max_k, p.sat)).collect();
        }
        let record = BenchRecord {
            name: name.into(),
            wall_ms: wall_ms / f64::from(SAMPLES),
            conflicts,
            propagations,
            proof_checked: Some(certify(mode)),
        };
        (record, verdicts)
    };
    let (incremental, inc_verdicts) =
        measure("min_depth_majority_3x3x5_incremental", find_min_depth);
    let (scratch, scratch_verdicts) =
        measure("min_depth_majority_3x3x5_scratch", find_min_depth_scratch);
    assert_eq!(
        inc_verdicts, scratch_verdicts,
        "incremental and from-scratch depth searches must agree"
    );
    incremental.emit();
    scratch.emit();
}

criterion_group!(benches, bench_solve);
criterion_main!(benches);
