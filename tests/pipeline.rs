//! End-to-end integration: JSON spec → encode → solve → decode →
//! validity → ZX verification → visualization, across all crates.

use lassynth::synth::{optimize, verify, SynthOptions, SynthResult, Synthesizer};
use lassynth::{lasre, sat, viz};

#[test]
fn cnot_full_pipeline_from_json() {
    let spec: lasre::LasSpec =
        serde_json::from_str(include_str!("../examples/specs/cnot.json")).unwrap();
    assert_eq!(spec, lasre::fixtures::cnot_spec());
    let mut synth = Synthesizer::new(spec).unwrap();
    let design = synth.run().unwrap().expect_sat();
    // Validity re-check (independent of the encoder).
    assert!(lasre::check_validity(&design).is_empty());
    // ZX flows contain all four CNOT stabilizers.
    let flows = verify::verify(&design).unwrap();
    assert_eq!(flows.rank(), 4);
    // Visualization round trip.
    let scene = viz::Scene::from_design(&design, viz::SceneOptions::default());
    let gltf = viz::gltf::to_gltf(&scene);
    assert!(serde_json::from_str::<serde_json::Value>(&gltf).is_ok());
    // ASCII rendering mentions every layer.
    let slices = lasre::slices::render(&design);
    assert!(slices.contains("k=2"));
}

#[test]
fn dimacs_export_solves_identically() {
    // The paper's portability argument: the simplified instance can be
    // exported as DIMACS and solved by any solver.
    let spec = lasre::fixtures::cnot_spec();
    let synth = Synthesizer::new(spec).unwrap();
    let text = sat::dimacs::to_string(synth.cnf());
    let reparsed = sat::dimacs::parse_str(&text).unwrap();
    use sat::Backend;
    let ours = sat::CdclSolver::default().solve(&reparsed);
    let theirs = sat::VarisatBackend.solve(&reparsed);
    assert!(ours.is_sat());
    assert!(theirs.is_sat());
}

#[test]
fn paper_fixture_round_trips_through_assumptions() {
    // The hand-built Fig. 8/10 CNOT both validates and verifies.
    let design = lasre::fixtures::cnot_design();
    assert!(lasre::check_validity(&design).is_empty());
    assert!(verify::verify(&design).is_ok());
}

#[test]
fn depth_search_and_port_orders_compose() {
    let spec = lasre::fixtures::cnot_spec();
    let search = optimize::find_min_depth(&spec, 2, 4, 3, &SynthOptions::default()).unwrap();
    assert_eq!(search.best_depth(), Some(3));
    // Swapping control and target still synthesizes at the same depth
    // (CNOT reversed is still a valid Clifford with the permuted flows).
    let swapped = spec.with_port_order(&[1, 0, 3, 2]);
    let search = optimize::find_min_depth(&swapped, 2, 4, 3, &SynthOptions::default()).unwrap();
    assert_eq!(search.best_depth(), Some(3));
    assert!(search.best.unwrap().verified());
}

/// `Synthesizer::run` solves on a fresh incremental session (load the
/// CNF, then `solve_assuming`), certifying or not; its counters must
/// match a one-shot `solve_with` of the same CNF.
#[test]
fn one_shot_run_matches_solve_with() {
    use sat::Backend;
    for spec in [
        lassynth::workloads::specs::majority_gate_spec(3),
        lasre::fixtures::cnot_spec(),
    ] {
        let cnf = Synthesizer::new(spec.clone()).unwrap().cnf().clone();
        let mut reference = sat::CdclSolver::with_config(sat::CdclConfig::default());
        assert!(reference
            .solve_with(&cnf, &[], &sat::Budget::default())
            .is_sat());
        for certify in [false, true] {
            let options = SynthOptions {
                certify,
                ..SynthOptions::default()
            };
            let mut synth = Synthesizer::new(spec.clone())
                .unwrap()
                .with_options(options);
            assert!(synth.run().unwrap().is_sat());
            assert_eq!(
                synth.last_solver_stats(),
                Some(reference.stats),
                "{} (certify={certify})",
                spec.name
            );
        }
    }
}

#[test]
fn unknown_surfaced_not_panicked() {
    let mut synth = Synthesizer::new(lasre::fixtures::cnot_spec())
        .unwrap()
        .with_options(SynthOptions::default().with_time_limit(std::time::Duration::ZERO));
    match synth.run().unwrap() {
        SynthResult::Unknown | SynthResult::Sat(_) => {}
        SynthResult::Unsat => panic!("zero budget must not prove unsat"),
    }
}

/// A seed portfolio without sharing is reproducible: its rounds run
/// on threads, but the verdicts are settled in seed order, so two runs
/// name the same winner and every worker spends the same conflicts. A
/// 20-conflict quantum makes every worker take several threaded turns
/// before the verdict on the small Fig. 15 width-3 gate.
#[test]
fn isolated_portfolio_runs_are_deterministic() {
    let spec = lassynth::workloads::specs::majority_gate_spec(3);
    let options = SynthOptions {
        parallel_quantum: 20,
        ..SynthOptions::default()
    };
    let run = || {
        let o = optimize::solve_portfolio_detailed(&spec, &[0, 1, 2, 3], &options).unwrap();
        assert!(o.result.is_sat());
        for (seed, stats) in &o.worker_stats {
            let conflicts = stats.unwrap().conflicts;
            assert!(
                conflicts > options.parallel_quantum,
                "seed {seed} stopped in its first turn ({conflicts} conflicts)"
            );
        }
        (o.winner_seed, o.worker_stats)
    };
    assert_eq!(run(), run());
}
