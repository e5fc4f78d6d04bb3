//! Property-based integration tests across the workspace.

use lassynth::synth::Synthesizer;
use lassynth::workloads::graphs::Graph;
use lassynth::workloads::specs::graph_state_spec;
use lassynth::{pauli, sat};
use proptest::prelude::*;

/// Arbitrary small connected graph.
fn arb_graph(n: usize) -> impl Strategy<Value = Graph> {
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .collect();
    proptest::collection::vec(any::<bool>(), pairs.len()).prop_map(move |mask| {
        let mut g = Graph::new(n);
        // Spanning path keeps it connected; extra edges from the mask.
        for v in 1..n {
            g.add_edge(v - 1, v);
        }
        for (on, &(a, b)) in mask.iter().zip(&pairs) {
            if *on && !g.has_edge(a, b) {
                g.add_edge(a, b);
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every synthesized graph-state design passes the independent
    /// validity checker and ZX verification (the synthesizer verifies
    /// internally; it must never return an unverifiable design).
    #[test]
    fn synthesized_designs_always_verify(g in arb_graph(4)) {
        let spec = graph_state_spec(&g, 2);
        let result = Synthesizer::new(spec).unwrap().run().unwrap();
        if let lassynth::synth::SynthResult::Sat(design) = result {
            prop_assert!(design.verified());
            prop_assert!(lassynth::lasre::check_validity(&design).is_empty());
        }
    }

    /// Graph-state stabilizers are always a valid commuting, full-rank
    /// specification.
    #[test]
    fn graph_state_specs_validate(g in arb_graph(6)) {
        let stabs = g.stabilizers();
        prop_assert!(pauli::all_commute(&stabs));
        prop_assert_eq!(pauli::independent_count(&stabs), 6);
        prop_assert!(graph_state_spec(&g, 3).validate().is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Our CDCL and varisat agree on random 3-SAT instances (beyond the
    /// unit tests' sizes).
    #[test]
    fn solvers_agree(seed in 0u64..500) {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        use sat::Backend;
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 20;
        let m = rng.random_range(40..100);
        let mut cnf = sat::Cnf::new(n);
        for _ in 0..m {
            let mut clause = Vec::new();
            for _ in 0..3 {
                clause.push(sat::Lit::new(
                    sat::Var(rng.random_range(0..n as u32)),
                    rng.random_bool(0.5),
                ));
            }
            cnf.add_clause(clause);
        }
        let ours = sat::CdclSolver::default().solve(&cnf);
        let theirs = sat::VarisatBackend.solve(&cnf);
        prop_assert_eq!(ours.is_sat(), theirs.is_sat());
        if let sat::SolveOutcome::Sat(model) = ours {
            prop_assert!(cnf.eval(&model));
        }
    }
}
