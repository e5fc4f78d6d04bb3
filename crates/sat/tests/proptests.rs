//! Property-based tests for the SAT stack: solver soundness against
//! brute force, builder gadget semantics, DIMACS round trips, and the
//! inprocessing config-matrix torture harness.

#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]
#![allow(clippy::disallowed_types)]

use proptest::prelude::*;
use sat::{Backend, Budget, CdclConfig, CdclSolver, Cnf, CnfBuilder, Lit, Var};

/// The baseline solver configuration for the differential tests. With
/// `LASSYNTH_FORCE_INPROCESS` set in the environment (CI runs the
/// whole suite a second time that way) it turns into an aggressive
/// inprocessing configuration — restart every other conflict, an
/// inprocessing pass at every restart boundary, fully chronological
/// (out-of-order) backtracking, adaptive EMA restarts, eager
/// rephasing, and the tier database and variable elimination active
/// from the first conflict — so every
/// differential property in this file also tortures the new code
/// paths.
fn base_config() -> CdclConfig {
    let mut config = CdclConfig::default();
    if std::env::var_os("LASSYNTH_FORCE_INPROCESS").is_some() {
        config.restart_base = 1;
        config.inprocess_interval = 0;
        config.chrono_from = Some(0);
        config.tiers_from = Some(0);
        config.elim_from = Some(0);
        config.max_learnts_floor = 8.0;
        config.ema_restarts_from = Some(0);
        config.ema_min_interval = 2;
        config.rephase_interval = Some(8);
    }
    config
}

/// The full search/inprocessing matrix: 8 sessions of subsumption ×
/// out-of-order chronological backtracking × adaptive EMA restarts
/// (Luby otherwise), each on/off, under schedules aggressive enough
/// that the tiny torture instances actually reach the code (inprocess
/// at every restart, restart every other conflict, chrono on every
/// eligible conflict, EMA restarts and rephasing active from the first
/// conflict, GC-heavy learnt budget), plus 4 sessions of tier database
/// × bounded variable elimination, each off or on from the first
/// conflict (`tiers_from`/`elim_from` = `None`/`Some(0)`). (In the
/// first 8 sessions those features sit behind the default
/// 2000-conflict gate, which the tiny instances never reach — they
/// double as the legacy-behaviour control.)
fn inprocessing_matrix() -> Vec<CdclConfig> {
    let mut configs = Vec::with_capacity(12);
    for sub in [false, true] {
        for chrono in [false, true] {
            for ema in [false, true] {
                configs.push(CdclConfig {
                    use_subsumption: sub,
                    chrono_from: chrono.then_some(0),
                    inprocess_interval: 0,
                    restart_base: 1,
                    max_learnts_floor: 8.0,
                    ema_restarts_from: ema.then_some(0),
                    ema_min_interval: 2,
                    rephase_interval: Some(if ema { 8 } else { 10_000 }),
                    ..CdclConfig::default()
                });
            }
        }
    }
    for tiers in [false, true] {
        for elim in [false, true] {
            configs.push(CdclConfig {
                tiers_from: tiers.then_some(0),
                elim_from: elim.then_some(0),
                chrono_from: Some(0),
                inprocess_interval: 0,
                restart_base: 1,
                max_learnts_floor: 8.0,
                ema_restarts_from: Some(0),
                ema_min_interval: 2,
                rephase_interval: Some(8),
                ..CdclConfig::default()
            });
        }
    }
    configs
}

/// Pigeonhole CNF: `pigeons` into `holes` (UNSAT iff pigeons > holes).
fn pigeonhole_cnf(pigeons: i64, holes: i64) -> Cnf {
    let p = |i: i64, j: i64| (i - 1) * holes + j;
    let mut cnf = Cnf::new(0);
    for i in 1..=pigeons {
        cnf.add_clause((1..=holes).map(|j| Lit::from_dimacs(p(i, j))));
    }
    for j in 1..=holes {
        for a in 1..=pigeons {
            for b in (a + 1)..=pigeons {
                cnf.add_clause([Lit::from_dimacs(-p(a, j)), Lit::from_dimacs(-p(b, j))]);
            }
        }
    }
    cnf
}

/// Differential check against the vendored `varisat` backend on
/// pigeonhole instances, both the UNSAT (n+1 into n) and the SAT
/// (n into n) family, including a GC-heavy configuration.
#[test]
fn cdcl_matches_varisat_on_pigeonhole() {
    for holes in 2i64..=6 {
        for pigeons in [holes, holes + 1] {
            let cnf = pigeonhole_cnf(pigeons, holes);
            let theirs = sat::VarisatBackend.solve(&cnf).is_sat();
            for config in [
                CdclConfig::default(),
                CdclConfig {
                    max_learnts_floor: 10.0,
                    ..CdclConfig::default()
                },
            ] {
                match CdclSolver::with_config(config.clone()).solve(&cnf) {
                    sat::SolveOutcome::Sat(model) => {
                        assert!(
                            theirs,
                            "php({pigeons},{holes}) verdict mismatch: {config:?}"
                        );
                        assert!(cnf.eval(&model), "php({pigeons},{holes}) bogus model");
                    }
                    sat::SolveOutcome::Unsat => {
                        assert!(
                            !theirs,
                            "php({pigeons},{holes}) verdict mismatch: {config:?}"
                        );
                    }
                    sat::SolveOutcome::Unknown(_) => {
                        panic!("php({pigeons},{holes}) unbounded solve returned unknown")
                    }
                }
            }
        }
    }
}

fn arb_cnf(max_vars: u32, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    let clause = proptest::collection::vec((0..max_vars, any::<bool>()), 1..4);
    proptest::collection::vec(clause, 0..max_clauses).prop_map(move |clauses| {
        let mut cnf = Cnf::new(max_vars as usize);
        for c in clauses {
            cnf.add_clause(c.into_iter().map(|(v, neg)| Lit::new(Var(v), neg)));
        }
        cnf
    })
}

/// Exhaustive SAT check for tiny variable counts.
fn brute_force_sat(cnf: &Cnf) -> bool {
    let n = cnf.num_vars();
    assert!(n <= 16);
    (0u32..1 << n).any(|mask| {
        cnf.iter().all(|clause| {
            clause.iter().any(|l| {
                let val = mask >> l.var().0 & 1 == 1;
                val ^ l.is_neg()
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The CDCL verdict matches brute force on every small instance,
    /// and SAT models actually satisfy the formula.
    #[test]
    fn cdcl_matches_brute_force(cnf in arb_cnf(8, 24)) {
        let expected = brute_force_sat(&cnf);
        match CdclSolver::with_config(base_config()).solve(&cnf) {
            sat::SolveOutcome::Sat(model) => {
                prop_assert!(expected);
                prop_assert!(cnf.eval(&model));
            }
            sat::SolveOutcome::Unsat => prop_assert!(!expected),
            sat::SolveOutcome::Unknown(_) => prop_assert!(false, "unbounded solve returned unknown"),
        }
    }

    /// The default configuration with randomly flipped decision
    /// polarities stays sound.
    #[test]
    fn ablations_match_brute_force(cnf in arb_cnf(7, 18)) {
        let config = CdclConfig { random_polarity_freq: 0.3, ..CdclConfig::default() };
        let got = CdclSolver::with_config(config).solve(&cnf).is_sat();
        prop_assert_eq!(got, brute_force_sat(&cnf));
    }

    /// Solving under assumptions equals solving with the assumptions
    /// added as unit clauses.
    #[test]
    fn assumptions_equal_units(cnf in arb_cnf(6, 14), a in 0u32..6, neg in any::<bool>()) {
        let lit = Lit::new(Var(a), neg);
        let with_assumption =
            CdclSolver::default().solve_with(&cnf, &[lit], &Budget::default()).is_sat();
        let mut with_unit = cnf.clone();
        with_unit.add_clause([lit]);
        let expected = brute_force_sat(&with_unit);
        prop_assert_eq!(with_assumption, expected);
    }

    /// DIMACS round trips preserve the formula exactly.
    #[test]
    fn dimacs_roundtrip(cnf in arb_cnf(10, 20)) {
        let text = sat::dimacs::to_string(&cnf);
        let back = sat::dimacs::parse_str(&text).unwrap();
        prop_assert_eq!(back, cnf);
    }

    /// Emit → parse → emit is a fixed point, and the parse is immune to
    /// comments (both `c` and legacy `%`) and blank lines injected
    /// between any two emitted lines.
    #[test]
    fn dimacs_emit_parse_emit_fixed_point(cnf in arb_cnf(10, 20), noise in any::<u64>()) {
        let text = sat::dimacs::to_string(&cnf);
        let mut noisy = String::new();
        for (i, line) in text.lines().enumerate() {
            match (noise >> (2 * (i % 32))) & 3 {
                1 => noisy.push_str("c injected comment 1 2 0\n"),
                2 => noisy.push_str("\n   \n"),
                3 => noisy.push_str("% legacy comment\n"),
                _ => {}
            }
            noisy.push_str(line);
            noisy.push('\n');
        }
        let parsed = sat::dimacs::parse_str(&noisy).expect("noisy emit parses");
        prop_assert_eq!(&parsed, &cnf, "comments/blank lines must not change the formula");
        let text2 = sat::dimacs::to_string(&parsed);
        prop_assert_eq!(&text2, &text, "emit is a fixed point");
        let parsed2 = sat::dimacs::parse_str(&text2).expect("fixed point parses");
        prop_assert_eq!(parsed2, cnf);
    }

    /// Every way of mangling the problem line (and clause bodies) is
    /// rejected with a syntax error rather than silently accepted.
    #[test]
    fn dimacs_rejects_malformed_input(cnf in arb_cnf(6, 8), which in 0usize..7) {
        let body = sat::dimacs::to_string(&cnf);
        let clause_lines: String = body
            .lines()
            .skip(1)
            .flat_map(|l| [l, "\n"])
            .collect();
        let vars = cnf.num_vars();
        let clauses = cnf.num_clauses();
        let bad = match which {
            0 => format!("p dnf {vars} {clauses}\n{clause_lines}"),
            1 => format!("p cnf x {clauses}\n{clause_lines}"),
            2 => format!("p cnf {vars}\n{clause_lines}"),
            3 => format!("p cnf {vars} y\n{clause_lines}"),
            4 => format!("p cnf {vars} {clauses} extra\n{clause_lines}"),
            5 => format!("{body}p cnf {vars} {clauses}\n"),
            _ => format!("{body}7 junk 0\n"),
        };
        prop_assert!(
            sat::dimacs::parse_str(&bad).is_err(),
            "variant {} must be rejected:\n{}",
            which,
            bad
        );
    }

    /// Builder XOR gadget: brute-force equivalence of the emitted CNF
    /// with the parity function.
    #[test]
    fn xor_gadget_is_parity(k in 1usize..5, parity in any::<bool>()) {
        let mut b = CnfBuilder::new();
        let terms = b.new_lits(k);
        b.xor_under(&[], &terms, parity);
        // Enumerate assignments of the k term variables; each must be
        // extendable to a model iff it has the right parity.
        for mask in 0u32..1 << k {
            let assumptions: Vec<Lit> = terms
                .iter()
                .enumerate()
                .map(|(i, &t)| if mask >> i & 1 == 1 { t } else { !t })
                .collect();
            let ok = CdclSolver::default()
                .solve_with(b.cnf(), &assumptions, &Budget::default())
                .is_sat();
            let want = (mask.count_ones() % 2 == 1) == parity;
            prop_assert_eq!(ok, want, "mask {:b}", mask);
        }
    }

    /// Differential check against the vendored `varisat` backend on
    /// random 3-SAT near the phase transition: identical SAT/UNSAT
    /// verdicts, and our SAT models actually satisfy the formula.
    #[test]
    fn cdcl_matches_varisat_on_random_3sat(seed in any::<u64>(), n in 8usize..24) {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = (n as f64 * 4.2) as usize; // near the SAT/UNSAT threshold
        let mut cnf = Cnf::new(n);
        for _ in 0..m {
            let mut cl = Vec::new();
            for _ in 0..3 {
                cl.push(Lit::new(Var(rng.random_range(0..n as u32)), rng.random_bool(0.5)));
            }
            cnf.add_clause(cl);
        }
        let theirs = sat::VarisatBackend.solve(&cnf).is_sat();
        match CdclSolver::with_config(base_config()).solve(&cnf) {
            sat::SolveOutcome::Sat(model) => {
                prop_assert!(theirs, "we say SAT, varisat says UNSAT");
                prop_assert!(cnf.eval(&model), "bogus model");
            }
            sat::SolveOutcome::Unsat => prop_assert!(!theirs, "we say UNSAT, varisat says SAT"),
            sat::SolveOutcome::Unknown(_) => prop_assert!(false, "unbounded solve returned unknown"),
        }
    }

    /// Same differential check under a tiny learnt-clause budget, so
    /// every solve runs through multiple clause-DB GC passes.
    #[test]
    fn gc_heavy_cdcl_matches_varisat(seed in any::<u64>()) {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 20;
        let mut cnf = Cnf::new(n);
        for _ in 0..85 {
            let mut cl = Vec::new();
            for _ in 0..3 {
                cl.push(Lit::new(Var(rng.random_range(0..n as u32)), rng.random_bool(0.5)));
            }
            cnf.add_clause(cl);
        }
        let config = CdclConfig { max_learnts_floor: 8.0, ..base_config() };
        let ours = CdclSolver::with_config(config).solve(&cnf);
        let theirs = sat::VarisatBackend.solve(&cnf).is_sat();
        match ours {
            sat::SolveOutcome::Sat(model) => {
                prop_assert!(theirs);
                prop_assert!(cnf.eval(&model));
            }
            sat::SolveOutcome::Unsat => prop_assert!(!theirs),
            sat::SolveOutcome::Unknown(_) => prop_assert!(false, "unbounded solve returned unknown"),
        }
    }
}

proptest! {
    // The incremental differential harness runs on hundreds of random
    // interleavings — each case is a handful of tiny solves, so the
    // larger budget stays cheap.
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Config-matrix torture harness for the *incremental* API: a
    /// random interleaving of clause additions and assumption solves is
    /// executed by one retained incremental session per search/
    /// inprocessing combination (subsumption × out-of-order
    /// chronological backtracking × Luby/EMA restarts, plus tier
    /// database × variable elimination, each on/off, under schedules
    /// that fire on tiny instances), and
    /// every solve is compared against a fresh `CdclSolver` on the
    /// accumulated formula and the vendored varisat shim. SAT models are checked against the formula and the
    /// assumptions; on UNSAT every session's failing-assumption subset
    /// must itself refute on a fresh solver.
    #[test]
    fn incremental_inprocessing_matrix_matches_fresh_and_varisat(
        n in 6usize..10,
        // Clauses of 2–4 literals: long enough that the accumulated
        // formula develops real conflicts (unit-heavy streams go
        // root-UNSAT before inprocessing can ever fire).
        ops in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec((0u32..10, any::<bool>()), 2..5)),
            1..45,
        ),
    ) {
        let mut sessions: Vec<(CdclConfig, CdclSolver)> = inprocessing_matrix()
            .into_iter()
            .map(|config| (config.clone(), CdclSolver::with_config(config)))
            .collect();
        for (_, session) in &mut sessions {
            // Proof logging on from the first clause: every UNSAT below
            // must come with a checker-accepted refutation.
            session.enable_proof();
            for _ in 0..n {
                session.new_var();
            }
        }
        let mut accumulated = Cnf::new(n);
        for (is_clause, raw) in &ops {
            let lits: Vec<Lit> = raw
                .iter()
                .map(|&(v, neg)| Lit::new(Var(v % n as u32), neg))
                .collect();
            if *is_clause {
                accumulated.add_clause(lits.clone());
                for (_, session) in &mut sessions {
                    session.add_clause(lits.clone());
                }
                continue;
            }
            let fresh = CdclSolver::default()
                .solve_with(&accumulated, &lits, &Budget::default());
            let shim = sat::VarisatBackend.solve_with(&accumulated, &lits, &Budget::default());
            prop_assert_eq!(fresh.is_sat(), shim.is_sat(), "fresh vs varisat diverge");
            for (config, session) in &mut sessions {
                let ours = session.solve_assuming(&lits, &Budget::default());
                prop_assert_eq!(
                    ours.is_sat(),
                    fresh.is_sat(),
                    "incremental vs fresh diverge under sub={} chrono={:?}",
                    config.use_subsumption,
                    config.chrono_from
                );
                match ours {
                    sat::SolveOutcome::Sat(model) => {
                        prop_assert!(accumulated.eval(&model), "bogus incremental model");
                        for &a in &lits {
                            prop_assert!(model.lit_true(a), "model violates assumption {a}");
                        }
                    }
                    sat::SolveOutcome::Unsat => {
                        let core = session.final_assumption_conflict().to_vec();
                        for l in &core {
                            prop_assert!(lits.contains(l), "core literal {l} not assumed");
                        }
                        let recheck = CdclSolver::default()
                            .solve_with(&accumulated, &core, &Budget::default());
                        prop_assert!(recheck.is_unsat(), "assumption core fails to refute");
                        let log = session.proof().expect("proof logging enabled");
                        // Certification verifies only the refutation cone; the full
                        // check still catches an invalid lemma outside it.
                        let checked = sat::proof::check(log);
                        prop_assert!(
                            checked.is_ok(),
                            "a session lemma is neither RUP nor RAT: {:?}",
                            checked.err()
                        );
                        let certified = sat::certify_unsat(log, &core);
                        prop_assert!(
                            certified.is_ok(),
                            "DRAT check rejects the session proof under sub={} \
                             chrono={:?} tiers={:?} elim={:?}: {:?}",
                            config.use_subsumption,
                            config.chrono_from,
                            config.tiers_from,
                            config.elim_from,
                            certified.err()
                        );
                    }
                    sat::SolveOutcome::Unknown(_) => {
                        prop_assert!(false, "unbounded solve returned unknown")
                    }
                }
            }
        }
    }
}

proptest! {
    // Fewer cases than the plain matrix: each case drives two workers
    // per config, so the per-case work roughly doubles.
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Import-enabled axis of the torture matrix: every matrix config
    /// drives a *pair* of incremental sessions (seeds 0 and 1) wired
    /// through a [`sat::ClauseExchange`], so each solve also consumes
    /// whatever its sibling exported on earlier solves — imports land
    /// at solve entry, after RUP-filtering, and
    /// interleave with clause additions, assumption solves and every
    /// inprocessing pass the config enables. Each worker's verdict
    /// must match a fresh solver on the accumulated formula, SAT
    /// models are checked against formula and assumptions, and every
    /// UNSAT must certify under the DRAT checker: imported clauses are
    /// logged as derived (RUP) steps, so an import-fed session's log
    /// stays self-contained and checkable.
    #[test]
    fn exchange_fed_sessions_match_fresh_and_certify(
        n in 6usize..10,
        ops in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec((0u32..10, any::<bool>()), 2..5)),
            1..35,
        ),
    ) {
        use std::sync::Arc;
        let mut fleets: Vec<(CdclConfig, Vec<CdclSolver>)> = inprocessing_matrix()
            .into_iter()
            .map(|config| {
                let hub = Arc::new(sat::ClauseExchange::new(2, 256));
                let workers: Vec<CdclSolver> = (0..2)
                    .map(|w| {
                        let mut solver = CdclSolver::with_config(CdclConfig {
                            seed: w as u64,
                            ..config.clone()
                        });
                        solver.enable_proof();
                        for _ in 0..n {
                            solver.new_var();
                        }
                        solver.connect_exchange(
                            Arc::clone(&hub),
                            w,
                            sat::ShareLimits::default(),
                        );
                        solver
                    })
                    .collect();
                (config, workers)
            })
            .collect();
        let mut accumulated = Cnf::new(n);
        for (is_clause, raw) in &ops {
            let lits: Vec<Lit> = raw
                .iter()
                .map(|&(v, neg)| Lit::new(Var(v % n as u32), neg))
                .collect();
            if *is_clause {
                accumulated.add_clause(lits.clone());
                for (_, workers) in &mut fleets {
                    for session in workers.iter_mut() {
                        session.add_clause(lits.clone());
                    }
                }
                continue;
            }
            let fresh = CdclSolver::default()
                .solve_with(&accumulated, &lits, &Budget::default());
            for (config, workers) in &mut fleets {
                for (w, session) in workers.iter_mut().enumerate() {
                    let ours = session.solve_assuming(&lits, &Budget::default());
                    prop_assert_eq!(
                        ours.is_sat(),
                        fresh.is_sat(),
                        "import-fed worker {} diverges from fresh under sub={} \
                         chrono={:?} tiers={:?} elim={:?}",
                        w,
                        config.use_subsumption,
                        config.chrono_from,
                        config.tiers_from,
                        config.elim_from
                    );
                    match ours {
                        sat::SolveOutcome::Sat(model) => {
                            prop_assert!(accumulated.eval(&model), "bogus import-fed model");
                            for &a in &lits {
                                prop_assert!(model.lit_true(a), "model violates assumption {a}");
                            }
                        }
                        sat::SolveOutcome::Unsat => {
                            let core = session.final_assumption_conflict().to_vec();
                            for l in &core {
                                prop_assert!(lits.contains(l), "core literal {l} not assumed");
                            }
                            let recheck = CdclSolver::default()
                                .solve_with(&accumulated, &core, &Budget::default());
                            prop_assert!(recheck.is_unsat(), "assumption core fails to refute");
                            let log = session.proof().expect("proof logging enabled");
                            // Certification verifies only the refutation cone; the full
                            // check still catches an invalid lemma outside it.
                            let checked = sat::proof::check(log);
                            prop_assert!(
                                checked.is_ok(),
                                "a session lemma is neither RUP nor RAT: {:?}",
                                checked.err()
                            );
                            let certified = sat::certify_unsat(log, &core);
                            prop_assert!(
                                certified.is_ok(),
                                "DRAT check rejects an import-fed proof (worker {}) under \
                                 sub={} chrono={:?} tiers={:?} elim={:?}: {:?}",
                                w,
                                config.use_subsumption,
                                config.chrono_from,
                                config.tiers_from,
                                config.elim_from,
                                certified.err()
                            );
                        }
                        sat::SolveOutcome::Unknown(_) => {
                            prop_assert!(false, "unbounded solve returned unknown")
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    // Each case reruns the whole matrix with two sabotage solves per
    // real solve, so keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Cancellation axis of the torture matrix: before every real
    /// solve, each session is interrupted mid-search — once at a
    /// random small conflict quantum, once under a one-word memory
    /// ceiling — and the re-solve on the same session must still be
    /// sound: verdicts match a fresh solver, models satisfy formula
    /// and assumptions, UNSAT cores refute and their proofs certify.
    /// Interrupted solves may answer early (that is fine); what they
    /// must never do is corrupt the retained session state they
    /// abandoned mid-conflict.
    #[test]
    fn cancelled_sessions_stay_sound_on_resolve(
        n in 6usize..10,
        quantum in 1u64..8,
        ops in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec((0u32..10, any::<bool>()), 2..5)),
            1..30,
        ),
    ) {
        let mut sessions: Vec<(CdclConfig, CdclSolver)> = inprocessing_matrix()
            .into_iter()
            .map(|config| (config.clone(), CdclSolver::with_config(config)))
            .collect();
        for (_, session) in &mut sessions {
            session.enable_proof();
            for _ in 0..n {
                session.new_var();
            }
        }
        let mut accumulated = Cnf::new(n);
        for (op_index, (is_clause, raw)) in ops.iter().enumerate() {
            let lits: Vec<Lit> = raw
                .iter()
                .map(|&(v, neg)| Lit::new(Var(v % n as u32), neg))
                .collect();
            if *is_clause {
                accumulated.add_clause(lits.clone());
                for (_, session) in &mut sessions {
                    session.add_clause(lits.clone());
                }
                continue;
            }
            let fresh = CdclSolver::default()
                .solve_with(&accumulated, &lits, &Budget::default());
            // Vary the interruption point across the op stream so the
            // abandonment lands at different search phases.
            let q = quantum + (op_index as u64 % 5);
            for (config, session) in &mut sessions {
                let partial = session.solve_assuming(&lits, &Budget::conflict_limit(q));
                if let sat::SolveOutcome::Sat(m) = &partial {
                    prop_assert!(accumulated.eval(m), "bogus model from interrupted solve");
                }
                let _ = session.solve_assuming(&lits, &Budget::memory_limit_words(1));
                let ours = session.solve_assuming(&lits, &Budget::default());
                prop_assert_eq!(
                    ours.is_sat(),
                    fresh.is_sat(),
                    "re-solve after cancellation diverges from fresh under sub={} \
                     chrono={:?} tiers={:?} elim={:?}",
                    config.use_subsumption,
                    config.chrono_from,
                    config.tiers_from,
                    config.elim_from
                );
                match ours {
                    sat::SolveOutcome::Sat(model) => {
                        prop_assert!(accumulated.eval(&model), "bogus post-cancellation model");
                        for &a in &lits {
                            prop_assert!(model.lit_true(a), "model violates assumption {a}");
                        }
                    }
                    sat::SolveOutcome::Unsat => {
                        let core = session.final_assumption_conflict().to_vec();
                        for l in &core {
                            prop_assert!(lits.contains(l), "core literal {l} not assumed");
                        }
                        let recheck = CdclSolver::default()
                            .solve_with(&accumulated, &core, &Budget::default());
                        prop_assert!(recheck.is_unsat(), "assumption core fails to refute");
                        let log = session.proof().expect("proof logging enabled");
                        // Certification verifies only the refutation cone; the full
                        // check still catches an invalid lemma outside it.
                        let checked = sat::proof::check(log);
                        prop_assert!(
                            checked.is_ok(),
                            "a session lemma is neither RUP nor RAT: {:?}",
                            checked.err()
                        );
                        let certified = sat::certify_unsat(log, &core);
                        prop_assert!(
                            certified.is_ok(),
                            "DRAT check rejects a post-cancellation proof: {:?}",
                            certified.err()
                        );
                    }
                    sat::SolveOutcome::Unknown(_) => {
                        prop_assert!(false, "unbounded solve returned unknown")
                    }
                }
            }
        }
    }
}
