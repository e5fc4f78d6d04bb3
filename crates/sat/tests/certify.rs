//! End-to-end UNSAT certification: the solver's proof log for the
//! pigeonhole family must pass the in-tree backward DRAT checker, both
//! as `certify_unsat` (only the refutation's dependency cone) and as
//! `proof::check` (every lemma); the binary/text DRAT writers must
//! round-trip through the parser against the original DIMACS inputs,
//! and corrupted proofs must be rejected.

#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]
#![allow(clippy::disallowed_types)]

use sat::proof::{self, StepKind};
use sat::{certify_unsat, Budget, CdclConfig, CdclSolver, Cnf, Lit, ProofLog};

fn lit(i: i64) -> Lit {
    Lit::from_dimacs(i)
}

/// Pigeonhole principle: `pigeons` into `pigeons - 1` holes, UNSAT.
fn pigeonhole(pigeons: i64) -> Cnf {
    let holes = pigeons - 1;
    let p = |i: i64, j: i64| (i - 1) * holes + j;
    let mut c = Cnf::new(0);
    for i in 1..=pigeons {
        c.add_clause((1..=holes).map(|j| lit(p(i, j))));
    }
    for j in 1..=holes {
        for a in 1..=pigeons {
            for b in (a + 1)..=pigeons {
                c.add_clause([lit(-p(a, j)), lit(-p(b, j))]);
            }
        }
    }
    c
}

/// Every inprocessing pass on from the first conflict, so the proof
/// exercises subsumption, BVE, tier demotion and GC deletions — not
/// just 1UIP learnts.
fn aggressive() -> CdclConfig {
    CdclConfig {
        inprocess_interval: 0,
        restart_base: 2,
        chrono_from: Some(0),
        tiers_from: Some(0),
        elim_from: Some(0),
        max_learnts_floor: 8.0,
        ema_restarts_from: Some(0),
        ema_min_interval: 2,
        ..CdclConfig::default()
    }
}

/// Solves `c` (expected UNSAT at the root) with proof logging on and
/// returns the owned log.
fn refute(c: &Cnf, config: CdclConfig) -> ProofLog {
    let mut s = CdclSolver::with_config(config);
    s.enable_proof();
    s.add_cnf(c);
    assert!(s.solve_assuming(&[], &Budget::default()).is_unsat());
    assert!(s.final_assumption_conflict().is_empty());
    s.proof().expect("proof logging enabled").clone()
}

#[test]
fn pigeonhole_family_certifies() {
    for n in 3..=6 {
        for config in [CdclConfig::default(), aggressive()] {
            let log = refute(&pigeonhole(n), config);
            let report = certify_unsat(&log, &[])
                .unwrap_or_else(|e| panic!("php({n}) proof rejected: {e:?}"));
            assert!(report.refuted(), "php({n}) proof has no refutation");
            assert!(report.derived_checked > 0, "php({n}) proof checked nothing");
        }
    }
}

/// The DRAT writer emits only the derived/deleted lines (the input
/// clauses come from the DIMACS side, as `drat-trim` expects); parsing
/// the written file back against the CNF must reproduce a proof the
/// checker accepts, in both text and binary format.
#[test]
fn drat_files_round_trip_against_the_cnf() {
    let c = pigeonhole(5);
    let log = refute(&c, aggressive());
    for binary in [false, true] {
        let mut buf = Vec::new();
        log.write_drat(&mut buf, binary).expect("write drat");
        let back = ProofLog::from_cnf_and_drat(&c, &buf)
            .unwrap_or_else(|e| panic!("binary={binary} drat re-parse failed: {e:?}"));
        let report = proof::check(&back)
            .unwrap_or_else(|e| panic!("binary={binary} round-tripped proof rejected: {e:?}"));
        assert!(report.refuted());
    }
}

/// Rebuilds `log`, letting `f` decide per step whether to keep it
/// verbatim (`Some(step)`) with possibly altered literals, or drop it.
fn mutate(
    log: &ProofLog,
    mut f: impl FnMut(usize, StepKind, &[Lit]) -> Option<Vec<Lit>>,
) -> ProofLog {
    let mut out = ProofLog::new();
    for (i, (kind, lits)) in log.iter().enumerate() {
        let Some(lits) = f(i, kind, lits) else {
            continue;
        };
        match kind {
            StepKind::AddInput => out.add_input(&lits),
            StepKind::AddDerived => out.add_derived(&lits),
            StepKind::Delete => out.delete(&lits),
        }
    }
    out
}

/// Removing a single input clause turns php(5) satisfiable, so a sound
/// checker cannot accept the (unchanged) refutation: some derived or
/// delete step must fail.
#[test]
fn proof_with_a_dropped_input_is_rejected() {
    let log = refute(&pigeonhole(5), aggressive());
    let mut dropped = false;
    let mutated = mutate(&log, |_, kind, lits| {
        if !dropped && kind == StepKind::AddInput {
            dropped = true;
            return None;
        }
        Some(lits.to_vec())
    });
    assert!(dropped);
    assert!(
        certify_unsat(&mutated, &[]).is_err(),
        "checker accepted a refutation of a satisfiable formula"
    );
}

/// Corrupting one literal of one input line (the first pigeon clause
/// loses hole 1) also leaves a satisfiable formula; the unchanged
/// derivation steps must stop checking out.
#[test]
fn proof_with_a_corrupted_input_literal_is_rejected() {
    let log = refute(&pigeonhole(5), aggressive());
    let mut corrupted = false;
    let mutated = mutate(&log, |_, kind, lits| {
        let mut lits = lits.to_vec();
        if !corrupted && kind == StepKind::AddInput {
            corrupted = true;
            lits[0] = !lits[0];
        }
        Some(lits)
    });
    assert!(corrupted);
    assert!(
        certify_unsat(&mutated, &[]).is_err(),
        "checker accepted a proof whose input was tampered with"
    );
}

/// Pins the drat-trim semantics on php(3..6) under both
/// configurations: `certify_unsat` and `proof::check` accept the same
/// proofs, the cone is never larger than the whole lemma set (and
/// strictly smaller somewhere), and a flipped literal in a cone lemma
/// is rejected by both. A cone lemma with an unjustified flip is one
/// whose flip certification rejects at that very lemma; php(3) has
/// none, as its lone unit lemma `(¬x)` is RUP flipped to `(x)` too.
#[test]
fn certification_checks_the_refutation_cone() {
    let mut strictly_smaller = false;
    for n in 3..=6 {
        for config in [CdclConfig::default(), aggressive()] {
            let log = refute(&pigeonhole(n), config);
            let cone = certify_unsat(&log, &[])
                .unwrap_or_else(|e| panic!("php({n}) certification rejected: {e:?}"));
            let all =
                proof::check(&log).unwrap_or_else(|e| panic!("php({n}) check rejected: {e:?}"));
            assert!(all.refuted());
            assert!(
                cone.derived_checked <= all.derived_checked,
                "php({n}): cone {} > all {}",
                cone.derived_checked,
                all.derived_checked
            );
            strictly_smaller |= cone.derived_checked < all.derived_checked;

            let flip = |target: usize| {
                mutate(&log, |i, _, lits| {
                    let mut lits = lits.to_vec();
                    if i == target {
                        lits[0] = !lits[0];
                    }
                    Some(lits)
                })
            };
            // `steps` counts the steps the certifier replayed, up to
            // its root-conflict target.
            let hit = (0..cone.steps)
                .filter(|&i| {
                    let (kind, lits) = log.step(i);
                    kind == StepKind::AddDerived && !lits.is_empty()
                })
                .find_map(|i| {
                    let flipped = flip(i);
                    let err = certify_unsat(&flipped, &[]).err()?;
                    (err.step == Some(i)).then_some((i, flipped))
                });
            match hit {
                Some((i, flipped)) => assert_eq!(
                    proof::check(&flipped).err().and_then(|e| e.step),
                    Some(i),
                    "php({n}): check accepted a flipped cone lemma"
                ),
                None => assert_eq!(n, 3, "php({n}): no cone lemma rejects its flip"),
            }
        }
    }
    assert!(strictly_smaller, "the cone never excluded a lemma");
}

/// An unjustified lemma outside the cone: `(v ∨ w)` over two fresh
/// variables, after an input `(¬v)`, is neither RUP nor RAT, but no
/// step of the refutation can rest on it. `certify_unsat` accepts the
/// proof (drat-trim semantics: only the cone is verified) and
/// `proof::check` rejects it at that lemma.
#[test]
fn unjustified_lemma_outside_the_cone() {
    let c = pigeonhole(5);
    let log = refute(&c, aggressive());
    let v = lit(c.num_vars() as i64 + 1);
    let w = lit(c.num_vars() as i64 + 2);
    let mut padded = ProofLog::new();
    padded.add_input(&[!v]);
    padded.add_derived(&[v, w]);
    for (kind, lits) in log.iter() {
        match kind {
            StepKind::AddInput => padded.add_input(lits),
            StepKind::AddDerived => padded.add_derived(lits),
            StepKind::Delete => padded.delete(lits),
        }
    }
    certify_unsat(&padded, &[]).expect("the refutation cone is intact");
    let err = proof::check(&padded).expect_err("check verifies every lemma");
    assert_eq!(err.step, Some(1));
}
