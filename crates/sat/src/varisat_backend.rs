//! Adapter exposing the `varisat` CDCL solver through [`Backend`].
//!
//! The paper's pipeline treats the SAT solver as a swappable component
//! behind DIMACS; this adapter is our second solver for cross-checking
//! verdicts of the in-tree [`crate::CdclSolver`] (the differential
//! tests' oracle, and the source of the benchmark's reference depths).
//! `varisat` has no cooperative interrupt API, so [`Budget`] limits are
//! ignored here.

use crate::{Backend, Budget, Cnf, Lit, Model, SolveOutcome};
use varisat::ExtendFormula;

/// A [`Backend`] implemented by the `varisat` crate.
#[derive(Debug, Default, Clone)]
pub struct VarisatBackend;

impl Backend for VarisatBackend {
    fn solve_with(&mut self, cnf: &Cnf, assumptions: &[Lit], _budget: &Budget) -> SolveOutcome {
        let mut solver = varisat::Solver::new();
        let mut formula = varisat::CnfFormula::new();
        for clause in cnf {
            let lits: Vec<varisat::Lit> = clause
                .iter()
                .map(|l| varisat::Lit::from_dimacs(l.to_dimacs() as isize))
                .collect();
            formula.add_clause(&lits);
        }
        solver.add_formula(&formula);
        let assume: Vec<varisat::Lit> = assumptions
            .iter()
            .map(|l| varisat::Lit::from_dimacs(l.to_dimacs() as isize))
            .collect();
        solver.assume(&assume);
        match solver.solve() {
            Ok(true) => {
                let model = solver.model().unwrap_or_default();
                let mut values = vec![false; cnf.num_vars()];
                for lit in model {
                    let d = lit.to_dimacs();
                    let idx = d.unsigned_abs() - 1;
                    if idx < values.len() {
                        values[idx] = d > 0;
                    }
                }
                SolveOutcome::Sat(Model::new(values))
            }
            Ok(false) => SolveOutcome::Unsat,
            // The shim has no budget semantics: an internal solver
            // error surfaces as an interruption, not a resource
            // verdict.
            Err(_) => SolveOutcome::Unknown(crate::ExhaustionReason::Cancelled),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    #[test]
    fn agrees_with_cdcl_on_small_instances() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..15 {
            let n = 12;
            let m = rng.random_range(20..60);
            let mut c = Cnf::new(n);
            for _ in 0..m {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    cl.push(Lit::new(
                        Var(rng.random_range(0..n as u32)),
                        rng.random_bool(0.5),
                    ));
                }
                c.add_clause(cl);
            }
            let ours = crate::CdclSolver::default().solve(&c).is_sat();
            let theirs = VarisatBackend.solve(&c).is_sat();
            assert_eq!(ours, theirs);
        }
    }

    #[test]
    fn varisat_model_satisfies() {
        let mut c = Cnf::new(3);
        c.add_clause([Lit::pos(Var(0)), Lit::neg(Var(1))]);
        c.add_clause([Lit::pos(Var(1))]);
        c.add_clause([Lit::neg(Var(2))]);
        if let SolveOutcome::Sat(m) = VarisatBackend.solve(&c) {
            assert!(c.eval(&m));
        } else {
            panic!("expected sat");
        }
    }

    #[test]
    fn respects_assumptions() {
        let mut c = Cnf::new(2);
        c.add_clause([Lit::pos(Var(0)), Lit::pos(Var(1))]);
        let out = VarisatBackend.solve_with(
            &c,
            &[Lit::neg(Var(0)), Lit::neg(Var(1))],
            &Budget::default(),
        );
        assert!(out.is_unsat());
    }
}
