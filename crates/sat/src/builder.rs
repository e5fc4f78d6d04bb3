//! CNF construction with emission-time simplification.
//!
//! The paper routes its model through Z3's `simplify` and
//! `propagate-values` tactics before SAT solving; [`CnfBuilder`] plays
//! that role here. Ports and forbidden cubes fix a large fraction of
//! the structural variables, so clauses are simplified against a
//! root-level constant store as they are emitted, and Tseitin AND gates
//! are structurally hashed so repeated subterms share one definition.

use crate::{Cnf, Lit, Var};
use std::collections::HashMap;

/// A CNF builder with constant propagation and gate sharing.
///
/// Variable 0 is reserved as the constant `true` (asserted by a unit
/// clause), so constants are ordinary literals and every emission
/// helper accepts them transparently.
///
/// ```
/// use sat::CnfBuilder;
/// let mut b = CnfBuilder::new();
/// let x = b.new_lit();
/// let y = b.new_lit();
/// b.fix(x, true);
/// // Clause (¬x ∨ y) simplifies to the unit (y).
/// b.clause([!x, y]);
/// assert_eq!(b.value(y), Some(true));
/// ```
#[derive(Debug)]
pub struct CnfBuilder {
    cnf: Cnf,
    /// Root-level constants discovered so far (indexed by variable).
    fixed: Vec<Option<bool>>,
    /// Structural hash of AND gates: (a, b) → output literal.
    and_cache: HashMap<(Lit, Lit), Lit>,
    /// Clauses dropped or shrunk by constant propagation (statistics).
    simplified_away: usize,
}

impl Default for CnfBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CnfBuilder {
    /// Creates a builder with the constant-`true` variable asserted.
    pub fn new() -> CnfBuilder {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([Lit::pos(Var(0))]);
        CnfBuilder {
            cnf,
            fixed: vec![Some(true)],
            and_cache: HashMap::new(),
            simplified_away: 0,
        }
    }

    /// The constant `true` literal.
    pub fn true_lit(&self) -> Lit {
        Lit::pos(Var(0))
    }

    /// The constant `false` literal.
    pub fn false_lit(&self) -> Lit {
        Lit::neg(Var(0))
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.cnf.add_var();
        self.fixed.push(None);
        v
    }

    /// Allocates a fresh variable and returns its positive literal.
    pub fn new_lit(&mut self) -> Lit {
        Lit::pos(self.new_var())
    }

    /// Allocates `n` fresh positive literals.
    pub fn new_lits(&mut self, n: usize) -> Vec<Lit> {
        (0..n).map(|_| self.new_lit()).collect()
    }

    /// The value of `lit` if it is a root-level constant.
    pub fn value(&self, lit: Lit) -> Option<bool> {
        self.fixed[lit.var().index()].map(|v| v ^ lit.is_neg())
    }

    /// Fixes `lit` to `value` (emits a unit clause and records the
    /// constant for future simplification).
    ///
    /// # Panics
    ///
    /// Panics if the literal is already fixed to the opposite value —
    /// the encoder never does this; it indicates an inconsistent spec
    /// that should have been rejected earlier.
    pub fn fix(&mut self, lit: Lit, value: bool) {
        let var = lit.var();
        let v = value ^ lit.is_neg();
        match self.fixed[var.index()] {
            Some(existing) => assert_eq!(
                existing, v,
                "contradictory fix of {var} (the spec is inconsistent)"
            ),
            None => {
                self.fixed[var.index()] = Some(v);
                self.cnf.add_clause([Lit::new(var, !v)]);
            }
        }
    }

    /// Emits a clause, simplifying against known constants: true
    /// literals satisfy the clause (dropped), false literals are
    /// removed, duplicates are merged, tautologies are dropped.
    ///
    /// An empty simplified clause is recorded by fixing the constant
    /// `true` to false — i.e. it makes the formula trivially UNSAT via
    /// the clause `(¬true)`.
    pub fn clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let mut out: Vec<Lit> = Vec::new();
        for lit in lits {
            match self.value(lit) {
                Some(true) => {
                    self.simplified_away += 1;
                    return;
                }
                Some(false) => continue,
                None => {
                    if out.contains(&!lit) {
                        self.simplified_away += 1;
                        return; // tautology
                    }
                    if !out.contains(&lit) {
                        out.push(lit);
                    }
                }
            }
        }
        match out.len() {
            0 => self.cnf.add_clause([self.false_lit()]),
            1 => self.fix(out[0], true),
            _ => self.cnf.add_clause(out),
        }
    }

    /// Emits `(g₁ ∧ g₂ ∧ …) ⇒ (l₁ ∨ l₂ ∨ …)`.
    pub fn implies_clause(&mut self, guards: &[Lit], conclusion: &[Lit]) {
        let lits: Vec<Lit> = guards
            .iter()
            .map(|&g| !g)
            .chain(conclusion.iter().copied())
            .collect();
        self.clause(lits);
    }

    /// Emits `guards ⇒ (a = b)`.
    pub fn equal_under(&mut self, guards: &[Lit], a: Lit, b: Lit) {
        self.implies_clause(guards, &[!a, b]);
        self.implies_clause(guards, &[a, !b]);
    }

    /// Returns a literal equivalent to `a ∧ b`, creating (or reusing) a
    /// Tseitin definition. Constants fold away without new variables.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.value(a), self.value(b)) {
            (Some(false), _) | (_, Some(false)) => return self.false_lit(),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.false_lit();
        }
        let key = if a.code() <= b.code() { (a, b) } else { (b, a) };
        if let Some(&t) = self.and_cache.get(&key) {
            return t;
        }
        let t = self.new_lit();
        // t ⇔ a ∧ b
        self.clause([!t, a]);
        self.clause([!t, b]);
        self.clause([t, !a, !b]);
        self.and_cache.insert(key, t);
        t
    }

    /// Returns a literal equivalent to the conjunction of `lits`.
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.true_lit();
        for &l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// Emits `guards ⇒ (t₁ ⊕ t₂ ⊕ … = parity)` by direct expansion.
    ///
    /// Constant terms are folded into `parity`. Intended for the small
    /// parities of the functionality constraints (≤ 4 terms, paper
    /// Sec. III-D: "we are only dealing with three or four terms, so
    /// the translation is simple").
    ///
    /// # Panics
    ///
    /// Panics if more than 8 non-constant terms remain (2⁷ clauses) —
    /// the encoder never emits such parities.
    pub fn xor_under(&mut self, guards: &[Lit], terms: &[Lit], parity: bool) {
        let mut free: Vec<Lit> = Vec::new();
        let mut target = parity;
        for &t in terms {
            match self.value(t) {
                Some(v) => target ^= v,
                None => free.push(t),
            }
        }
        assert!(
            free.len() <= 8,
            "xor expansion too large ({} terms)",
            free.len()
        );
        if free.is_empty() {
            if target {
                // Constraint reduces to guards ⇒ false.
                self.implies_clause(guards, &[]);
            }
            return;
        }
        // Forbid every assignment of the free terms with the wrong parity.
        for mask in 0u32..(1 << free.len()) {
            let ones = mask.count_ones() & 1 == 1;
            if ones == target {
                continue; // this assignment has the correct parity
            }
            // The assignment sets term i true iff bit i of mask; forbid it.
            let clause: Vec<Lit> = free
                .iter()
                .enumerate()
                .map(|(i, &t)| if mask >> i & 1 == 1 { !t } else { t })
                .collect();
            self.implies_clause(guards, &clause);
        }
    }

    /// Emits `guards ⇒ all terms equal` (pairwise).
    ///
    /// This encodes the paper's "all or no orthogonal surfaces" rule
    /// (Fig. 11c): among the correlation pieces of *existing* pipes,
    /// either all are present or none is. Callers pass one term per
    /// existing pipe; pipes whose existence is itself a variable are
    /// handled by extending `guards` per pair.
    pub fn all_equal_under(&mut self, guards: &[Lit], terms: &[(Lit, Lit)]) {
        // terms: (exists, value). For each pair, under both exists: equal.
        for (i, &(ea, va)) in terms.iter().enumerate() {
            for &(eb, vb) in &terms[i + 1..] {
                let mut g: Vec<Lit> = guards.to_vec();
                g.push(ea);
                g.push(eb);
                self.equal_under(&g, va, vb);
            }
        }
    }

    /// Number of clauses dropped by constant propagation so far.
    pub fn simplified_away(&self) -> usize {
        self.simplified_away
    }

    /// The formula built so far.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Consumes the builder, returning the formula.
    pub fn into_cnf(self) -> Cnf {
        self.cnf
    }

    /// Number of variables allocated (including the constant).
    pub fn num_vars(&self) -> usize {
        self.cnf.num_vars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Budget, CdclSolver, SolveOutcome};

    fn solve(b: &CnfBuilder) -> SolveOutcome {
        CdclSolver::default().solve_with(b.cnf(), &[], &Budget::default())
    }

    #[test]
    fn constant_true_is_fixed() {
        let b = CnfBuilder::new();
        assert_eq!(b.value(b.true_lit()), Some(true));
        assert_eq!(b.value(b.false_lit()), Some(false));
    }

    #[test]
    fn unit_clause_fixes() {
        let mut b = CnfBuilder::new();
        let x = b.new_lit();
        b.clause([!x]);
        assert_eq!(b.value(x), Some(false));
    }

    #[test]
    fn satisfied_clause_dropped() {
        let mut b = CnfBuilder::new();
        let x = b.new_lit();
        let before = b.cnf().num_clauses();
        b.clause([b.true_lit(), x]);
        assert_eq!(b.cnf().num_clauses(), before);
        assert_eq!(b.simplified_away(), 1);
    }

    #[test]
    fn tautology_dropped() {
        let mut b = CnfBuilder::new();
        let x = b.new_lit();
        let y = b.new_lit();
        let before = b.cnf().num_clauses();
        b.clause([x, y, !x]);
        assert_eq!(b.cnf().num_clauses(), before);
    }

    #[test]
    fn empty_clause_makes_unsat() {
        let mut b = CnfBuilder::new();
        let x = b.new_lit();
        b.fix(x, false);
        b.clause([x]);
        assert!(solve(&b).is_unsat());
    }

    #[test]
    #[should_panic(expected = "contradictory")]
    fn contradictory_fix_panics() {
        let mut b = CnfBuilder::new();
        let x = b.new_lit();
        b.fix(x, true);
        b.fix(x, false);
    }

    #[test]
    fn and_gate_semantics() {
        let mut b = CnfBuilder::new();
        let x = b.new_lit();
        let y = b.new_lit();
        let t = b.and(x, y);
        b.fix(t, true);
        let model = solve(&b).expect_sat();
        assert!(model.lit_true(x) && model.lit_true(y));
    }

    #[test]
    fn and_gate_shared() {
        let mut b = CnfBuilder::new();
        let x = b.new_lit();
        let y = b.new_lit();
        let t1 = b.and(x, y);
        let t2 = b.and(y, x);
        assert_eq!(t1, t2);
    }

    #[test]
    fn and_constant_folding() {
        let mut b = CnfBuilder::new();
        let x = b.new_lit();
        let t = b.and(b.true_lit(), x);
        assert_eq!(t, x);
        let f = b.and(x, b.false_lit());
        assert_eq!(b.value(f), Some(false));
        assert_eq!(b.and(x, !x), b.false_lit());
        assert_eq!(b.and(x, x), x);
    }

    #[test]
    fn xor_constraint_even() {
        let mut b = CnfBuilder::new();
        let xs = b.new_lits(3);
        b.xor_under(&[], &xs, false);
        b.fix(xs[0], true);
        b.fix(xs[1], false);
        let model = solve(&b).expect_sat();
        assert!(model.lit_true(xs[2])); // parity must be even
    }

    #[test]
    fn xor_constraint_with_constants() {
        let mut b = CnfBuilder::new();
        let x = b.new_lit();
        let t = b.true_lit();
        b.xor_under(&[], &[x, t], true); // x ⊕ 1 = 1 → x = 0
        assert_eq!(b.value(x), Some(false));
    }

    #[test]
    fn xor_guarded_is_vacuous_when_guard_false() {
        let mut b = CnfBuilder::new();
        let g = b.new_lit();
        let xs = b.new_lits(2);
        b.xor_under(&[g], &xs, true);
        b.fix(g, false);
        b.fix(xs[0], false);
        b.fix(xs[1], false);
        assert!(solve(&b).is_sat());
    }

    #[test]
    fn all_equal_under_links_terms() {
        let mut b = CnfBuilder::new();
        let e = b.true_lit();
        let vs = b.new_lits(3);
        let terms: Vec<(Lit, Lit)> = vs.iter().map(|&v| (e, v)).collect();
        b.all_equal_under(&[], &terms);
        b.fix(vs[0], true);
        let model = solve(&b).expect_sat();
        assert!(model.lit_true(vs[1]) && model.lit_true(vs[2]));
    }

    #[test]
    fn equal_and_not_equal() {
        let mut b = CnfBuilder::new();
        let x = b.new_lit();
        let y = b.new_lit();
        let z = b.new_lit();
        b.equal_under(&[], x, y);
        // y ≠ z, as y = ¬z.
        b.equal_under(&[], y, !z);
        b.fix(x, true);
        let model = solve(&b).expect_sat();
        assert!(model.lit_true(y));
        assert!(!model.lit_true(z));
    }
}
