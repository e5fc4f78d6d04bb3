//! CNF formulas.

use crate::{Lit, Var};

/// A formula in conjunctive normal form.
///
/// Clauses are stored verbatim (the [`crate::CnfBuilder`] performs
/// simplification at emission time; the solver performs its own
/// root-level propagation), back to back in one literal buffer with
/// one end offset per clause — the layout of a solver's flat clause
/// region (MiniSat), and of the proof log and elimination frames. A
/// formula of a million literals is two allocations, not one per
/// clause.
///
/// ```
/// use sat::{Cnf, Lit, Var};
/// let mut cnf = Cnf::new(2);
/// cnf.add_clause([Lit::pos(Var(0)), Lit::neg(Var(1))]);
/// assert_eq!(cnf.num_clauses(), 1);
/// assert_eq!(cnf.num_vars(), 2);
/// let first: &[Lit] = cnf.iter().next().unwrap();
/// assert_eq!(first, [Lit::pos(Var(0)), Lit::neg(Var(1))]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: usize,
    /// The literals of every clause, in insertion order.
    lits: Vec<Lit>,
    /// `ends[i]` is one past the last literal of clause `i` in
    /// [`Cnf::lits`].
    ends: Vec<u32>,
}

impl Cnf {
    /// Creates an empty formula over `num_vars` variables.
    pub fn new(num_vars: usize) -> Cnf {
        Cnf {
            num_vars,
            lits: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// Total number of literal occurrences.
    pub fn num_lits(&self) -> usize {
        self.lits.len()
    }

    /// Allocates a fresh variable.
    pub fn add_var(&mut self) -> Var {
        let v = Var(self.num_vars as u32);
        self.num_vars += 1;
        v
    }

    /// Ensures at least `n` variables exist.
    pub fn ensure_vars(&mut self, n: usize) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Adds a clause. Variables are grown on demand.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let start = self.lits.len();
        self.lits.extend(lits);
        let top = self.lits[start..].iter().map(|l| l.var().index() + 1).max();
        self.ensure_vars(top.unwrap_or(0));
        self.ends.push(self.lits.len() as u32);
    }

    /// Iterates over the clauses, in insertion order.
    pub fn iter(&self) -> Clauses<'_> {
        Clauses {
            lits: &self.lits,
            ends: self.ends.iter(),
            start: 0,
        }
    }

    /// Evaluates the formula under a complete assignment.
    ///
    /// Used by tests and by debug assertions to check models.
    pub fn eval(&self, model: &crate::Model) -> bool {
        self.iter().all(|c| c.iter().any(|&l| model.lit_true(l)))
    }
}

/// Iterator over the clauses of a [`Cnf`], each a literal slice.
#[derive(Clone, Debug)]
pub struct Clauses<'a> {
    lits: &'a [Lit],
    ends: std::slice::Iter<'a, u32>,
    start: usize,
}

impl<'a> Iterator for Clauses<'a> {
    type Item = &'a [Lit];

    fn next(&mut self) -> Option<&'a [Lit]> {
        let end = *self.ends.next()? as usize;
        let clause = &self.lits[self.start..end];
        self.start = end;
        Some(clause)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for Clauses<'_> {}

impl<'a> IntoIterator for &'a Cnf {
    type Item = &'a [Lit];
    type IntoIter = Clauses<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;

    fn lit(i: i64) -> Lit {
        Lit::from_dimacs(i)
    }

    #[test]
    fn grows_vars_on_demand() {
        let mut cnf = Cnf::new(0);
        cnf.add_clause([Lit::pos(Var(4))]);
        assert_eq!(cnf.num_vars(), 5);
        // A clause over lower variables never shrinks the count.
        cnf.add_clause([Lit::pos(Var(1))]);
        assert_eq!(cnf.num_vars(), 5);
    }

    #[test]
    fn eval_checks_all_clauses() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([Lit::pos(Var(0))]);
        cnf.add_clause([Lit::neg(Var(1))]);
        assert!(cnf.eval(&Model::new(vec![true, false])));
        assert!(!cnf.eval(&Model::new(vec![true, true])));
        assert!(!cnf.eval(&Model::new(vec![false, false])));
    }

    #[test]
    fn counts() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause([Lit::pos(Var(0)), Lit::pos(Var(1))]);
        cnf.add_clause([Lit::neg(Var(2))]);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.num_lits(), 3);
    }

    #[test]
    fn clause_boundaries_survive_flat_storage() {
        let mut cnf = Cnf::new(0);
        cnf.add_clause([lit(1), lit(-2), lit(3)]);
        cnf.add_clause([lit(-3)]);
        cnf.add_clause([lit(2), lit(4)]);
        let clauses: Vec<&[Lit]> = cnf.iter().collect();
        assert_eq!(
            clauses,
            [
                &[lit(1), lit(-2), lit(3)][..],
                &[lit(-3)],
                &[lit(2), lit(4)]
            ]
        );
        assert_eq!(cnf.iter().len(), 3);
        // `&Cnf` iterates exactly like `iter()`.
        assert!((&cnf).into_iter().eq(cnf.iter()));
        // The iterator's length shrinks as it is consumed.
        let mut it = cnf.iter();
        it.next();
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn empty_clause_is_kept_and_falsifies() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([lit(1)]);
        cnf.add_clause([]);
        cnf.add_clause([lit(-1)]);
        assert_eq!(cnf.num_clauses(), 3);
        assert_eq!(cnf.num_lits(), 2);
        assert_eq!(cnf.num_vars(), 1);
        let lens: Vec<usize> = cnf.iter().map(<[Lit]>::len).collect();
        assert_eq!(lens, [1, 0, 1]);
        // No assignment satisfies an empty clause.
        assert!(!cnf.eval(&Model::new(vec![true])));
        assert!(!cnf.eval(&Model::new(vec![false])));
        // An empty formula is satisfied by anything.
        assert!(Cnf::new(1).eval(&Model::new(vec![false])));
        assert_eq!(Cnf::new(1).iter().len(), 0);
    }

    #[test]
    fn equality_sees_clause_boundaries() {
        let mut ab = Cnf::new(2);
        ab.add_clause([lit(1), lit(2)]);
        let mut a_b = Cnf::new(2);
        a_b.add_clause([lit(1)]);
        a_b.add_clause([lit(2)]);
        // Same literal sequence, different clauses.
        assert_ne!(ab, a_b);
        let mut again = Cnf::new(0);
        again.add_clause([lit(1), lit(2)]);
        assert_eq!(ab, again);
        again.ensure_vars(3);
        assert_ne!(ab, again, "the variable count is part of the formula");
    }

    #[test]
    fn dimacs_round_trip_keeps_every_clause() {
        let mut cnf = Cnf::new(6);
        cnf.add_clause([lit(1), lit(-2), lit(3)]);
        cnf.add_clause([lit(-3)]);
        cnf.add_clause([]);
        cnf.add_clause([lit(2), lit(5), lit(-1), lit(4)]);
        let text = crate::dimacs::to_string(&cnf);
        assert_eq!(text, "p cnf 6 4\n1 -2 3 0\n-3 0\n0\n2 5 -1 4 0\n");
        let back = crate::dimacs::parse(text.as_bytes()).unwrap();
        assert_eq!(back, cnf);
    }
}
