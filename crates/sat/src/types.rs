//! Core SAT types: variables, literals, models, budgets, backends.

use crate::Cnf;
use std::fmt;
use std::time::Duration;

/// A propositional variable, numbered from 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub u32);

impl Var {
    /// The variable's index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable or its negation, encoded as `var << 1 | sign`.
///
/// ```
/// use sat::{Lit, Var};
/// let a = Lit::pos(Var(3));
/// assert_eq!((!a).var(), Var(3));
/// assert!((!a).is_neg());
/// assert_eq!(!!a, a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `var`.
    #[inline]
    pub fn pos(var: Var) -> Lit {
        Lit(var.0 << 1)
    }

    /// The negative literal of `var`.
    #[inline]
    pub fn neg(var: Var) -> Lit {
        Lit(var.0 << 1 | 1)
    }

    /// Builds a literal from a variable and a sign (`true` = negated).
    #[inline]
    pub fn new(var: Var, negated: bool) -> Lit {
        Lit(var.0 << 1 | negated as u32)
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is negated.
    #[inline]
    pub fn is_neg(self) -> bool {
        self.0 & 1 != 0
    }

    /// Dense code usable as an array index (`2*var + sign`).
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`Lit::code`].
    #[inline]
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }

    /// Converts to the DIMACS convention (`±(var+1)`).
    pub fn to_dimacs(self) -> i64 {
        let v = (self.var().0 + 1) as i64;
        if self.is_neg() {
            -v
        } else {
            v
        }
    }

    /// Parses from the DIMACS convention.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn from_dimacs(d: i64) -> Lit {
        assert_ne!(d, 0, "dimacs literal 0 is the clause terminator");
        let var = Var(d.unsigned_abs() as u32 - 1);
        Lit::new(var, d < 0)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "¬{}", self.var())
        } else {
            write!(f, "{}", self.var())
        }
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lit({self})")
    }
}

/// A satisfying assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// Wraps a dense assignment (index = variable number).
    pub fn new(values: Vec<bool>) -> Model {
        Model { values }
    }

    /// The value assigned to `var`.
    ///
    /// # Panics
    ///
    /// Panics if the variable is out of range.
    pub fn value(&self, var: Var) -> bool {
        self.values[var.index()]
    }

    /// Whether `lit` is true under the model.
    pub fn lit_true(&self, lit: Lit) -> bool {
        self.value(lit.var()) ^ lit.is_neg()
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the model assigns no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Why a solve gave up before reaching a verdict.
///
/// The resource governor distinguishes the budget axes so callers can
/// react differently: a conflict budget expiring mid-portfolio means
/// "rotate to the next worker", a deadline means "report the anytime
/// answer", a memory ceiling means "this instance needs a bigger box".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExhaustionReason {
    /// The conflict budget ([`Budget::max_conflicts`]) expired.
    Conflicts,
    /// The wall-clock deadline ([`Budget::max_time`]) passed.
    Deadline,
    /// The memory ceiling ([`Budget::max_memory_words`]) was reached
    /// (clause-arena words, covering original and learnt clauses), or
    /// arena growth failed.
    Memory,
}

impl fmt::Display for ExhaustionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExhaustionReason::Conflicts => "conflict budget",
            ExhaustionReason::Deadline => "deadline",
            ExhaustionReason::Memory => "memory ceiling",
        })
    }
}

/// Result of a solve call.
#[derive(Clone, Debug)]
pub enum SolveOutcome {
    /// A satisfying assignment was found.
    Sat(Model),
    /// The formula (with assumptions) is unsatisfiable.
    Unsat,
    /// The budget expired before a verdict, for the given reason.
    Unknown(ExhaustionReason),
}

impl SolveOutcome {
    /// Whether the outcome is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveOutcome::Sat(_))
    }

    /// Whether the outcome is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveOutcome::Unsat)
    }

    /// Extracts the model.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is not `Sat`.
    pub fn expect_sat(self) -> Model {
        match self {
            SolveOutcome::Sat(m) => m,
            #[expect(clippy::panic, reason = "documented panic on a non-SAT outcome")]
            other => panic!("expected SAT, got {other:?}"),
        }
    }
}

/// Resource limits for a solve call.
///
/// Three axes, each unlimited by default: conflicts, wall-clock time
/// and clause-arena memory.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Give up after this many conflicts.
    pub max_conflicts: Option<u64>,
    /// Give up after this much wall-clock time.
    pub max_time: Option<Duration>,
    /// Give up when the clause arena (original + learnt clauses,
    /// header words included) reaches this many `u32` words. Only the
    /// arena is metered — it is the one solver allocation that grows
    /// with the search, so the check needs no allocator hooks — but it
    /// is not most of the process: watch lists, inprocessing indexes,
    /// the elimination stack and the encoding sit outside the ceiling.
    /// On the 30k-conflict Fig. 17/18 T-factory solves the arena peaks
    /// at 8.0 MB, 15% of the 54.5 MB peak resident set (10% of 77.8 MB
    /// before the dense subsumption index, flat elimination frames and
    /// spare-free GC).
    pub max_memory_words: Option<u64>,
}

impl Budget {
    /// A wall-clock budget.
    pub fn time_limit(limit: Duration) -> Budget {
        Budget {
            max_time: Some(limit),
            ..Budget::default()
        }
    }

    /// A conflict-count budget.
    pub fn conflict_limit(limit: u64) -> Budget {
        Budget {
            max_conflicts: Some(limit),
            ..Budget::default()
        }
    }

    /// A clause-arena memory ceiling in `u32` words (see
    /// [`Budget::max_memory_words`]).
    pub fn memory_limit_words(limit: u64) -> Budget {
        Budget {
            max_memory_words: Some(limit),
            ..Budget::default()
        }
    }
}

/// A SAT solving backend.
///
/// The paper emphasizes that its pipeline "is straightforward to port
/// to any SAT solver on the market" via DIMACS; this trait is that
/// porting seam. Implemented by [`crate::CdclSolver`] (ours) and
/// [`crate::VarisatBackend`].
pub trait Backend {
    /// Solves `cnf` under `assumptions` within `budget`. The answer is
    /// for `cnf` alone: nothing an earlier call loaded or learnt takes
    /// part (the CDCL solver resets its state onto `cnf`).
    fn solve_with(&mut self, cnf: &Cnf, assumptions: &[Lit], budget: &Budget) -> SolveOutcome;

    /// Solves without assumptions or limits.
    fn solve(&mut self, cnf: &Cnf) -> SolveOutcome {
        self.solve_with(cnf, &[], &Budget::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_encoding_roundtrip() {
        let v = Var(7);
        assert_eq!(Lit::pos(v).var(), v);
        assert!(!Lit::pos(v).is_neg());
        assert!(Lit::neg(v).is_neg());
        assert_eq!(!Lit::pos(v), Lit::neg(v));
        assert_eq!(Lit::from_code(Lit::neg(v).code()), Lit::neg(v));
    }

    #[test]
    fn dimacs_roundtrip() {
        for d in [1i64, -1, 5, -42] {
            assert_eq!(Lit::from_dimacs(d).to_dimacs(), d);
        }
    }

    #[test]
    #[should_panic(expected = "terminator")]
    fn dimacs_zero_panics() {
        Lit::from_dimacs(0);
    }

    #[test]
    fn model_lookup() {
        let m = Model::new(vec![true, false]);
        assert!(m.value(Var(0)));
        assert!(!m.lit_true(Lit::neg(Var(0))));
        assert!(m.lit_true(Lit::neg(Var(1))));
    }

    #[test]
    fn outcome_helpers() {
        assert!(SolveOutcome::Unsat.is_unsat());
        assert!(SolveOutcome::Sat(Model::new(vec![])).is_sat());
        assert!(!SolveOutcome::Unknown(ExhaustionReason::Conflicts).is_sat());
    }

    #[test]
    fn exhaustion_reasons_render() {
        let rendered: Vec<String> = [
            ExhaustionReason::Conflicts,
            ExhaustionReason::Deadline,
            ExhaustionReason::Memory,
        ]
        .iter()
        .map(|r| r.to_string())
        .collect();
        assert_eq!(rendered, ["conflict budget", "deadline", "memory ceiling"]);
    }

    #[test]
    fn budget_constructors_set_one_axis() {
        let b = Budget::conflict_limit(5);
        assert_eq!(b.max_conflicts, Some(5));
        assert!(b.max_time.is_none() && b.max_memory_words.is_none());
        let b = Budget::memory_limit_words(1 << 20);
        assert_eq!(b.max_memory_words, Some(1 << 20));
        assert!(b.max_conflicts.is_none() && b.max_time.is_none());
        let b = Budget::time_limit(Duration::from_secs(1));
        assert_eq!(b.max_time, Some(Duration::from_secs(1)));
        assert!(b.max_conflicts.is_none() && b.max_memory_words.is_none());
    }
}
