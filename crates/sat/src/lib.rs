//! SAT solving substrate: CNF construction, simplification, CDCL.
//!
//! The paper's toolchain is `Z3 (encode + simplify) → DIMACS → Kissat`.
//! This crate replaces all three stages with from-scratch Rust:
//!
//! * [`CnfBuilder`] — clause emission with root-level constant
//!   propagation and structural hashing of Tseitin gates (the role of
//!   Z3's `simplify`/`propagate-values` tactics),
//! * [`Cnf`] and [`dimacs`] — the standard interchange format,
//! * [`CdclSolver`] — a conflict-driven clause-learning solver over a
//!   flat clause arena (contiguous `u32` buffer with packed headers and
//!   a compacting garbage collector), with blocker-aware two-watched
//!   literals, an allocation-free 1UIP analysis with recursive
//!   minimization, VSIDS, phase saving, Luby restarts, LBD-based
//!   clause-database reduction, seeded randomization and time/conflict
//!   budgets (see the [`solver`-module docs](CdclSolver) for the arena
//!   layout and GC protocol),
//! * [`VarisatBackend`] — an adapter to the `varisat` crate, the
//!   independent oracle the differential tests cross-check verdicts
//!   against.
//!
//! # Examples
//!
//! ```
//! use sat::{Cnf, Lit, CdclSolver, Backend, Budget, SolveOutcome};
//!
//! let mut cnf = Cnf::new(2);
//! let a = Lit::pos(sat::Var(0));
//! let b = Lit::pos(sat::Var(1));
//! cnf.add_clause([a, b]);
//! cnf.add_clause([!a, b]);
//! match CdclSolver::default().solve_with(&cnf, &[], &Budget::default()) {
//!     SolveOutcome::Sat(model) => assert!(model.value(sat::Var(1))),
//!     _ => unreachable!(),
//! }
//! ```

#![forbid(unsafe_code)]

pub mod analyze;
mod builder;
mod cnf;
pub mod dimacs;
pub mod exchange;
pub mod proof;
mod solver;
mod types;
mod varisat_backend;

pub use analyze::{CnfLint, CnfReport};
pub use builder::CnfBuilder;
pub use cnf::Cnf;
pub use exchange::{ClauseExchange, ShareLimits, SharedClause};
pub use proof::{certify_unsat, CheckReport, ProofLog};
pub use solver::{CdclConfig, CdclSolver, FaultKind, FaultPlan, SolverStats};
pub use types::{Backend, Budget, ExhaustionReason, Lit, Model, SolveOutcome, Var};
pub use varisat_backend::VarisatBackend;
