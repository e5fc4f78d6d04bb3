//! Workloads and baselines for the paper's evaluation (Sec. V).
//!
//! * [`graphs`] — simple undirected graphs, generators, graph-state
//!   stabilizers, local complementation, and the 8-qubit benchmark set
//!   substituting the paper's 101 LC-equivalence-class database,
//! * [`mis`] — exact maximum-independent-set solver (branch and bound),
//!   used by the baseline's initialization-basis selection,
//! * [`baseline`] — the 2-lane baseline compiler substituting Liu et
//!   al.'s substrate scheduler: MIS init + interval-scheduled parity
//!   measurements at footprint 32,
//! * [`specs`] — LaS specifications for the paper's subjects: CNOT
//!   (Fig. 2/8/10), graph states (Fig. 13/14), the majority gate
//!   (Fig. 15) and the 15-to-1 T-factory (Figs. 16–18),
//! * [`paper`] — the evaluation corpus: every figure and table row with
//!   its specs beside the paper's volumes and Kissat times.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod baseline;
pub mod graphs;
pub mod mis;
pub mod paper;
pub mod specs;
