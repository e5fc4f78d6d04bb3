//! Aaronson–Gottesman stabilizer tableau simulation.
//!
//! This crate is the workspace's substitute for Stim: it simulates
//! Clifford circuits on stabilizer states, supports measurement of
//! arbitrary Pauli-product observables with *forced* outcomes
//! (post-selection), and can extract/reduce the stabilizer group of the
//! simulated state. The ZX flow derivation in `las-zx` is built on it:
//! spiders become GHZ-like gadgets, edges are contracted by forced Bell
//! measurements, and the surviving stabilizer group on the open legs
//! gives the diagram's stabilizer flows.
//!
//! # Examples
//!
//! Prepare a Bell pair and observe the deterministic `XX` outcome:
//!
//! ```
//! use tableau::Tableau;
//!
//! let mut t = Tableau::new(2);
//! t.h(0);
//! t.cx(0, 1);
//! let m = t.measure_pauli(&"XX".parse()?, None);
//! assert!(m.deterministic);
//! assert!(!m.value); // +1 outcome
//! # Ok::<(), pauli::ParsePauliError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod sim;

pub use sim::{MeasurementOutcome, Tableau};
