//! # LaSsynth — a SAT scalpel for lattice surgery (facade crate)
//!
//! Reproduction of *"A SAT Scalpel for Lattice Surgery: Representation and
//! Synthesis of Subroutines for Surface-Code Fault-Tolerant Quantum
//! Computing"* (ISCA 2024). This crate re-exports the whole workspace
//! under one roof; see the individual crates for details:
//!
//! * [`lasre`] — the LaS representation (specs, ports, pipe diagrams).
//! * [`synth`] — the synthesizer: SAT encoding, decoding, optimization.
//! * [`sat`] — the CDCL SAT solver substrate and CNF tooling.
//! * [`zx`] / [`tableau`] / [`pauli`] / [`gf2`] — verification substrates.
//! * [`workloads`] — graph states, majority gate, T-factory specs, baselines.
//! * [`viz`] — glTF export of 3D pipe diagrams.
//!
//! # Quickstart
//!
//! Synthesize a CNOT lattice-surgery subroutine and verify it.
//! (`workloads::specs::cnot_spec` is a re-export of the canonical
//! [`lasre::fixtures::cnot_spec`]; both paths name the same fixture.)
//!
//! ```
//! use lassynth::workloads::specs::cnot_spec;
//! use lassynth::synth::{Synthesizer, SynthOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = cnot_spec();
//! let result = Synthesizer::new(spec)?.with_options(SynthOptions::default()).run()?;
//! let las = result.expect_sat();
//! assert!(las.verified());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use gf2;
pub use lasre;
pub use pauli;
pub use sat;
pub use synth;
pub use tableau;
pub use viz;
pub use workloads;
pub use zx;
