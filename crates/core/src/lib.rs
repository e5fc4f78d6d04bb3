//! LaSsynth: SAT-based synthesis of lattice-surgery subroutines.
//!
//! This is the paper's primary contribution (Secs. III–IV): given a
//! [`lasre::LasSpec`] (volume, ports, stabilizer flows), encode the
//! validity and functionality constraints to CNF, query a SAT backend,
//! decode the model into a [`lasre::LasDesign`], post-process (prune
//! disconnected "donuts", infer K-pipe colors, place domain walls) and
//! verify the result through ZX flow derivation.
//!
//! * [`encode`] — constraint emission (paper Fig. 9 and Fig. 11),
//! * [`decode`] — model → design + post-processing,
//! * [`verify`] — pipe diagram → ZX diagram → stabilizer flows,
//! * [`Synthesizer`] — one-shot synthesis with options,
//! * [`optimize`] — the descending/ascending depth searches of paper
//!   Fig. 12b and the diversified seed portfolios, sequential or as one
//!   deterministic lockstep fleet.
//!
//! # Examples
//!
//! ```
//! use synth::Synthesizer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = lasre::fixtures::cnot_spec();
//! let result = Synthesizer::new(spec)?.run()?;
//! let design = result.expect_sat();
//! assert!(design.verified());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod decode;
pub mod encode;
pub mod optimize;
mod session;
mod synthesize;
pub mod verify;

pub use synthesize::{BackendChoice, SynthError, SynthOptions, SynthResult, Synthesizer};
