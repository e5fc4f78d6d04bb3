//! LaSsynth: SAT-based synthesis of lattice-surgery subroutines.
//!
//! This is the paper's primary contribution (Secs. III–IV): given a
//! [`lasre::LasSpec`] (volume, ports, stabilizer flows), encode the
//! validity and functionality constraints to CNF, query a SAT backend,
//! decode the model into a [`lasre::LasDesign`], prune disconnected
//! "donuts" and verify the result through ZX flow derivation (domain
//! walls from [`lasre::LasDesign::k_colors`] become Hadamard edges).
//!
//! * [`encode`] — constraint emission (paper Fig. 9 and Fig. 11),
//! * [`decode`] — model → pruned design,
//! * [`verify`] — pipe diagram → ZX diagram → stabilizer flows,
//! * [`Synthesizer`] — one-shot synthesis with options,
//! * [`optimize`] — the descending/ascending depth searches of paper
//!   Fig. 12b, probe by probe or as a deterministic lockstep fleet, and
//!   the diversified seed portfolio, always such a fleet.
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
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod decode;
pub mod encode;
pub mod optimize;
mod session;
mod synthesize;
pub mod verify;

pub use synthesize::{BackendChoice, SynthError, SynthOptions, SynthResult, Synthesizer};
