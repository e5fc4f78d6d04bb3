//! LaSre: the representation of lattice-surgery subroutines (LaS).
//!
//! This crate defines the paper's core data model (Sec. III):
//!
//! * [`geom`] — axes, directions, 3D coordinates and bounds,
//! * [`Port`] and [`LasSpec`] — the LaS specification of paper Fig. 2b
//!   (volume, port layout, stabilizer flows), with JSON (de)serialization,
//! * [`VarTable`] — the dense indexing of the structural variables
//!   (`YCube`, `ExistI/J/K`, `ColorI/J`) and correlation-surface
//!   variables (`CorrIJ/IK/JI/JK/KI/KJ`),
//! * [`LasDesign`] — a solved assignment (the textual `LaSre` output of
//!   the paper), with pipe/junction accessors, domain-wall data,
//!   validity checking and ASCII time-slice rendering.
//!
//! The synthesizer that fills in a `LasDesign` from a `LasSpec` lives in
//! the `lassynth-core` crate; this crate is pure representation.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod design;
pub mod fixtures;
pub mod geom;
pub mod json;
mod port;
pub mod slices;
mod spec;
mod validate;
mod vars;

pub use design::{CubeKind, LasDesign, PipeRef};
pub use geom::{Axis, Bounds, Coord, Dir, Sign};
pub use json::{from_lasre, to_lasre, LasreError};
pub use port::Port;
pub use slices::{render, render_layer};
pub use spec::{LasSpec, SpecError};
pub use validate::{check_functionality, check_validity, ValidityError};
pub use vars::{CorrKind, StructVar, VarTable};
