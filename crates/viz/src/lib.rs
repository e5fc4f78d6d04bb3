//! 3D visualization of lattice-surgery subroutines (paper contribution 5).
//!
//! Translates a solved [`lasre::LasDesign`] into a 3D model so
//! designs can be inspected in standard viewers instead of hand-drawn
//! time slices:
//!
//! * [`gltf`] — a minimal but valid glTF 2.0 writer (JSON with an
//!   embedded base64 buffer, per-vertex colors), matching the paper's
//!   choice of output format,
//! * [`scene`] — turns cubes/pipes/Y-cubes into colored boxes, with a
//!   ring on each domain wall ([`lasre::LasDesign::k_colors`]), optionally
//!   overlaying one stabilizer's correlation surface (paper Fig. 10).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod gltf;
pub mod scene;

pub use scene::{Scene, SceneOptions};
