//! ZX-based verification of solved designs (paper contribution 4).
//!
//! A solved pipe diagram maps to a ZX diagram — cubes become spiders
//! typed by junction color, domain walls become Hadamard edges, Y cubes
//! become π/2 phases — whose stabilizer flows must include every
//! stabilizer of the specification (up to sign).

use lasre::{Axis, Coord, CubeKind, LasDesign};
use std::collections::HashMap;
use std::fmt;
use zx::{Diagram, FlowGroup, NodeId, SpiderKind, ZxError};

/// Verification failure.
#[derive(Debug)]
pub enum VerifyError {
    /// The design contains a cube that cannot be interpreted.
    BadCube(Coord),
    /// A K pipe end at this cube gets two colors.
    KColorConflict(Coord),
    /// Flow derivation failed structurally.
    Zx(ZxError),
    /// Some specification stabilizers are not realized.
    MissingFlows(Vec<usize>),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BadCube(c) => write!(f, "cube {c} cannot be interpreted"),
            VerifyError::KColorConflict(c) => write!(f, "conflicting K colors at {c}"),
            VerifyError::Zx(e) => write!(f, "zx derivation failed: {e}"),
            VerifyError::MissingFlows(idx) => {
                write!(f, "design does not realize stabilizers {idx:?}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<ZxError> for VerifyError {
    fn from(e: ZxError) -> Self {
        VerifyError::Zx(e)
    }
}

/// Extracts the ZX diagram of a solved design.
///
/// Boundary nodes are created in port order, so the flow group's qubit
/// order matches the spec's stabilizer strings.
///
/// # Errors
///
/// Returns [`VerifyError`] if the design has uninterpretable cubes or
/// conflicting K colors.
pub fn extract_zx(design: &LasDesign) -> Result<Diagram, VerifyError> {
    let spec = design.spec();
    let k_colors = design.k_colors().map_err(VerifyError::KColorConflict)?;
    let mut diagram = Diagram::new();
    let boundary_nodes: Vec<NodeId> = spec.ports.iter().map(|_| diagram.add_boundary()).collect();

    // One spider per structural cube.
    let mut cube_nodes: HashMap<Coord, NodeId> = HashMap::new();
    for c in design.used_cubes() {
        match design.classify(c) {
            CubeKind::Empty | CubeKind::Port(_) => {}
            CubeKind::Y => {
                cube_nodes.insert(c, diagram.add_spider(SpiderKind::Z, 1));
            }
            CubeKind::Straight { .. } => {
                cube_nodes.insert(c, diagram.add_spider(SpiderKind::Z, 0));
            }
            CubeKind::Junction { red, .. } => {
                let kind = if red { SpiderKind::X } else { SpiderKind::Z };
                cube_nodes.insert(c, diagram.add_spider(kind, 0));
            }
            CubeKind::Invalid => return Err(VerifyError::BadCube(c)),
        }
    }

    // Edges: one per pipe. Port pipes attach to boundary nodes.
    let port_pipes = spec.port_pipes();
    for pipe in design.pipes() {
        let hadamard =
            pipe.axis == Axis::K && k_colors.get(&pipe.base).is_some_and(|(lo, hi)| lo != hi);
        let (lo, hi) = pipe.endpoints();
        let endpoint = |c: Coord| -> Result<NodeId, VerifyError> {
            if let Some(&n) = cube_nodes.get(&c) {
                return Ok(n);
            }
            // Not a structural cube: must be a port location (virtual
            // inside, or outside the arrays).
            if let Some(&p_idx) = port_pipes.get(&(pipe.base, pipe.axis)) {
                return Ok(boundary_nodes[p_idx]);
            }
            Err(VerifyError::BadCube(c))
        };
        let a = endpoint(lo)?;
        let b = endpoint(hi)?;
        if hadamard {
            diagram.add_h_edge(a, b);
        } else {
            diagram.add_edge(a, b);
        }
    }
    Ok(diagram)
}

/// Derives the flows of a design and checks them against its spec.
///
/// # Errors
///
/// Returns [`VerifyError::MissingFlows`] listing unrealized stabilizer
/// indices, or a structural error.
pub fn verify(design: &LasDesign) -> Result<FlowGroup, VerifyError> {
    let diagram = extract_zx(design)?;
    let flows = diagram.stabilizer_flows()?;
    let missing = flows.missing_letters(&design.spec().stabilizers);
    if missing.is_empty() {
        Ok(flows)
    } else {
        Err(VerifyError::MissingFlows(missing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasre::fixtures::cnot_design;

    #[test]
    fn cnot_fixture_extracts_and_verifies() {
        let d = cnot_design();
        let diagram = extract_zx(&d).unwrap();
        // 4 boundaries + spiders for every structural cube.
        assert_eq!(diagram.boundaries().len(), 4);
        let flows = verify(&d).expect("paper CNOT must verify");
        assert_eq!(flows.rank(), 4);
    }

    #[test]
    fn wrong_spec_fails_verification() {
        let d = cnot_design();
        // Claim the design is a SWAP instead: must fail.
        let mut spec = d.spec().clone();
        spec.stabilizers = vec!["Z..Z".parse().unwrap(), ".ZZ.".parse().unwrap()];
        let values = d.values().to_vec();
        let d2 = lasre::LasDesign::new(spec, values[..6 * 12 + 2 * 6 * 12].to_vec());
        match verify(&d2) {
            Err(VerifyError::MissingFlows(idx)) => assert!(!idx.is_empty()),
            other => panic!("expected missing flows, got {other:?}"),
        }
    }
}
