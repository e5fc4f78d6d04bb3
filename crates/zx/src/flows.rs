//! Stabilizer-flow derivation for ZX diagrams (the Stim ZX substitute).
//!
//! Every spider becomes a GHZ-like stabilizer-state gadget with one
//! qubit per leg; every internal edge contracts two legs by a forced
//! Bell measurement (with a Hadamard on one side for H-edges). What
//! remains on the open (boundary) legs is the diagram's Choi state; its
//! stabilizer group, reduced to the open legs, is the diagram's set of
//! stabilizer flows. Flows are reported **up to sign** (the paper
//! handles signs with off-chip Pauli-frame fixes).

use crate::diagram::{Diagram, SpiderKind};
use gf2::BitMat;
use pauli::{PauliString, Phase};
use std::collections::HashMap;
use std::fmt;
use tableau::Tableau;

/// Error cases of flow derivation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ZxError {
    /// A boundary node must have exactly one edge.
    BoundaryDegree(usize),
    /// A spider has no legs (a scalar factor we do not track).
    DegreeZeroSpider(usize),
}

impl fmt::Display for ZxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZxError::BoundaryDegree(n) => write!(f, "boundary node {n} must have degree 1"),
            ZxError::DegreeZeroSpider(n) => write!(f, "spider {n} has no legs"),
        }
    }
}

impl std::error::Error for ZxError {}

/// The stabilizer flows of a diagram: a group of Pauli strings over the
/// boundary legs, in boundary insertion order.
#[derive(Clone, Debug)]
pub struct FlowGroup {
    n: usize,
    gens: Vec<PauliString>,
    /// Number of edge contractions whose forced `+1` outcome was
    /// deterministically `-1` (a global sign the flows cannot see).
    sign_obstructions: usize,
}

impl FlowGroup {
    /// Number of independent generators.
    pub fn rank(&self) -> usize {
        self.gens.len()
    }

    /// Count of sign obstructions hit during contraction.
    pub fn sign_obstructions(&self) -> usize {
        self.sign_obstructions
    }

    /// Whether `p` (ignoring its sign) is a product of the generators
    /// (ignoring theirs).
    ///
    /// # Panics
    ///
    /// Panics if `p` has the wrong length.
    pub fn contains_letters(&self, p: &PauliString) -> bool {
        assert_eq!(p.len(), self.n, "flow length mismatch");
        let mut m = BitMat::zeros(0, 2 * self.n);
        for g in &self.gens {
            m.push_row(symplectic_row(g));
        }
        m.row_space_contains(&symplectic_row(p))
    }

    /// Checks a whole specification's stabilizers; returns the indices
    /// of the ones **not** realized by the diagram.
    pub fn missing_letters(&self, stabilizers: &[PauliString]) -> Vec<usize> {
        stabilizers
            .iter()
            .enumerate()
            .filter(|(_, s)| !self.contains_letters(s))
            .map(|(i, _)| i)
            .collect()
    }
}

fn symplectic_row(p: &PauliString) -> gf2::BitVec {
    let n = p.len();
    let mut v = gf2::BitVec::zeros(2 * n);
    for q in p.xs().iter_ones() {
        v.set(q, true);
    }
    for q in p.zs().iter_ones() {
        v.set(n + q, true);
    }
    v
}

impl Diagram {
    /// Derives the stabilizer flows of the diagram.
    ///
    /// # Errors
    ///
    /// Returns [`ZxError`] if a boundary has degree ≠ 1 or a spider has
    /// no legs.
    pub fn stabilizer_flows(&self) -> Result<FlowGroup, ZxError> {
        // Assign one qubit per spider leg (one per edge end). A
        // boundary's unique leg shares the qubit of the spider leg it
        // connects to (or a fresh Bell half for boundary-boundary wires).
        let mut next_qubit = 0usize;
        let mut node_legs: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut edge_legs: HashMap<usize, Vec<usize>> = HashMap::new();
        for n in self.spiders() {
            let legs = self.incident_edges(n);
            if legs.is_empty() {
                return Err(ZxError::DegreeZeroSpider(n.0));
            }
            for e in &legs {
                edge_legs.entry(e.0).or_default().push(next_qubit);
                node_legs.entry(n.0).or_default().push(next_qubit);
                next_qubit += 1;
            }
        }
        for b in self.boundaries() {
            if self.degree(b) != 1 {
                return Err(ZxError::BoundaryDegree(b.0));
            }
        }
        // Boundary-boundary edges need a Bell pair (two fresh qubits).
        let mut extra_bells: Vec<(usize, usize)> = Vec::new();
        let mut boundary_qubit: HashMap<usize, usize> = HashMap::new();
        for (ei, e) in self.edges.iter().enumerate() {
            let a_b = self.nodes[e.a.0].kind == SpiderKind::Boundary;
            let b_b = self.nodes[e.b.0].kind == SpiderKind::Boundary;
            if a_b && b_b {
                let (qa, qb) = (next_qubit, next_qubit + 1);
                next_qubit += 2;
                extra_bells.push((qa, qb));
                boundary_qubit.insert(e.a.0, qa);
                boundary_qubit.insert(e.b.0, qb);
            } else if a_b {
                boundary_qubit.insert(e.a.0, edge_legs[&ei][0]);
            } else if b_b {
                boundary_qubit.insert(e.b.0, edge_legs[&ei][0]);
            }
        }

        let mut t = Tableau::new(next_qubit);
        // Prepare spider gadgets.
        for n in self.spiders() {
            let legs = &node_legs[&n.0];
            let q0 = legs[0];
            t.h(q0);
            for &q in &legs[1..] {
                t.cx(q0, q);
            }
            for _ in 0..self.phase_quarters(n) {
                t.s(q0);
            }
            if self.kind(n) == SpiderKind::X {
                for &q in legs {
                    t.h(q);
                }
            }
        }
        for &(qa, qb) in &extra_bells {
            t.h(qa);
            t.cx(qa, qb);
        }
        // Contract internal (spider-spider) edges with Bell projections.
        let mut sign_obstructions = 0usize;
        let mut h_pending: Vec<usize> = Vec::new();
        for (ei, e) in self.edges.iter().enumerate() {
            let a_b = self.nodes[e.a.0].kind == SpiderKind::Boundary;
            let b_b = self.nodes[e.b.0].kind == SpiderKind::Boundary;
            if a_b || b_b {
                // H on a boundary edge applies to the open qubit at the end.
                if e.hadamard {
                    let bnode = if a_b { e.a.0 } else { e.b.0 };
                    h_pending.push(boundary_qubit[&bnode]);
                }
                continue;
            }
            let legs = &edge_legs[&ei];
            debug_assert_eq!(legs.len(), 2, "internal edge has two legs");
            let (qa, qb) = (legs[0], legs[1]);
            if e.hadamard {
                t.h(qb);
            }
            for obs in [
                pair_obs(next_qubit, qa, qb, pauli::Pauli::X),
                pair_obs(next_qubit, qa, qb, pauli::Pauli::Z),
            ] {
                let m = t.measure_pauli(&obs, Some(false));
                if m.deterministic && m.value {
                    sign_obstructions += 1;
                }
            }
        }
        for q in h_pending {
            t.h(q);
        }

        // Read off the Choi-state stabilizers on the open legs.
        let open: Vec<usize> = self
            .boundaries()
            .iter()
            .map(|b| boundary_qubit[&b.0])
            .collect();
        let gens = t.stabilizers_on(&open);
        Ok(FlowGroup {
            n: open.len(),
            gens,
            sign_obstructions,
        })
    }
}

/// The two-qubit observable `P_a P_b` on `n` qubits.
fn pair_obs(n: usize, a: usize, b: usize, p: pauli::Pauli) -> PauliString {
    let mut s = PauliString::identity(n).with_phase(Phase::ONE);
    s.set(a, p);
    s.set(b, p);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagram::{NodeId, SpiderKind};

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    /// Identity wire through one spider.
    fn wire(kind: SpiderKind) -> FlowGroup {
        let mut d = Diagram::new();
        let a = d.add_boundary();
        let b = d.add_boundary();
        let s = d.add_spider(kind, 0);
        d.add_edge(a, s);
        d.add_edge(s, b);
        d.stabilizer_flows().unwrap()
    }

    #[test]
    fn identity_wire_flows() {
        for kind in [SpiderKind::Z, SpiderKind::X] {
            let f = wire(kind);
            assert_eq!(f.rank(), 2);
            assert!(f.contains_letters(&ps("XX")));
            assert!(f.contains_letters(&ps("ZZ")));
            assert!(!f.contains_letters(&ps("XZ")));
        }
    }

    #[test]
    fn bare_wire_between_boundaries() {
        let mut d = Diagram::new();
        let a = d.add_boundary();
        let b = d.add_boundary();
        d.add_edge(a, b);
        let f = d.stabilizer_flows().unwrap();
        assert!(f.contains_letters(&ps("XX")));
        assert!(f.contains_letters(&ps("ZZ")));
    }

    #[test]
    fn hadamard_wire_swaps_x_and_z() {
        let mut d = Diagram::new();
        let a = d.add_boundary();
        let b = d.add_boundary();
        let s = d.add_spider(SpiderKind::Z, 0);
        d.add_edge(a, s);
        d.add_h_edge(s, b);
        let f = d.stabilizer_flows().unwrap();
        assert!(f.contains_letters(&ps("XZ")));
        assert!(f.contains_letters(&ps("ZX")));
        assert!(!f.contains_letters(&ps("XX")));
    }

    #[test]
    fn z_spider_copies_z() {
        // One Z-spider with three boundary legs: GHZ-like flows.
        let mut d = Diagram::new();
        let bs: Vec<_> = (0..3).map(|_| d.add_boundary()).collect();
        let s = d.add_spider(SpiderKind::Z, 0);
        for &b in &bs {
            d.add_edge(b, s);
        }
        let f = d.stabilizer_flows().unwrap();
        assert_eq!(f.rank(), 3);
        assert!(f.contains_letters(&ps("ZZ.")));
        assert!(f.contains_letters(&ps(".ZZ")));
        assert!(f.contains_letters(&ps("XXX")));
        assert!(!f.contains_letters(&ps("XX.")));
    }

    #[test]
    fn x_spider_copies_x() {
        let mut d = Diagram::new();
        let bs: Vec<_> = (0..3).map(|_| d.add_boundary()).collect();
        let s = d.add_spider(SpiderKind::X, 0);
        for &b in &bs {
            d.add_edge(b, s);
        }
        let f = d.stabilizer_flows().unwrap();
        assert!(f.contains_letters(&ps("XX.")));
        assert!(f.contains_letters(&ps("ZZZ")));
    }

    #[test]
    fn phase_spider_y_state() {
        // A 1-leg Z-spider with phase π/2 is |+i⟩: stabilized by Y.
        let mut d = Diagram::new();
        let b = d.add_boundary();
        let s = d.add_spider(SpiderKind::Z, 1);
        d.add_edge(b, s);
        let f = d.stabilizer_flows().unwrap();
        assert_eq!(f.rank(), 1);
        assert!(f.contains_letters(&ps("Y")));
    }

    #[test]
    fn zero_phase_state_spiders() {
        // 1-leg Z-spider phase 0 = |+⟩ (stab X); X-spider = |0⟩ (stab Z).
        let mut d = Diagram::new();
        let b = d.add_boundary();
        let s = d.add_spider(SpiderKind::Z, 0);
        d.add_edge(b, s);
        assert!(d.stabilizer_flows().unwrap().contains_letters(&ps("X")));

        let mut d = Diagram::new();
        let b2 = d.add_boundary();
        let s2 = d.add_spider(SpiderKind::X, 0);
        d.add_edge(b2, s2);
        assert!(d.stabilizer_flows().unwrap().contains_letters(&ps("Z")));
    }

    /// The CNOT of paper Fig. 5d.
    fn cnot_diagram() -> Diagram {
        let mut d = Diagram::new();
        let _cin = d.add_boundary();
        let _tin = d.add_boundary();
        let _cout = d.add_boundary();
        let _tout = d.add_boundary();
        let zc = d.add_spider(SpiderKind::Z, 0);
        let xt = d.add_spider(SpiderKind::X, 0);
        d.add_edge(NodeId(0), zc);
        d.add_edge(zc, NodeId(2));
        d.add_edge(NodeId(1), xt);
        d.add_edge(xt, NodeId(3));
        d.add_edge(zc, xt);
        d
    }

    #[test]
    fn cnot_flows_all_present() {
        let f = cnot_diagram().stabilizer_flows().unwrap();
        assert_eq!(f.rank(), 4);
        for s in ["Z.Z.", ".ZZZ", "X.XX", ".X.X"] {
            assert!(f.contains_letters(&ps(s)), "missing {s}");
        }
        // And a wrong flow is absent:
        assert!(!f.contains_letters(&ps("Z..Z")));
        assert_eq!(f.missing_letters(&[ps("Z.Z."), ps("Z..Z")]), vec![1]);
    }

    #[test]
    fn boundary_degree_checked() {
        let mut d = Diagram::new();
        let _ = d.add_boundary();
        assert_eq!(
            d.stabilizer_flows().unwrap_err(),
            ZxError::BoundaryDegree(0)
        );
    }

    #[test]
    fn degree_zero_spider_rejected() {
        let mut d = Diagram::new();
        d.add_spider(SpiderKind::Z, 0);
        assert!(matches!(
            d.stabilizer_flows(),
            Err(ZxError::DegreeZeroSpider(_))
        ));
    }

    #[test]
    fn no_sign_obstructions_for_plain_diagrams() {
        let f = cnot_diagram().stabilizer_flows().unwrap();
        assert_eq!(f.sign_obstructions(), 0);
    }
}
