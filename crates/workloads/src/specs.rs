//! LaS specifications for the paper's evaluation subjects.
//!
//! * [`graph_state_spec`] — n-qubit graph states on the 2-lane
//!   architecture (Fig. 13/14),
//! * [`majority_gate_spec`] — the CCZ-consuming majority gate
//!   (Fig. 15); its nine stabilizer flows are *derived* by simulating
//!   the gate's Clifford gadget on the Choi state with our tableau,
//! * [`t_factory_nodelay_spec`] / [`t_factory_spec`] — the 15-to-1
//!   T-factory (Figs. 16–18) with the [[15,1,3]] flow table transcribed
//!   from Fig. 16c,
//! * plus re-exports of the CNOT fixture.
//!
//! Port geometries follow the paper's stated constraints; where a
//! figure's geometry cannot be recovered from the text, each spec's
//! doc says which interpretation it takes.

pub use lasre::fixtures::{cnot_design, cnot_spec};

use crate::graphs::Graph;
use lasre::{Axis, LasSpec, Port};
use pauli::PauliString;
use tableau::Tableau;

/// Spec for generating the graph state of `g` on the 2-lane
/// architecture: footprint `n × 2`, all `n` output ports on the back
/// lane's top face, time extent `depth`.
///
/// # Panics
///
/// Panics if `depth == 0`.
pub fn graph_state_spec(g: &Graph, depth: usize) -> LasSpec {
    assert!(depth > 0, "depth must be positive");
    let n = g.num_vertices();
    LasSpec {
        name: format!("graph-state-{n}q-d{depth}"),
        max_i: n,
        max_j: 2,
        max_k: depth,
        ports: (0..n)
            .map(|i| Port::parse(i as i32, 0, depth as i32, "-K", Axis::J))
            .collect(),
        stabilizers: g.stabilizers(),
        forbidden_cubes: Vec::new(),
        allow_y_cubes: true,
    }
}

/// Like [`graph_state_spec`] but with a configurable number of lanes
/// (`max_j`), for the paper's future-work architecture exploration
/// (Sec. VII: "quasi-1D architectures, or very small footprint
/// architectures"). `lanes = 1` is the quasi-1D case; `lanes = 2` is
/// the paper's evaluation architecture.
///
/// # Panics
///
/// Panics if `depth == 0` or `lanes == 0`.
pub fn graph_state_spec_arch(g: &Graph, depth: usize, lanes: usize) -> LasSpec {
    assert!(lanes > 0, "lanes must be positive");
    LasSpec {
        name: format!("graph-state-{}q-d{depth}-l{lanes}", g.num_vertices()),
        max_j: lanes,
        ..graph_state_spec(g, depth)
    }
}

/// Derives the nine stabilizer flows of the CCZ-consuming majority gate
/// by Choi-state simulation of its Clifford gadget: `CNOT(a→t)`,
/// `CNOT(a→c)`, then each operand line is teleported onto its |CCZ⟩
/// qubit via a `ZZ` parity measurement and an `X` measurement (the
/// AutoCCZ consumption pattern of Ref. [20]).
///
/// Port order: `a_in, t_in, c_in, a_out, t_out, c_out, ccz_a, ccz_t,
/// ccz_c`.
pub fn majority_flows() -> Vec<PauliString> {
    // Qubits: 0..3 input legs, 3..6 working wires, 6..9 ccz legs,
    // 9..12 resource wires (which become the outputs).
    let mut t = Tableau::new(12);
    for x in 0..3 {
        // Bell pairs: input leg ↔ working wire, ccz leg ↔ resource wire.
        t.h(x);
        t.cx(x, 3 + x);
        t.h(6 + x);
        t.cx(6 + x, 9 + x);
    }
    t.cx(3, 4); // CNOT a→t
    t.cx(3, 5); // CNOT a→c
    for x in 0..3 {
        let mut zz = PauliString::identity(12);
        zz.set(3 + x, pauli::Pauli::Z);
        zz.set(9 + x, pauli::Pauli::Z);
        t.measure_pauli(&zz, Some(false));
        let mut xm = PauliString::identity(12);
        xm.set(3 + x, pauli::Pauli::X);
        t.measure_pauli(&xm, Some(false));
    }
    // Open legs in port order: inputs, outputs (resource wires), ccz legs.
    let flows = t.stabilizers_on(&[0, 1, 2, 9, 10, 11, 6, 7, 8]);
    // Drop signs: the spec is letters-only.
    flows
        .into_iter()
        .map(|f| f.with_phase(pauli::Phase::ONE))
        .collect()
}

/// Spec for the majority gate (paper Fig. 15): the three data lines
/// enter through a virtual padding column at `i = 0` and exit on the
/// `+I` face at the same heights (`k` = 1, 2, 3 for `a`, `t`, `c`); the
/// three |CCZ⟩ ports enter through the `+J` face, vertically aligned.
/// `interior_i` is the usable footprint width along I (the paper's
/// baseline is 5, the discovered design 3).
pub fn majority_gate_spec(interior_i: usize) -> LasSpec {
    let max_i = interior_i + 1; // one virtual padding column at i = 0
    let out = max_i as i32;
    let mid = (max_i / 2) as i32;
    LasSpec {
        name: format!("majority-{interior_i}x3x5"),
        max_i,
        max_j: 3,
        max_k: 5,
        ports: vec![
            Port::parse(0, 0, 1, "+I", Axis::K),   // a in
            Port::parse(0, 1, 2, "+I", Axis::K),   // t in
            Port::parse(0, 2, 3, "+I", Axis::K),   // c in
            Port::parse(out, 0, 1, "-I", Axis::K), // a out
            Port::parse(out, 1, 2, "-I", Axis::K), // t out
            Port::parse(out, 2, 3, "-I", Axis::K), // c out
            Port::parse(mid, 3, 1, "-J", Axis::K), // ccz a
            Port::parse(mid, 3, 2, "-J", Axis::K), // ccz t
            Port::parse(mid, 3, 3, "-J", Axis::K), // ccz c
        ],
        stabilizers: majority_flows(),
        forbidden_cubes: Vec::new(),
        allow_y_cubes: true,
    }
}

/// The sixteen stabilizer flows of the 15-to-1 T-factory over its 15
/// injection ports (columns 0–E) and the output port (column F),
/// transcribed from paper Fig. 16c ([[15,1,3]] code).
#[expect(clippy::expect_used, reason = "the table's Pauli strings are valid")]
pub fn t_factory_flows() -> Vec<PauliString> {
    const TABLE: [&str; 16] = [
        "X...XXX.X..X.XX.",
        ".X..XX.XX.X.X.X.",
        "..X.X.XXXX..XX..",
        "...X.XXXXXXX....",
        "ZZZ.Z...........",
        "ZZ.Z.Z..........",
        "Z.ZZ..Z.........",
        ".ZZZ...Z........",
        "ZZZZ....Z......Z",
        "..ZZ.....Z.....Z",
        ".Z.Z......Z....Z",
        "Z..Z.......Z...Z",
        ".ZZ.........Z..Z",
        "Z.Z..........Z.Z",
        "ZZ............ZZ",
        "........XXXXXXXX",
    ];
    TABLE
        .iter()
        .map(|s| s.parse().expect("valid table row"))
        .collect()
}

/// The no-injection-delay 15-to-1 T-factory spec (paper Fig. 18): a
/// 3×3 footprint ("9-patch floorplan"), depth `depth` (11 for the
/// paper's 99-volume design), injections on the `+I` face, output on
/// the top face.
pub fn t_factory_nodelay_spec(depth: usize) -> LasSpec {
    let mut ports = Vec::new();
    for k in [1i32, 3, 5, 7, 9] {
        for j in 0..3 {
            let k = k.min(depth as i32 - 1);
            ports.push(Port::parse(3, j, k, "-I", Axis::K));
        }
    }
    ports.push(Port::parse(1, 1, depth as i32, "-K", Axis::J));
    LasSpec {
        name: format!("t-factory-3x3x{depth}"),
        max_i: 3,
        max_j: 3,
        max_k: depth,
        ports,
        stabilizers: t_factory_flows(),
        forbidden_cubes: Vec::new(),
        allow_y_cubes: true,
    }
}

/// The injection-aware 15-to-1 T-factory spec (paper Fig. 17): a 9×4
/// footprint, injections entering through a bottom padding layer (each
/// bends inward, leaving room for S fixups), output on top. Depth
/// `depth` layers above the padding; the paper's design uses 4 (plus
/// the 0.5-layer fixup accounting applied outside the model).
pub fn t_factory_spec(depth: usize) -> LasSpec {
    let injection_sites: [(i32, i32); 15] = [
        (0, 0),
        (2, 0),
        (4, 0),
        (6, 0),
        (8, 0),
        (0, 2),
        (2, 2),
        (4, 2),
        (6, 2),
        (8, 2),
        (0, 3),
        (2, 3),
        (4, 3),
        (6, 3),
        (8, 3),
    ];
    let mut ports: Vec<Port> = injection_sites
        .iter()
        .map(|&(i, j)| Port::parse(i, j, 0, "+K", Axis::J))
        .collect();
    ports.push(Port::parse(4, 1, 1 + depth as i32, "-K", Axis::J));
    LasSpec {
        name: format!("t-factory-9x4x{depth}"),
        max_i: 9,
        max_j: 4,
        max_k: 1 + depth, // bottom padding layer + working layers
        ports,
        stabilizers: t_factory_flows(),
        forbidden_cubes: Vec::new(),
        allow_y_cubes: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pauli::{all_commute, independent_count};

    #[test]
    fn graph_state_spec_is_valid() {
        let g = Graph::cycle(5);
        let spec = graph_state_spec(&g, 3);
        assert!(spec.validate().is_ok(), "{:?}", spec.validate());
        assert_eq!(spec.ports.len(), 5);
        assert_eq!(spec.nstab(), 5);
    }

    #[test]
    fn arch_variants_are_valid() {
        let g = Graph::cycle(5);
        for lanes in 1..4 {
            let spec = graph_state_spec_arch(&g, 3, lanes);
            assert!(spec.validate().is_ok(), "lanes {lanes}");
            assert_eq!(spec.max_j, lanes);
        }
    }

    #[test]
    fn majority_flows_are_consistent() {
        let flows = majority_flows();
        assert_eq!(flows.len(), 9);
        assert!(all_commute(&flows));
        assert_eq!(independent_count(&flows), 9);
        // Z on input a flows to Z on output a (letters; CNOT control).
        assert!(flows_contain(&flows, "Z..Z....."));
    }

    fn flows_contain(flows: &[PauliString], target: &str) -> bool {
        // GF(2) membership via rank comparison.
        let target: PauliString = target.parse().unwrap();
        let mut with: Vec<PauliString> = flows.to_vec();
        with.push(target);
        independent_count(&with) == independent_count(flows)
    }

    #[test]
    fn majority_spec_is_valid() {
        let spec = majority_gate_spec(3);
        assert_eq!(spec.validate(), Ok(()));
        assert_eq!(spec.ports.len(), 9);
        // Pairs at the same height (paper Fig. 15a).
        assert_eq!(spec.ports[0].location.k, spec.ports[3].location.k);
        assert_eq!(spec.ports[1].location.k, spec.ports[4].location.k);
        assert_eq!(spec.ports[2].location.k, spec.ports[5].location.k);
        // CCZ ports vertically aligned.
        assert_eq!(spec.ports[6].location.i, spec.ports[7].location.i);
        assert_eq!(spec.ports[7].location.i, spec.ports[8].location.i);
    }

    #[test]
    fn t_factory_table_matches_code_structure() {
        let flows = t_factory_flows();
        assert_eq!(flows.len(), 16);
        assert!(all_commute(&flows), "[[15,1,3]] flows must commute");
        assert_eq!(independent_count(&flows), 16);
        // Four weight-8 X rows over the inputs.
        let x_rows = flows
            .iter()
            .take(4)
            .filter(|f| f.weight() == 8 && f.xs().count_ones() == 8)
            .count();
        assert_eq!(x_rows, 4);
        // The output column (F) carries X exactly once, on the last row.
        assert_eq!(flows[15].get(15), pauli::Pauli::X);
    }

    #[test]
    fn t_factory_specs_are_valid() {
        let s99 = t_factory_nodelay_spec(11);
        assert_eq!(s99.validate(), Ok(()));
        assert_eq!(s99.ports.len(), 16);
        assert_eq!(s99.bounds().volume(), 99);
        let s162 = t_factory_spec(4);
        assert_eq!(s162.validate(), Ok(()));
        assert_eq!(s162.ports.len(), 16);
        assert_eq!(s162.bounds().volume(), 9 * 4 * 5);
    }
}
