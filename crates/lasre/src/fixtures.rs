//! Reference fixtures: the paper's CNOT example, fully assigned.
//!
//! Fig. 8 and Fig. 10 of the paper spell out every structural and
//! (for the `IZZZ` stabilizer) correlation-surface variable of a
//! 2×2×2-volume CNOT. This module reconstructs that assignment — with
//! the remaining three stabilizers' surfaces derived by hand — so the
//! validity checker, the ZX extraction and the synthesizer's decoder
//! can all be tested against ground truth.

use crate::design::LasDesign;
use crate::geom::{Axis, Coord};
use crate::port::Port;
use crate::spec::LasSpec;
use crate::vars::{CorrKind, StructVar, VarTable};

/// The CNOT specification of paper Figs. 2/8/10: 2×2 footprint, two
/// time layers (arrays 2×2×3 with a bottom padding layer for the input
/// ports), stabilizer flows `ZI→ZI`, `IZ→ZZ`, `XI→XX`, `IX→IX`.
#[expect(clippy::expect_used, reason = "the fixture's Pauli strings are valid")]
pub fn cnot_spec() -> LasSpec {
    LasSpec {
        name: "cnot".into(),
        max_i: 2,
        max_j: 2,
        max_k: 3,
        ports: vec![
            Port::parse(0, 1, 0, "+K", Axis::J),
            Port::parse(1, 0, 0, "+K", Axis::J),
            Port::parse(0, 1, 3, "-K", Axis::J),
            Port::parse(1, 0, 3, "-K", Axis::J),
        ],
        stabilizers: ["Z.Z.", ".ZZZ", "X.XX", ".X.X"]
            .iter()
            .map(|s| s.parse().expect("valid pauli"))
            .collect(),
        forbidden_cubes: vec![Coord::new(0, 0, 0), Coord::new(1, 1, 0)],
        allow_y_cubes: true,
    }
}

/// The solved CNOT design of paper Fig. 8 (structure) and Fig. 10
/// (correlation surfaces), with all four stabilizers' surfaces filled
/// in. Pruning and K-color inference have *not* been run.
pub fn cnot_design() -> LasDesign {
    let spec = cnot_spec();
    let table = VarTable::new(spec.bounds(), spec.nstab());
    let mut values = vec![false; table.num_total()];
    let mut set = |idx: usize| values[idx] = true;

    let c = Coord::new;
    // Structure (Fig. 8): control pillar at (i,j) = (0,1), target pillar
    // at (1,0), ancilla at (1,1) alive for k = 1..2.
    let k_pipes = [
        c(0, 1, 0), // control input port pipe
        c(0, 1, 1),
        c(0, 1, 2), // control output port pipe (exits at k=3)
        c(1, 0, 0), // target input port pipe
        c(1, 0, 1),
        c(1, 0, 2), // target output port pipe
        c(1, 1, 1), // ancilla lifetime
    ];
    let mut idxs: Vec<usize> = k_pipes
        .iter()
        .map(|&p| table.structural(StructVar::Exist(Axis::K, p)))
        .collect();
    idxs.push(table.structural(StructVar::Exist(Axis::I, c(0, 1, 2))));
    idxs.push(table.structural(StructVar::Exist(Axis::J, c(1, 0, 1))));
    // Colors: the J pipe (XX merge) is red toward I (orientation true);
    // the I pipe (ZZ merge) is red toward K (orientation false).
    idxs.push(table.structural(StructVar::Color(Axis::J, c(1, 0, 1))));
    for idx in idxs {
        set(idx);
    }

    // Correlation surfaces. Stabilizer order: 0 = Z.Z., 1 = .ZZZ,
    // 2 = X.XX, 3 = .X.X. Kinds: (pipe axis, plane partner).
    let kj = CorrKind::new(Axis::K, Axis::J);
    let ki = CorrKind::new(Axis::K, Axis::I);
    let ij = CorrKind::new(Axis::I, Axis::J);
    let ik = CorrKind::new(Axis::I, Axis::K);
    let jk = CorrKind::new(Axis::J, Axis::K);
    let ji = CorrKind::new(Axis::J, Axis::I);

    // s0: Z on the control, rides the control pillar's blue faces.
    for p in [c(0, 1, 0), c(0, 1, 1), c(0, 1, 2)] {
        set(table.corr(0, kj, p));
    }
    // s1 (Fig. 10): Z on target input spreads to both outputs.
    for p in [c(1, 0, 0), c(1, 0, 1), c(1, 0, 2), c(1, 1, 1), c(0, 1, 2)] {
        set(table.corr(1, kj, p));
    }
    set(table.corr(1, jk, c(1, 0, 1)));
    set(table.corr(1, ij, c(0, 1, 2)));
    // s2: X on control spreads to both outputs through the ZZ merge.
    for p in [
        c(0, 1, 0),
        c(0, 1, 1),
        c(0, 1, 2),
        c(1, 1, 1),
        c(1, 0, 1),
        c(1, 0, 2),
    ] {
        set(table.corr(2, ki, p));
    }
    set(table.corr(2, ik, c(0, 1, 2)));
    set(table.corr(2, ji, c(1, 0, 1)));
    // s3: X on the target passes straight through.
    for p in [c(1, 0, 0), c(1, 0, 1), c(1, 0, 2)] {
        set(table.corr(3, ki, p));
    }

    LasDesign::new(spec, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_spec_is_valid() {
        assert!(cnot_spec().validate().is_ok());
    }

    #[test]
    fn fixture_dimensions() {
        let d = cnot_design();
        assert_eq!(d.values().len(), 6 * 12 + 4 * 6 * 12);
        assert_eq!(d.pipes().len(), 9);
    }

    #[test]
    fn fig10_values_reproduced() {
        // Spot-check the exact variable values called out in Fig. 10.
        let d = cnot_design();
        let kj = CorrKind::new(Axis::K, Axis::J);
        let ki = CorrKind::new(Axis::K, Axis::I);
        assert!(d.corr(1, kj, Coord::new(1, 0, 0)));
        assert!(!d.corr(1, ki, Coord::new(1, 0, 0)));
        assert!(d.corr(1, kj, Coord::new(0, 1, 2)));
        assert!(!d.corr(1, kj, Coord::new(0, 1, 0)));
        assert!(!d.corr(1, kj, Coord::new(0, 1, 1)));
        assert!(d.corr(1, CorrKind::new(Axis::I, Axis::J), Coord::new(0, 1, 2)));
        assert!(d.corr(1, CorrKind::new(Axis::J, Axis::K), Coord::new(1, 0, 1)));
    }
}
