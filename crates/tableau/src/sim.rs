//! The tableau simulator.

use pauli::{Pauli, PauliString, Phase};

/// Result of measuring a Pauli observable on a stabilizer state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeasurementOutcome {
    /// `false` for the `+1` eigenvalue, `true` for `-1`.
    pub value: bool,
    /// Whether the outcome was already determined by the state. When
    /// `false`, the outcome was random (or forced by the caller) and the
    /// state has been projected accordingly.
    pub deterministic: bool,
}

/// A stabilizer state on `n` qubits in the Aaronson–Gottesman
/// destabilizer/stabilizer representation.
///
/// Rows `0..n` are destabilizers, rows `n..2n` are stabilizers; row
/// signs are tracked exactly through [`PauliString`] phases (which stay
/// real, `±1`, for Hermitian rows).
///
/// # Examples
///
/// ```
/// use tableau::Tableau;
/// let mut t = Tableau::new(1);
/// t.h(0);
/// // |+> is stabilized by +X
/// assert_eq!(t.stabilizers()[0].to_string(), "X");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tableau {
    n: usize,
    rows: Vec<PauliString>,
}

impl Tableau {
    /// Creates the all-`|0⟩` state on `n` qubits.
    pub fn new(n: usize) -> Self {
        let mut rows = Vec::with_capacity(2 * n);
        for q in 0..n {
            rows.push(PauliString::single(n, q, Pauli::X));
        }
        for q in 0..n {
            rows.push(PauliString::single(n, q, Pauli::Z));
        }
        Tableau { n, rows }
    }

    /// The current stabilizer generators (rows `n..2n`).
    pub fn stabilizers(&self) -> &[PauliString] {
        &self.rows[self.n..]
    }

    /// The current destabilizer generators (rows `0..n`).
    pub fn destabilizers(&self) -> &[PauliString] {
        &self.rows[..self.n]
    }

    /// Applies a Hadamard gate on qubit `q`.
    pub fn h(&mut self, q: usize) {
        for row in &mut self.rows {
            let (x, z) = row.get(q).xz();
            if x && z {
                row.negate();
            }
            row.set(q, Pauli::from_xz(z, x));
        }
    }

    /// Applies an S (phase) gate on qubit `q`.
    pub fn s(&mut self, q: usize) {
        for row in &mut self.rows {
            let (x, z) = row.get(q).xz();
            if x && z {
                row.negate();
            }
            row.set(q, Pauli::from_xz(x, z ^ x));
        }
    }

    /// Applies a Pauli X gate on qubit `q`.
    pub fn x(&mut self, q: usize) {
        for row in &mut self.rows {
            if row.get(q).xz().1 {
                row.negate();
            }
        }
    }

    /// Applies a Pauli Z gate on qubit `q`.
    pub fn z(&mut self, q: usize) {
        for row in &mut self.rows {
            if row.get(q).xz().0 {
                row.negate();
            }
        }
    }

    /// Applies a CNOT with control `c` and target `t`.
    ///
    /// # Panics
    ///
    /// Panics if `c == t`.
    pub fn cx(&mut self, c: usize, t: usize) {
        assert_ne!(c, t, "cx with c == t");
        for row in &mut self.rows {
            let (xc, zc) = row.get(c).xz();
            let (xt, zt) = row.get(t).xz();
            if xc && zt && (xt == zc) {
                row.negate();
            }
            row.set(t, Pauli::from_xz(xt ^ xc, zt));
            row.set(c, Pauli::from_xz(xc, zc ^ zt));
        }
    }

    /// Applies a CZ between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.h(b);
        self.cx(a, b);
        self.h(b);
    }

    /// Swaps qubits `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for row in &mut self.rows {
            let pa = row.get(a);
            row.set(a, row.get(b));
            row.set(b, pa);
        }
    }

    /// Measures the single-qubit Z observable on `q`.
    ///
    /// See [`Tableau::measure_pauli`] for the `forced` semantics.
    pub fn measure_z(&mut self, q: usize, forced: Option<bool>) -> MeasurementOutcome {
        self.measure_pauli(&PauliString::single(self.n, q, Pauli::Z), forced)
    }

    /// Measures an arbitrary Hermitian Pauli-product observable.
    ///
    /// If the outcome is random, `forced` selects it (post-selection);
    /// when `forced` is `None` the `+1` outcome is chosen, which is the
    /// appropriate convention for flow derivation where any consistent
    /// choice works.
    ///
    /// If the outcome is deterministic, `forced` is ignored and the
    /// actual value is returned; callers that post-select must compare.
    ///
    /// # Panics
    ///
    /// Panics if `p` has an imaginary phase (not Hermitian) or a length
    /// other than the qubit count.
    pub fn measure_pauli(&mut self, p: &PauliString, forced: Option<bool>) -> MeasurementOutcome {
        assert_eq!(p.len(), self.n, "observable length mismatch");
        assert!(p.phase().is_real(), "observable must be Hermitian");
        let pivot = (self.n..2 * self.n).find(|&i| !self.rows[i].commutes_with(p));
        match pivot {
            Some(pivot) => {
                // Random outcome: project. The destabilizer paired with
                // the pivot is skipped — it is overwritten below, and
                // multiplying it (it anticommutes with the pivot row)
                // would produce an imaginary intermediate.
                let pivot_row = self.rows[pivot].clone();
                let paired_destab = pivot - self.n;
                for (i, row) in self.rows.iter_mut().enumerate() {
                    if i != pivot && i != paired_destab && !row.commutes_with(p) {
                        *row = row.mul(&pivot_row);
                        debug_assert!(row.phase().is_real());
                    }
                }
                let value = forced.unwrap_or(false);
                self.rows[pivot - self.n] = pivot_row;
                let sign = if value { Phase::MINUS_ONE } else { Phase::ONE };
                self.rows[pivot] = p.clone().with_phase(p.phase() + sign);
                MeasurementOutcome {
                    value,
                    deterministic: false,
                }
            }
            None => {
                // Deterministic: p is in the stabilizer group up to sign.
                let mut scratch = PauliString::identity(self.n);
                for i in 0..self.n {
                    if !self.rows[i].commutes_with(p) {
                        scratch = scratch.mul(&self.rows[i + self.n]);
                    }
                }
                debug_assert!(scratch.same_letters(p), "commuting observable not in group");
                let value = scratch.phase() != p.phase();
                MeasurementOutcome {
                    value,
                    deterministic: true,
                }
            }
        }
    }

    /// Reduces the stabilizer group to the elements supported entirely
    /// on `keep`, returned restricted to those qubits (in `keep` order).
    ///
    /// This is the projection step of the ZX flow derivation: after
    /// contracting internal edges, the flows of the diagram are the
    /// stabilizers of the state supported only on the open legs.
    pub fn stabilizers_on(&self, keep: &[usize]) -> Vec<PauliString> {
        let keep_set: std::collections::HashSet<usize> = keep.iter().copied().collect();
        let internal: Vec<usize> = (0..self.n).filter(|q| !keep_set.contains(q)).collect();
        let mut rows: Vec<PauliString> = self.stabilizers().to_vec();
        let mut used = vec![false; rows.len()];
        // Eliminate X then Z support on each internal qubit.
        for &q in &internal {
            for want_x in [true, false] {
                let hit = |row: &PauliString| {
                    let (x, z) = row.get(q).xz();
                    if want_x {
                        x
                    } else {
                        z
                    }
                };
                let Some(pivot) = (0..rows.len()).find(|&r| !used[r] && hit(&rows[r])) else {
                    continue;
                };
                let pivot_row = rows[pivot].clone();
                for (r, row) in rows.iter_mut().enumerate() {
                    if r != pivot && !used[r] && hit(row) {
                        *row = row.mul(&pivot_row);
                    }
                }
                used[pivot] = true;
            }
        }
        rows.iter()
            .zip(&used)
            .filter(|(row, &u)| !u && internal.iter().all(|&q| row.get(q) == Pauli::I))
            .map(|(row, _)| row.restrict(keep))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn initial_state_stabilized_by_z() {
        let t = Tableau::new(3);
        assert_eq!(t.stabilizers()[0], ps("Z.."));
        assert_eq!(t.stabilizers()[2], ps("..Z"));
        assert_eq!(t.destabilizers()[1], ps(".X."));
    }

    #[test]
    fn h_maps_z_to_x() {
        let mut t = Tableau::new(1);
        t.h(0);
        assert_eq!(t.stabilizers()[0], ps("X"));
        t.h(0);
        assert_eq!(t.stabilizers()[0], ps("Z"));
    }

    #[test]
    fn s_turns_x_into_y() {
        let mut t = Tableau::new(1);
        t.h(0); // |+>, stab X
        t.s(0); // |i>, stab Y
        assert_eq!(t.stabilizers()[0], ps("Y"));
    }

    #[test]
    fn x_flips_z_sign() {
        let mut t = Tableau::new(1);
        t.x(0); // |1>, stab -Z
        assert_eq!(t.stabilizers()[0], ps("-Z"));
        let m = t.measure_z(0, None);
        assert!(m.deterministic);
        assert!(m.value);
    }

    #[test]
    fn bell_pair_stabilizers() {
        let mut t = Tableau::new(2);
        t.h(0);
        t.cx(0, 1);
        let mxx = t.measure_pauli(&ps("XX"), None);
        let mzz = t.measure_pauli(&ps("ZZ"), None);
        assert!(mxx.deterministic && !mxx.value);
        assert!(mzz.deterministic && !mzz.value);
    }

    #[test]
    fn cz_creates_graph_state() {
        // 2-qubit graph state: stabilizers XZ, ZX.
        let mut t = Tableau::new(2);
        t.h(0);
        t.h(1);
        t.cz(0, 1);
        for s in ["XZ", "ZX"] {
            let m = t.measure_pauli(&ps(s), None);
            assert!(m.deterministic && !m.value, "stabilizer {s}");
        }
    }

    #[test]
    fn random_measurement_projects() {
        let mut t = Tableau::new(1);
        t.h(0); // |+>
        let m = t.measure_z(0, Some(true)); // force |1>
        assert!(!m.deterministic);
        assert!(m.value);
        let m2 = t.measure_z(0, None);
        assert!(m2.deterministic);
        assert!(m2.value);
    }

    #[test]
    fn forced_bell_contraction_teleports() {
        // Qubits: 0-1 Bell, 2-3 Bell; Bell-measure (1,2) forced +1.
        let mut t = Tableau::new(4);
        t.h(0);
        t.cx(0, 1);
        t.h(2);
        t.cx(2, 3);
        let m1 = t.measure_pauli(&ps(".XX."), Some(false));
        let m2 = t.measure_pauli(&ps(".ZZ."), Some(false));
        assert!(!m1.value && !m2.value);
        // Now 0 and 3 are a Bell pair.
        let flows = t.stabilizers_on(&[0, 3]);
        assert_eq!(flows.len(), 2);
        let letters: Vec<String> = flows
            .iter()
            .map(|f| f.clone().with_phase(Phase::ONE).to_string())
            .collect();
        assert!(letters.contains(&"XX".to_string()), "{letters:?}");
        assert!(letters.contains(&"ZZ".to_string()), "{letters:?}");
    }

    #[test]
    fn stabilizers_on_subset_of_product_state() {
        let mut t = Tableau::new(3);
        t.h(1);
        let flows = t.stabilizers_on(&[1]);
        assert_eq!(flows, vec![ps("X")]);
    }

    #[test]
    fn measurement_outcome_sign_convention() {
        let mut t = Tableau::new(1);
        // measure -Z on |0>: outcome of -Z is -1 → value = true
        let m = t.measure_pauli(&ps("-Z"), None);
        assert!(m.deterministic);
        assert!(m.value);
    }

    #[test]
    fn swap_moves_state() {
        let mut t = Tableau::new(2);
        t.x(0);
        t.swap(0, 1);
        assert!(t.measure_z(1, None).value);
        assert!(!t.measure_z(0, None).value);
    }

    #[test]
    fn ghz_state_flows() {
        let mut t = Tableau::new(3);
        t.h(0);
        t.cx(0, 1);
        t.cx(0, 2);
        for s in ["XXX", "ZZ.", ".ZZ", "Z.Z"] {
            let m = t.measure_pauli(&ps(s), None);
            assert!(m.deterministic && !m.value, "{s}");
        }
    }

    #[test]
    fn measure_pauli_with_y() {
        let mut t = Tableau::new(1);
        t.h(0);
        t.s(0); // |i>
        let m = t.measure_pauli(&ps("Y"), None);
        assert!(m.deterministic && !m.value);
    }

    #[test]
    fn cx_propagates_x_and_z() {
        let mut t = Tableau::new(2);
        // X on control propagates to target: start |+0>.
        t.h(0);
        t.cx(0, 1);
        let m = t.measure_pauli(&ps("XX"), None);
        assert!(m.deterministic && !m.value);
    }
}
