//! Encoding a LaS specification into CNF (paper Secs. III–IV).
//!
//! One CNF variable per LaSre variable (structural + correlation), plus
//! Tseitin auxiliaries. Ports and forbidden cubes fix many variables
//! outright; [`sat::CnfBuilder`] propagates those constants at emission
//! time, standing in for the paper's Z3 `simplify`/`propagate-values`
//! stage.

use lasre::geom::{red_normal_axis, Sign};
use lasre::{Axis, Coord, LasSpec, SpecError, VarTable};
use lasre::{CorrKind, StructVar};
use pauli::Pauli;
use sat::{Cnf, CnfBuilder, Lit};
use std::collections::HashSet;

/// Size statistics of an encoding (Table I's columns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodeStats {
    /// The paper's scaling factor: array volume × number of stabilizers.
    pub v_nstab: usize,
    /// CNF variable count (including auxiliaries and the constant).
    pub num_vars: usize,
    /// CNF clause count.
    pub num_clauses: usize,
    /// Clauses removed by constant propagation during emission.
    pub simplified_away: usize,
}

/// A compiled instance: the CNF plus the mapping from LaSre variables
/// (indexed per [`VarTable`]) to CNF literals.
#[derive(Clone, Debug)]
pub struct Encoding {
    /// The formula to hand to a [`sat::Backend`].
    pub cnf: Cnf,
    /// `var_map[i]` is the literal for LaSre variable `i`.
    pub var_map: Vec<Lit>,
    /// The shared variable layout.
    pub table: VarTable,
    /// Size statistics.
    pub stats: EncodeStats,
}

impl Encoding {
    /// Runs the CNF structural analyzer ([`sat::analyze`]) over the
    /// compiled instance: unconstrained variables, duplicate /
    /// tautological clauses, contradictory root units, connectivity.
    /// An encoder regression shows up here before any solving does.
    pub fn lint(&self) -> sat::CnfReport {
        sat::analyze::analyze(&self.cnf)
    }
}

/// Encodes a validated specification.
///
/// # Errors
///
/// Returns the spec's own validation error if it is malformed.
pub fn encode(spec: &LasSpec) -> Result<Encoding, SpecError> {
    spec.validate()?;
    let table = VarTable::new(spec.bounds(), spec.nstab());
    let mut enc = Encoder::new(spec, table);
    enc.fix_ports();
    enc.fix_forbidden();
    enc.structural_constraints();
    enc.functionality_constraints();
    Ok(enc.finish())
}

/// A depth-layered instance: one CNF built at depth `hi` whose
/// activation literals select any probe depth in `lo..=hi` — the
/// substrate of the incremental depth search
/// (`synth::optimize::find_min_depth`).
///
/// Layer `m` (cubes with `k = m`, for `m` in `lo..hi`) gets one
/// activation literal. Assuming the literals of layers `lo..d` true and
/// the rest false makes the formula equisatisfiable with
/// `encode(spec.with_depth(d))`:
///
/// * an inactive layer holds no Y cubes and no horizontal pipes, and no
///   K pipe pokes into it — except in the columns of top (`-K`) ports,
///   where the pipes are instead *forced on*, forming a straight
///   vertical tube from the active top to the fixed port boundary at
///   `hi`. The functionality constraints of a straight tube equate the
///   correlation pieces of consecutive K pipes, so the port's fixed
///   boundary values telescope down to the pipe leaving the active
///   volume — exactly `with_depth(d)`'s boundary condition;
/// * deactivation is upward-closed (`¬act[m] ⇒ ¬act[m+1]`);
/// * forbidden cubes at layers `≥ lo` apply only while their layer is
///   active, mirroring `with_depth`'s truncation of the forbidden list.
#[derive(Clone, Debug)]
pub struct LayeredEncoding {
    /// The compiled instance at depth `hi`.
    pub encoding: Encoding,
    /// Smallest selectable depth.
    pub lo: usize,
    /// Largest selectable depth (the depth the CNF is built at).
    pub hi: usize,
    /// `activation[i]` activates layer `lo + i`.
    pub activation: Vec<Lit>,
}

impl LayeredEncoding {
    /// The assumptions selecting probe depth `depth`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside `lo..=hi`.
    pub fn assumptions_for(&self, depth: usize) -> Vec<Lit> {
        assert!(
            (self.lo..=self.hi).contains(&depth),
            "depth {depth} outside the layered range [{}, {}]",
            self.lo,
            self.hi
        );
        self.activation
            .iter()
            .enumerate()
            .map(|(i, &a)| if self.lo + i < depth { a } else { !a })
            .collect()
    }

    /// [`Encoding::lint`] plus the layered-specific check: every
    /// activation literal must gate at least one payload clause
    /// (otherwise the depth it selects collapses onto its neighbour —
    /// see [`sat::analyze::ungated_activation`]).
    pub fn lint(&self) -> sat::CnfReport {
        let mut report = self.encoding.lint();
        report.push(sat::analyze::ungated_activation(
            &self.encoding.cnf,
            &self.activation,
        ));
        report
    }
}

/// Encodes `spec` once for every probe depth in `lo..=hi` (see
/// [`LayeredEncoding`]).
///
/// # Errors
///
/// Returns a validation error if *any* depth in the range yields a
/// malformed spec (a side port above `lo`, a forbidden cube colliding
/// with a relocated port, …) — the layered CNF must be sound for every
/// selectable depth, so the whole range is checked up front.
///
/// # Panics
///
/// Panics unless `1 <= lo <= hi`.
pub fn encode_layered(spec: &LasSpec, lo: usize, hi: usize) -> Result<LayeredEncoding, SpecError> {
    assert!(
        1 <= lo && lo <= hi,
        "layered depth range must satisfy 1 <= lo <= hi (got [{lo}, {hi}])"
    );
    for d in lo..=hi {
        spec.with_depth(d).validate()?;
    }
    let top = spec.with_depth(hi);
    let table = VarTable::new(top.bounds(), top.nstab());
    let mut enc = Encoder::new(&top, table);
    enc.gate_from = Some(lo);
    enc.fix_ports();
    enc.fix_forbidden();
    enc.structural_constraints();
    enc.functionality_constraints();
    let activation = enc.emit_layer_activation(lo, hi);
    Ok(LayeredEncoding {
        encoding: enc.finish(),
        lo,
        hi,
        activation,
    })
}

struct Encoder<'s> {
    spec: &'s LasSpec,
    table: VarTable,
    builder: CnfBuilder,
    var_map: Vec<Lit>,
    virtual_cubes: HashSet<Coord>,
    port_pipes: std::collections::HashMap<(Coord, Axis), usize>,
    /// Layered mode: layers at `k >= gate_from` are activation-gated
    /// rather than fixed, so forbidden cubes there must be emitted as
    /// guarded clauses (see [`Encoder::emit_layer_activation`]).
    gate_from: Option<usize>,
}

impl<'s> Encoder<'s> {
    fn new(spec: &'s LasSpec, table: VarTable) -> Self {
        let mut builder = CnfBuilder::new();
        let var_map = builder.new_lits(table.num_total());
        Encoder {
            spec,
            table,
            builder,
            var_map,
            virtual_cubes: spec.virtual_cubes(),
            port_pipes: spec.port_pipes(),
            gate_from: None,
        }
    }

    /// The literal for a pipe from `c` toward `+axis`; constant false
    /// out of bounds.
    fn exist(&self, axis: Axis, c: Coord) -> Lit {
        if self.table.bounds().contains(c) {
            self.var_map[self.table.structural(StructVar::Exist(axis, c))]
        } else {
            self.builder.false_lit()
        }
    }

    fn ycube(&self, c: Coord) -> Lit {
        if self.spec.allow_y_cubes {
            self.var_map[self.table.structural(StructVar::YCube(c))]
        } else {
            self.builder.false_lit()
        }
    }

    fn color(&self, axis: Axis, c: Coord) -> Lit {
        self.var_map[self.table.structural(StructVar::Color(axis, c))]
    }

    fn corr(&self, s: usize, kind: CorrKind, c: Coord) -> Lit {
        self.var_map[self.table.corr(s, kind, c)]
    }

    /// Literal "`pipe`'s faces normal to `n` are red", for an I/J pipe.
    fn isred(&self, axis: Axis, base: Coord, n: Axis) -> Lit {
        let c = self.color(axis, base);
        if red_normal_axis(axis, true) == n {
            c
        } else {
            !c
        }
    }

    /// Incident pipe slots of a cube: (axis, base coordinate of pipe).
    fn incident_slots(c: Coord) -> [(Axis, Coord); 6] {
        [
            (Axis::I, c),
            (Axis::I, c.prev(Axis::I)),
            (Axis::J, c),
            (Axis::J, c.prev(Axis::J)),
            (Axis::K, c),
            (Axis::K, c.prev(Axis::K)),
        ]
    }

    fn fix_ports(&mut self) {
        for port in &self.spec.ports {
            let (base, axis) = port.pipe();
            let e = self.exist(axis, base);
            self.builder.fix(e, true);
            if axis != Axis::K {
                let c = self.color(axis, base);
                self.builder.fix(c, port.color_orientation());
            }
            // Virtual (padding) port cubes: nothing else may touch them.
            if port.is_virtual(self.spec.bounds()) {
                let loc = port.location;
                if self.spec.allow_y_cubes {
                    let y = self.ycube(loc);
                    self.builder.fix(y, false);
                }
                for (a, b) in Self::incident_slots(loc) {
                    if (b, a) == (base, axis) {
                        continue;
                    }
                    let l = self.exist(a, b);
                    if self.builder.value(l).is_none() {
                        self.builder.fix(l, false);
                    }
                }
            }
        }
        // No unexpected ports: boundary-exiting pipes must be declared.
        let bounds = self.spec.bounds();
        for c in bounds.iter() {
            for axis in Axis::ALL {
                if bounds.contains(c.next(axis)) {
                    continue;
                }
                if self.port_pipes.contains_key(&(c, axis)) {
                    continue;
                }
                let l = self.exist(axis, c);
                if self.builder.value(l).is_none() {
                    self.builder.fix(l, false);
                }
            }
        }
    }

    fn fix_forbidden(&mut self) {
        for &c in &self.spec.forbidden_cubes {
            // In layered mode a forbidden cube above the gate boundary
            // only applies while its layer is active; it is emitted as
            // guarded clauses in `emit_layer_activation` instead.
            if self.gate_from.is_some_and(|lo| c.k >= lo as i32) {
                continue;
            }
            if self.spec.allow_y_cubes {
                let y = self.ycube(c);
                if self.builder.value(y).is_none() {
                    self.builder.fix(y, false);
                }
            }
            for (axis, base) in Self::incident_slots(c) {
                let l = self.exist(axis, base);
                if self.builder.value(l).is_none() {
                    self.builder.fix(l, false);
                }
            }
        }
    }

    fn structural_constraints(&mut self) {
        let bounds = self.spec.bounds();
        for c in bounds.iter() {
            if self.virtual_cubes.contains(&c) {
                continue;
            }
            let y = self.ycube(c);
            let slots: Vec<(Axis, Coord, Lit)> = Self::incident_slots(c)
                .into_iter()
                .map(|(a, b)| (a, b, self.exist(a, b)))
                .collect();

            // Time-like Y cubes (Fig. 9c): no horizontal pipes, and no
            // K-passthrough: a Y cube ends its pipe, so it has at most
            // one.
            if self.spec.allow_y_cubes {
                for &(a, _, e) in &slots {
                    if a != Axis::K {
                        self.builder.implies_clause(&[y, e], &[]);
                    }
                }
                let k_dn = self.exist(Axis::K, c.prev(Axis::K));
                let k_up = self.exist(Axis::K, c);
                self.builder.implies_clause(&[y, k_dn, k_up], &[]);
                // A Y cube must touch at least one K pipe (no floating Y).
                self.builder.implies_clause(&[y], &[k_dn, k_up]);
            }

            // No 3D corners (Fig. 9d): some axis has no pipes.
            let mut empties = Vec::new();
            for axis in Axis::ALL {
                let minus = self.exist(axis, c.prev(axis));
                let plus = self.exist(axis, c);
                let none = self.builder.and(!minus, !plus);
                empties.push(none);
            }
            self.builder.clause(empties.clone());

            // No degree-1 non-Y cubes (Fig. 9e).
            for (idx, &(_, _, e)) in slots.iter().enumerate() {
                let others: Vec<Lit> = slots
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != idx)
                    .map(|(_, &(_, _, o))| o)
                    .collect();
                self.builder.implies_clause(&[!y, e], &others);
            }

            // Color matching (Fig. 9f–g) between horizontal pipes.
            let horiz: Vec<(Axis, Coord, Lit)> = slots
                .iter()
                .copied()
                .filter(|&(a, _, _)| a != Axis::K)
                .collect();
            for (ai, &(aa, ab, ae)) in horiz.iter().enumerate() {
                for &(ba, bb, be) in &horiz[ai + 1..] {
                    // Skip unusable slots early (constant-false pipes).
                    if self.builder.value(ae) == Some(false)
                        || self.builder.value(be) == Some(false)
                    {
                        continue;
                    }
                    for n in Axis::ALL {
                        if n == aa || n == ba {
                            continue;
                        }
                        let ra = self.isred(aa, ab, n);
                        let rb = self.isred(ba, bb, n);
                        self.builder.equal_under(&[ae, be], ra, rb);
                    }
                }
            }
        }
    }

    fn functionality_constraints(&mut self) {
        let bounds = self.spec.bounds();
        // (a) Port boundary conditions (Fig. 11a): fixed values.
        for s in 0..self.spec.nstab() {
            for (p_idx, port) in self.spec.ports.iter().enumerate() {
                let (base, axis) = port.pipe();
                let z_kind = CorrKind::new(axis, port.z_basis_direction);
                let x_kind = CorrKind::new(axis, port.x_basis_direction());
                let (want_z, want_x) = match self.spec.stabilizers[s].get(p_idx) {
                    Pauli::I => (false, false),
                    Pauli::Z => (true, false),
                    Pauli::X => (false, true),
                    Pauli::Y => (true, true),
                };
                let zl = self.corr(s, z_kind, base);
                let xl = self.corr(s, x_kind, base);
                self.builder.fix(zl, want_z);
                self.builder.fix(xl, want_x);
            }
        }
        for c in bounds.iter() {
            if self.virtual_cubes.contains(&c) {
                continue;
            }
            let y = self.ycube(c);
            let k_slots = [(Axis::K, c.prev(Axis::K)), (Axis::K, c)];
            for s in 0..self.spec.nstab() {
                // (d) Both-or-none at Y cubes (Fig. 11d).
                if self.spec.allow_y_cubes {
                    for &(_, base) in &k_slots {
                        if !bounds.contains(base) {
                            continue;
                        }
                        let e = self.exist(Axis::K, base);
                        let ki = self.corr(s, CorrKind::new(Axis::K, Axis::I), base);
                        let kj = self.corr(s, CorrKind::new(Axis::K, Axis::J), base);
                        self.builder.equal_under(&[y, e], ki, kj);
                    }
                }
                // (b)/(c) per axis with no incident pipes (Fig. 11b–c).
                for normal in Axis::ALL {
                    let n_minus = self.exist(normal, c.prev(normal));
                    let n_plus = self.exist(normal, c);
                    let guards = [!y, !n_minus, !n_plus];
                    let [a1, a2] = normal.others();
                    let mut parallel_terms = Vec::new();
                    let mut orth_terms = Vec::new();
                    for axis in [a1, a2] {
                        for base in [c.prev(axis), c] {
                            if !bounds.contains(base) {
                                continue;
                            }
                            let e = self.exist(axis, base);
                            if self.builder.value(e) == Some(false) {
                                continue;
                            }
                            let par = self.corr(s, CorrKind::new(axis, normal), base);
                            let orth = self.corr(s, CorrKind::new(axis, axis.third(normal)), base);
                            let t = self.builder.and(e, par);
                            parallel_terms.push(t);
                            orth_terms.push((e, orth));
                        }
                    }
                    self.builder.xor_under(&guards, &parallel_terms, false);
                    self.builder.all_equal_under(&guards, &orth_terms);
                }
            }
        }
    }

    /// Layered mode: allocates the per-layer activation literals and
    /// emits the gating clauses described on [`LayeredEncoding`].
    fn emit_layer_activation(&mut self, lo: usize, hi: usize) -> Vec<Lit> {
        let acts = self.builder.new_lits(hi - lo);
        // Deactivation is upward-closed: ¬act[m] ⇒ ¬act[m+1].
        for w in acts.windows(2) {
            self.builder.clause([w[0], !w[1]]);
        }
        // Columns of top ports: through inactive layers the port pipe
        // continues as a straight vertical tube down to the active top.
        let tube_columns: HashSet<(i32, i32)> = self
            .spec
            .ports
            .iter()
            .filter(|p| {
                p.direction.axis == Axis::K
                    && p.direction.sign == Sign::Minus
                    && p.location.k == hi as i32
            })
            .map(|p| (p.location.i, p.location.j))
            .collect();
        let bounds = self.spec.bounds();
        for (idx, m) in (lo..hi).enumerate() {
            let act = acts[idx];
            for i in 0..bounds.get(Axis::I) as i32 {
                for j in 0..bounds.get(Axis::J) as i32 {
                    let c = Coord::new(i, j, m as i32);
                    // An inactive layer holds no Y cubes and no
                    // horizontal pipes (pipes based at neighbouring
                    // cubes of the same layer are covered when those
                    // cubes are visited).
                    let y = self.ycube(c);
                    self.builder.implies_clause(&[!act], &[!y]);
                    for axis in [Axis::I, Axis::J] {
                        let e = self.exist(axis, c);
                        self.builder.implies_clause(&[!act], &[!e]);
                    }
                    // The K pipe poking up into an inactive layer is
                    // the relocated port pipe in a tube column (forced
                    // on) and forbidden everywhere else. Pipes fully
                    // inside the inactive region are covered by the
                    // same rule one layer up; the pipe at `hi - 1` is
                    // fixed by `fix_ports`.
                    let below = self.exist(Axis::K, c.prev(Axis::K));
                    if tube_columns.contains(&(i, j)) {
                        self.builder.implies_clause(&[!act], &[below]);
                    } else {
                        self.builder.implies_clause(&[!act], &[!below]);
                    }
                }
            }
        }
        // Forbidden cubes above the gate boundary bind only while their
        // layer is active (with_depth truncates them away otherwise).
        for &c in &self.spec.forbidden_cubes {
            if c.k < lo as i32 {
                continue;
            }
            let act = acts[c.k as usize - lo];
            let y = self.ycube(c);
            self.builder.implies_clause(&[act], &[!y]);
            for (axis, base) in Self::incident_slots(c) {
                let e = self.exist(axis, base);
                self.builder.implies_clause(&[act], &[!e]);
            }
        }
        acts
    }

    fn finish(self) -> Encoding {
        let stats = EncodeStats {
            v_nstab: self.spec.v_nstab(),
            num_vars: self.builder.num_vars(),
            num_clauses: self.builder.cnf().num_clauses(),
            simplified_away: self.builder.simplified_away(),
        };
        Encoding {
            cnf: self.builder.into_cnf(),
            var_map: self.var_map,
            table: self.table,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasre::fixtures::{cnot_design, cnot_spec};
    use sat::Backend as _;

    #[test]
    fn cnot_encoding_lints_without_fatal_findings() {
        // The real encoder must never emit the trivially-broken shapes:
        // no contradictory roots, no empty clauses, no tautologies, and
        // one dominant dependency component.
        let enc = encode(&cnot_spec()).unwrap();
        let report = enc.lint();
        assert_eq!(report.count(sat::analyze::LINT_CONTRADICTORY_UNITS), 0);
        assert_eq!(report.count(sat::analyze::LINT_EMPTY_CLAUSE), 0);
        assert_eq!(report.count(sat::analyze::LINT_TAUTOLOGICAL_CLAUSE), 0);
        // Emission-time constant folding leaves fixed variables in
        // singleton components (their unit clause connects nothing) and
        // strips some variables entirely — `unconstrained-var` firing
        // here is expected, informational output. The *search* still
        // has to live in one dominant component.
        assert!(report.largest_component * 3 > report.num_vars, "{report}");
    }

    #[test]
    fn layered_activation_literals_all_gate() {
        let layered = encode_layered(&cnot_spec(), 2, 5).unwrap();
        let report = layered.lint();
        assert_eq!(
            report.count(sat::analyze::LINT_UNGATED_ACTIVATION),
            0,
            "{report}"
        );
    }

    #[test]
    fn ungated_activation_detected_on_seeded_bug() {
        // Simulate the encoder bug the lint exists for: an activation
        // literal allocated (and chained) but whose gated clauses were
        // dropped. Splice a fresh variable into the activation list.
        let mut layered = encode_layered(&cnot_spec(), 2, 5).unwrap();
        let ghost = Lit::pos(sat::Var(layered.encoding.cnf.num_vars() as u32));
        layered.encoding.cnf.ensure_vars(ghost.var().index() + 1);
        // Chain it below the first real layer so only the pure-chain
        // clause mentions it.
        let first = layered.activation[0];
        layered.encoding.cnf.add_clause([ghost, !first]);
        layered.activation.insert(0, ghost);
        let report = layered.lint();
        assert_eq!(
            report.count(sat::analyze::LINT_UNGATED_ACTIVATION),
            1,
            "{report}"
        );
    }

    #[test]
    fn cnot_encoding_has_sane_size() {
        let enc = encode(&cnot_spec()).unwrap();
        assert_eq!(enc.stats.v_nstab, 48);
        assert!(enc.stats.num_vars > enc.table.num_total());
        assert!(enc.stats.num_clauses > 100);
        assert!(
            enc.stats.simplified_away > 0,
            "ports should trigger simplification"
        );
    }

    #[test]
    fn fig8_assignment_satisfies_encoding() {
        // The paper's hand-built CNOT must satisfy our CNF: extend the
        // design's assignment with consistent auxiliary values by unit
        // propagation-style evaluation — instead we check with the
        // solver under assumptions pinning every LaSre variable.
        let spec = cnot_spec();
        let enc = encode(&spec).unwrap();
        let design = cnot_design();
        let assumptions: Vec<Lit> = enc
            .var_map
            .iter()
            .zip(design.values())
            .map(|(&lit, &v)| if v { lit } else { !lit })
            .collect();
        let mut solver = sat::CdclSolver::default();
        let out =
            sat::Backend::solve_with(&mut solver, &enc.cnf, &assumptions, &sat::Budget::default());
        assert!(out.is_sat(), "paper's CNOT must satisfy the encoding");
    }

    #[test]
    fn wrong_structure_rejected_under_assumptions() {
        // Forcing the I pipe of the CNOT off while keeping everything
        // else pinned must be UNSAT (the design needs that merge).
        let spec = cnot_spec();
        let enc = encode(&spec).unwrap();
        let design = cnot_design();
        let ipipe = enc
            .table
            .structural(StructVar::Exist(Axis::I, Coord::new(0, 1, 2)));
        let assumptions: Vec<Lit> = enc
            .var_map
            .iter()
            .zip(design.values())
            .enumerate()
            .map(|(i, (&lit, &v))| {
                let v = if i == ipipe { false } else { v };
                if v {
                    lit
                } else {
                    !lit
                }
            })
            .collect();
        let mut solver = sat::CdclSolver::default();
        let out =
            sat::Backend::solve_with(&mut solver, &enc.cnf, &assumptions, &sat::Budget::default());
        assert!(out.is_unsat());
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let mut spec = cnot_spec();
        spec.stabilizers[0] = "ZZ".parse().unwrap();
        assert!(encode(&spec).is_err());
    }

    /// The layered CNF under depth-`d` assumptions must agree with the
    /// from-scratch encoding of `spec.with_depth(d)` at every depth of
    /// the range — the equisatisfiability the incremental depth search
    /// rests on.
    #[test]
    fn layered_agrees_with_sequential_encodes() {
        let spec = cnot_spec();
        let layered = encode_layered(&spec, 2, 5).unwrap();
        assert_eq!(layered.activation.len(), 3);
        for d in 2..=5 {
            let assumptions = layered.assumptions_for(d);
            let got = sat::CdclSolver::default()
                .solve_with(&layered.encoding.cnf, &assumptions, &sat::Budget::default())
                .is_sat();
            let seq = encode(&spec.with_depth(d)).unwrap();
            let want = sat::CdclSolver::default()
                .solve_with(&seq.cnf, &[], &sat::Budget::default())
                .is_sat();
            assert_eq!(got, want, "layered vs sequential disagree at depth {d}");
            // The CNOT needs depth 3: UNSAT below, SAT from there on.
            assert_eq!(want, d >= 3, "unexpected CNOT verdict at depth {d}");
        }
    }

    /// Forbidden cubes at gated layers bind exactly while their layer
    /// is active.
    #[test]
    fn layered_gates_forbidden_cubes_per_depth() {
        // Forbid both interior columns at layer 2: depth 3 becomes
        // unroutable, depth 2 stays as without the cubes (UNSAT), and
        // deeper probes route around layer 2.
        let mut spec = cnot_spec();
        spec.forbidden_cubes.push(Coord::new(0, 0, 2));
        spec.forbidden_cubes.push(Coord::new(1, 1, 2));
        let layered = encode_layered(&spec, 2, 5).unwrap();
        for d in 2..=5 {
            let got = sat::CdclSolver::default()
                .solve_with(
                    &layered.encoding.cnf,
                    &layered.assumptions_for(d),
                    &sat::Budget::default(),
                )
                .is_sat();
            let seq = encode(&spec.with_depth(d)).unwrap();
            let want = sat::CdclSolver::default()
                .solve_with(&seq.cnf, &[], &sat::Budget::default())
                .is_sat();
            assert_eq!(got, want, "gated forbidden cube diverges at depth {d}");
        }
    }

    #[test]
    fn layered_rejects_depths_invalid_anywhere_in_range() {
        // Depth 1 cuts the CNOT's bottom port cubes out of the arrays,
        // so a range including it is rejected up front.
        assert!(encode_layered(&cnot_spec(), 1, 4).is_err());
        assert!(encode_layered(&cnot_spec(), 2, 4).is_ok());
    }

    #[test]
    #[should_panic(expected = "outside the layered range")]
    fn layered_assumptions_check_range() {
        let layered = encode_layered(&cnot_spec(), 2, 4).unwrap();
        layered.assumptions_for(5);
    }
}
