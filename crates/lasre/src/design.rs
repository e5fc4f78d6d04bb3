//! Solved LaS designs (the textual "LaSre" output of the paper).

use crate::geom::{red_normal_axis, Axis, Bounds, Coord, Sign};
use crate::spec::LasSpec;
use crate::vars::{CorrKind, StructVar, VarTable};
use std::collections::{HashMap, HashSet, VecDeque};

/// A reference to a pipe: the lower endpoint cube along the pipe's axis,
/// plus the axis. `Exist{axis}[base]` is the corresponding variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PipeRef {
    /// Lower endpoint (the cube the pipe leaves toward `+axis`).
    pub base: Coord,
    /// The pipe's axis.
    pub axis: Axis,
}

impl PipeRef {
    /// Builds a pipe reference.
    pub fn new(base: Coord, axis: Axis) -> PipeRef {
        PipeRef { base, axis }
    }

    /// The two endpoints (the upper one may be outside the arrays for
    /// port pipes that exit on a `+` face).
    pub fn endpoints(self) -> (Coord, Coord) {
        (self.base, self.base.next(self.axis))
    }
}

/// Classification of a cube in a solved design, used by the ZX
/// extraction, visualization and the validity checker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CubeKind {
    /// No pipes touch the cube.
    Empty,
    /// A virtual port location (padding cube standing for the outside).
    Port(usize),
    /// A Y-basis initialization/measurement cube.
    Y,
    /// Pipes along a single axis: a straight wire segment or a terminal.
    Straight {
        /// The axis of the incident pipe(s).
        axis: Axis,
        /// Number of incident pipes (1 = terminal, 2 = passthrough).
        degree: usize,
    },
    /// Pipes along exactly two axes: a turn, T- or cross-junction lying
    /// in the plane of those axes.
    Junction {
        /// The normal axis (no pipes along it).
        normal: Axis,
        /// Whether the faces normal to `normal` are red (X-type); red
        /// junctions are X-spiders, blue ones Z-spiders (paper Sec. II-D).
        red: bool,
        /// Number of incident pipes (2–4).
        degree: usize,
    },
    /// Pipes along all three axes: a forbidden 3D corner.
    Invalid,
}

/// A solved lattice-surgery subroutine: the spec plus a full variable
/// assignment and the inferred K-pipe colors / domain walls.
///
/// Constructed by the synthesizer's decoder (or by hand, to check
/// existing human designs). Post-processing entry points:
/// [`LasDesign::prune`] and [`LasDesign::infer_k_colors`].
#[derive(Clone, Debug, PartialEq)]
pub struct LasDesign {
    spec: LasSpec,
    table: VarTable,
    values: Vec<bool>,
    /// Lower/upper color orientation of each existing K pipe.
    k_colors: HashMap<Coord, (bool, bool)>,
    /// K pipes containing a domain wall.
    domain_walls: HashSet<Coord>,
    /// Whether ZX verification succeeded (set by the synthesizer).
    verified: bool,
}

impl LasDesign {
    /// Wraps a raw variable assignment.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the spec's variable count.
    pub fn new(spec: LasSpec, values: Vec<bool>) -> LasDesign {
        let table = VarTable::new(spec.bounds(), spec.nstab());
        assert_eq!(
            values.len(),
            table.num_total(),
            "assignment length mismatch"
        );
        LasDesign {
            spec,
            table,
            values,
            k_colors: HashMap::new(),
            domain_walls: HashSet::new(),
            verified: false,
        }
    }

    /// The specification this design satisfies.
    pub fn spec(&self) -> &LasSpec {
        &self.spec
    }

    /// The variable table (shared layout with the encoder).
    pub fn table(&self) -> &VarTable {
        &self.table
    }

    /// The bounds of the variable arrays.
    pub fn bounds(&self) -> Bounds {
        self.spec.bounds()
    }

    /// Whether ZX verification has confirmed this design.
    pub fn verified(&self) -> bool {
        self.verified
    }

    /// Records the verification result (used by the synthesizer).
    pub fn set_verified(&mut self, v: bool) {
        self.verified = v;
    }

    /// Whether the cube at `c` is a Y cube (`false` out of bounds).
    pub fn is_y(&self, c: Coord) -> bool {
        self.bounds().contains(c) && self.values[self.table.structural(StructVar::YCube(c))]
    }

    /// Whether a pipe exists from `c` toward `+axis` (`false` out of bounds).
    pub fn has_pipe(&self, axis: Axis, c: Coord) -> bool {
        self.bounds().contains(c) && self.values[self.table.structural(StructVar::Exist(axis, c))]
    }

    /// The color orientation of an existing I or J pipe.
    ///
    /// # Panics
    ///
    /// Panics for K pipes (use [`LasDesign::k_color`]) or out-of-bounds
    /// coordinates.
    pub fn color(&self, axis: Axis, c: Coord) -> bool {
        self.values[self.table.structural(StructVar::Color(axis, c))]
    }

    /// The inferred (lower, upper) color orientations of a K pipe, if
    /// [`LasDesign::infer_k_colors`] has run.
    pub fn k_color(&self, base: Coord) -> Option<(bool, bool)> {
        self.k_colors.get(&base).copied()
    }

    /// K pipes containing a domain wall (paper's yellow rings).
    pub fn domain_walls(&self) -> &HashSet<Coord> {
        &self.domain_walls
    }

    /// The correlation-surface bit for stabilizer `s` in the pipe at `c`.
    pub fn corr(&self, s: usize, kind: CorrKind, c: Coord) -> bool {
        self.values[self.table.corr(s, kind, c)]
    }

    /// All existing pipes (including port pipes).
    pub fn pipes(&self) -> Vec<PipeRef> {
        let mut out = Vec::new();
        for c in self.bounds().iter() {
            for axis in Axis::ALL {
                if self.has_pipe(axis, c) {
                    out.push(PipeRef::new(c, axis));
                }
            }
        }
        out
    }

    /// The pipes incident to cube `c`, as (pipe, sign) where sign is the
    /// side of `c` the pipe leaves from (`Plus` = toward `+axis`).
    pub fn incident_pipes(&self, c: Coord) -> Vec<(PipeRef, Sign)> {
        let mut out = Vec::new();
        for axis in Axis::ALL {
            if self.has_pipe(axis, c) {
                out.push((PipeRef::new(c, axis), Sign::Plus));
            }
            let p = c.prev(axis);
            if self.has_pipe(axis, p) {
                out.push((PipeRef::new(p, axis), Sign::Minus));
            }
        }
        out
    }

    /// Number of pipes incident to `c`.
    pub fn degree(&self, c: Coord) -> usize {
        self.incident_pipes(c).len()
    }

    /// The axes along which `c` has at least one incident pipe.
    pub fn occupied_axes(&self, c: Coord) -> Vec<Axis> {
        Axis::ALL
            .into_iter()
            .filter(|&a| self.has_pipe(a, c) || self.has_pipe(a, c.prev(a)))
            .collect()
    }

    /// Classifies the cube at `c` (see [`CubeKind`]).
    pub fn classify(&self, c: Coord) -> CubeKind {
        if let Some(idx) = self
            .spec
            .ports
            .iter()
            .position(|p| p.is_virtual(self.bounds()) && p.location == c)
        {
            return CubeKind::Port(idx);
        }
        if self.is_y(c) {
            return CubeKind::Y;
        }
        let axes = self.occupied_axes(c);
        let degree = self.degree(c);
        match axes.len() {
            0 => CubeKind::Empty,
            1 => CubeKind::Straight {
                axis: axes[0],
                degree,
            },
            2 => {
                let normal = axes[0].third(axes[1]);
                // Read the face color normal to `normal` from a
                // horizontal incident pipe (color matching makes any
                // choice consistent).
                let red = self
                    .incident_pipes(c)
                    .iter()
                    .filter(|(p, _)| p.axis != Axis::K)
                    .map(|(p, _)| red_normal_axis(p.axis, self.color(p.axis, p.base)) == normal)
                    .next()
                    .unwrap_or(false);
                CubeKind::Junction {
                    normal,
                    red,
                    degree,
                }
            }
            _ => CubeKind::Invalid,
        }
    }

    /// Removes structures not connected to any port (the paper's pruning
    /// of "pipe donuts"). Returns the number of pipes removed.
    pub fn prune(&mut self) -> usize {
        let bounds = self.bounds();
        let mut reachable: HashSet<Coord> = HashSet::new();
        let mut queue: VecDeque<Coord> = VecDeque::new();
        for port in &self.spec.ports {
            let cube = port.cube();
            if reachable.insert(cube) {
                queue.push_back(cube);
            }
            if bounds.contains(port.location) && reachable.insert(port.location) {
                queue.push_back(port.location);
            }
        }
        while let Some(c) = queue.pop_front() {
            for (pipe, sign) in self.incident_pipes(c) {
                let other = match sign {
                    Sign::Plus => pipe.base.next(pipe.axis),
                    Sign::Minus => pipe.base,
                };
                if bounds.contains(other) && reachable.insert(other) {
                    queue.push_back(other);
                }
            }
        }
        let mut removed = 0;
        for c in bounds.iter() {
            if reachable.contains(&c) {
                continue;
            }
            let y = self.table.structural(StructVar::YCube(c));
            self.values[y] = false;
            for axis in Axis::ALL {
                let e = self.table.structural(StructVar::Exist(axis, c));
                if self.values[e] {
                    // Both endpoints unreachable (reachability is closed
                    // under pipes), so dropping the pipe is safe.
                    self.values[e] = false;
                    removed += 1;
                }
            }
        }
        removed
    }

    /// Infers the color orientation of each K pipe's two ends from its
    /// surroundings and places domain walls where the ends disagree
    /// (paper Sec. IV, post-processing).
    ///
    /// # Panics
    ///
    /// Panics if surrounding constraints are themselves inconsistent,
    /// which a design satisfying the validity constraints cannot be.
    pub fn infer_k_colors(&mut self) {
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        struct EndRef {
            base: Coord,
            upper: bool,
        }
        let bounds = self.bounds();
        let k_pipes: Vec<Coord> = bounds
            .iter()
            .filter(|&c| self.has_pipe(Axis::K, c))
            .collect();
        // 1. Fixed constraints at each end.
        let mut fixed: HashMap<EndRef, bool> = HashMap::new();
        let port_pipes = self.spec.port_pipes();
        for &base in &k_pipes {
            for upper in [false, true] {
                let end_cube = if upper { base.next(Axis::K) } else { base };
                let endref = EndRef { base, upper };
                // Port pipes: the outer end color comes from the port.
                if let Some(&pidx) = port_pipes.get(&(base, Axis::K)) {
                    let port = self.spec.ports[pidx];
                    let outer_is_upper = port.direction.sign == Sign::Minus;
                    if upper == outer_is_upper {
                        fixed.insert(endref, port.color_orientation());
                        continue;
                    }
                }
                if !bounds.contains(end_cube) {
                    continue;
                }
                // Horizontal pipes at the end cube constrain the color.
                for (p, _) in self.incident_pipes(end_cube) {
                    if p.axis == Axis::K {
                        continue;
                    }
                    let n = Axis::K.third(p.axis);
                    let h_red_n = red_normal_axis(p.axis, self.color(p.axis, p.base)) == n;
                    // Find the K orientation with matching n-face color.
                    let o = [false, true]
                        .into_iter()
                        .find(|&o| (red_normal_axis(Axis::K, o) == n) == h_red_n)
                        .expect("one orientation matches"); // lint:allow(no-panic)
                    if let Some(&prev) = fixed.get(&endref) {
                        assert_eq!(
                            prev, o,
                            "conflicting K colors at {end_cube} (invalid design)"
                        );
                    }
                    fixed.insert(endref, o);
                }
            }
        }
        // 2. Continuity: at a cube with only K pipes through it, the
        //    upper end of the pipe below equals the lower end of the
        //    pipe above.
        let mut adj: HashMap<EndRef, Vec<EndRef>> = HashMap::new();
        for &base in &k_pipes {
            let top_cube = base.next(Axis::K);
            let above = top_cube;
            if self.has_pipe(Axis::K, above) && !self.is_y(top_cube) {
                let only_k = self.occupied_axes(top_cube) == vec![Axis::K];
                if only_k {
                    let a = EndRef { base, upper: true };
                    let b = EndRef {
                        base: above,
                        upper: false,
                    };
                    adj.entry(a).or_default().push(b);
                    adj.entry(b).or_default().push(a);
                }
            }
        }
        // 3. Propagate fixed values across continuity edges, then within
        //    pipes (preferring no wall), then default.
        let mut value: HashMap<EndRef, bool> = fixed.clone();
        let mut queue: VecDeque<EndRef> = value.keys().copied().collect();
        while let Some(e) = queue.pop_front() {
            let v = value[&e];
            for nb in adj.get(&e).cloned().unwrap_or_default() {
                match value.get(&nb) {
                    Some(&existing) => {
                        assert_eq!(existing, v, "conflicting K colors across {nb:?}")
                    }
                    None => {
                        value.insert(nb, v);
                        queue.push_back(nb);
                    }
                }
            }
        }
        // Within-pipe relaxation: copy a decided end to an undecided one.
        let mut changed = true;
        while changed {
            changed = false;
            for &base in &k_pipes {
                let lo = EndRef { base, upper: false };
                let hi = EndRef { base, upper: true };
                let (lv, hv) = (value.get(&lo).copied(), value.get(&hi).copied());
                let copy = match (lv, hv) {
                    (Some(v), None) => Some((hi, v)),
                    (None, Some(v)) => Some((lo, v)),
                    _ => None,
                };
                if let Some((e, v)) = copy {
                    value.insert(e, v);
                    changed = true;
                    // Propagate across continuity edges again.
                    let mut q = VecDeque::from([e]);
                    while let Some(x) = q.pop_front() {
                        let xv = value[&x];
                        for nb in adj.get(&x).cloned().unwrap_or_default() {
                            if let Some(&ex) = value.get(&nb) {
                                assert_eq!(ex, xv, "conflicting K colors");
                            } else {
                                value.insert(nb, xv);
                                q.push_back(nb);
                            }
                        }
                    }
                }
            }
        }
        self.k_colors.clear();
        self.domain_walls.clear();
        for &base in &k_pipes {
            let lo = value
                .get(&EndRef { base, upper: false })
                .copied()
                .unwrap_or(false);
            let hi = value
                .get(&EndRef { base, upper: true })
                .copied()
                .unwrap_or(lo);
            self.k_colors.insert(base, (lo, hi));
            if lo != hi {
                self.domain_walls.insert(base);
            }
        }
    }

    /// The cubes carrying any structure.
    pub fn used_cubes(&self) -> Vec<Coord> {
        self.bounds()
            .iter()
            .filter(|&c| self.degree(c) > 0 || self.is_y(c))
            .collect()
    }

    /// Raw access to the assignment (for serialization).
    pub fn values(&self) -> &[bool] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::cnot_design;

    #[test]
    fn cnot_design_pipe_census() {
        let d = cnot_design();
        // Fig. 8: one I pipe, one J pipe, and eight K pipes (two port
        // pipes at the bottom, two exiting at the top, four interior).
        let pipes = d.pipes();
        let count = |axis: Axis| pipes.iter().filter(|p| p.axis == axis).count();
        assert_eq!(count(Axis::I), 1);
        assert_eq!(count(Axis::J), 1);
        assert_eq!(count(Axis::K), 7);
    }

    #[test]
    fn cnot_design_degrees() {
        let d = cnot_design();
        // The junction cube (0,1,2) has pipes: K below, K above (port),
        // and the I pipe: a T in the I-K plane.
        assert_eq!(d.degree(Coord::new(0, 1, 2)), 3);
        assert_eq!(
            d.classify(Coord::new(0, 1, 2)),
            // The ZZ merge junction is blue (a Z-spider).
            CubeKind::Junction {
                normal: Axis::J,
                red: false,
                degree: 3
            }
        );
        // (1,1,2) is a turn: I pipe from the left, K pipe below.
        assert_eq!(d.degree(Coord::new(1, 1, 2)), 2);
        // Virtual port cubes at the bottom layer.
        assert_eq!(d.classify(Coord::new(0, 1, 0)), CubeKind::Port(0));
        // Forbidden padding cube is empty.
        assert_eq!(d.classify(Coord::new(0, 0, 0)), CubeKind::Empty);
    }

    #[test]
    fn prune_removes_disconnected_donut() {
        let mut d = cnot_design();
        // Manually add an isolated vertical pipe at (0,0,1)-(0,0,2).
        let e = d
            .table
            .structural(StructVar::Exist(Axis::K, Coord::new(0, 0, 1)));
        d.values[e] = true;
        assert_eq!(d.prune(), 1);
        assert!(!d.has_pipe(Axis::K, Coord::new(0, 0, 1)));
        // The real structure is untouched.
        assert!(d.has_pipe(Axis::I, Coord::new(0, 1, 2)));
    }

    #[test]
    fn k_color_inference_no_walls_needed_for_cnot() {
        let mut d = cnot_design();
        d.infer_k_colors();
        // All ports share z_basis_direction = J, and the single I/J pipes
        // are color-consistent, so no domain wall should appear.
        assert!(d.domain_walls().is_empty(), "walls: {:?}", d.domain_walls());
        // Every K pipe has a color.
        for p in d.pipes().into_iter().filter(|p| p.axis == Axis::K) {
            assert!(d.k_color(p.base).is_some());
        }
    }

    #[test]
    fn incident_pipes_signs() {
        let d = cnot_design();
        let inc = d.incident_pipes(Coord::new(1, 1, 2));
        assert_eq!(inc.len(), 2);
        assert!(inc
            .iter()
            .any(|(p, s)| p.axis == Axis::I && *s == Sign::Minus));
        assert!(inc
            .iter()
            .any(|(p, s)| p.axis == Axis::K && *s == Sign::Minus));
    }

    #[test]
    fn used_cubes_excludes_forbidden_corners() {
        let d = cnot_design();
        let used = d.used_cubes();
        assert!(!used.contains(&Coord::new(0, 0, 0)));
        assert!(used.contains(&Coord::new(1, 0, 1)));
    }
}
